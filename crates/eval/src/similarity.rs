//! Cosine Distance (§7.1, distributional shift) and Similarity Index (§7.2).

use sage_collector::Trajectory;
use sage_gr::STATE_DIM;
use sage_util::Rng;

/// Cosine distance `1 - u.v / (|u||v|)`; 1.0 for degenerate inputs.
pub fn cosine_distance(u: &[f64], v: &[f64]) -> f64 {
    1.0 - cosine_similarity(u, v)
}

/// Cosine similarity; 0.0 for degenerate (zero-norm) inputs.
pub fn cosine_similarity(u: &[f64], v: &[f64]) -> f64 {
    debug_assert_eq!(u.len(), v.len());
    let mut dot = 0.0;
    let mut nu = 0.0;
    let mut nv = 0.0;
    for (&a, &b) in u.iter().zip(v) {
        dot += a * b;
        nu += a * a;
        nv += b * b;
    }
    if nu <= 0.0 || nv <= 0.0 {
        return 0.0;
    }
    dot / (nu.sqrt() * nv.sqrt())
}

/// Transition vectors `u_t = (s_t, a_t, s_{t+1})` of a trajectory.
pub fn transition_vectors(t: &Trajectory) -> Vec<Vec<f64>> {
    let mut rows = t.states.rows();
    let Some(mut s) = rows.next() else {
        return Vec::new();
    };
    rows.zip(&t.actions)
        .map(|(next, &a)| {
            let mut v = Vec::with_capacity(2 * STATE_DIM + 1);
            v.extend(s.iter().map(|&x| x as f64));
            v.push(a as f64);
            v.extend(next.iter().map(|&x| x as f64));
            s = next;
            v
        })
        .collect()
}

/// Nearest-neighbour cosine-distance index over (a subsample of) pool
/// transitions — the paper's Distance metric.
pub struct DistanceIndex {
    vectors: Vec<Vec<f64>>,
}

impl DistanceIndex {
    /// Build from trajectories, keeping at most `max_vectors` transitions
    /// (uniform subsample; the full pool would make Fig. 11 O(n^2) in the
    /// millions).
    pub fn new(trajectories: &[Trajectory], max_vectors: usize, seed: u64) -> Self {
        let mut all: Vec<Vec<f64>> = trajectories.iter().flat_map(transition_vectors).collect();
        let mut rng = Rng::new(seed);
        rng.shuffle(&mut all);
        all.truncate(max_vectors);
        DistanceIndex { vectors: all }
    }

    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Minimum pairwise cosine distance from `u` to the pool (the Distance
    /// of a transition).
    pub fn distance(&self, u: &[f64]) -> f64 {
        self.vectors
            .iter()
            .map(|v| cosine_distance(u, v))
            .fold(f64::INFINITY, f64::min)
    }

    /// Distance of every transition of a trajectory.
    pub fn distances(&self, t: &Trajectory) -> Vec<f64> {
        transition_vectors(t)
            .iter()
            .map(|u| self.distance(u))
            .collect()
    }
}

/// Similarity Index of trajectory `a` to scheme trajectory `b` in the same
/// environment (§7.2): mean per-timestep cosine similarity of the transition
/// vectors.
pub fn similarity_index(a: &Trajectory, b: &Trajectory) -> f64 {
    let ua = transition_vectors(a);
    let ub = transition_vectors(b);
    let n = ua.len().min(ub.len());
    if n == 0 {
        return 0.0;
    }
    (0..n)
        .map(|i| cosine_similarity(&ua[i], &ub[i]))
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(actions: &[f32], state_fill: f32) -> Trajectory {
        let n = actions.len();
        Trajectory {
            scheme: "x".into(),
            env_id: "e".into(),
            set2: false,
            fair_share_bps: 0.0,
            states: vec![[state_fill; STATE_DIM]; n].into_iter().collect(),
            actions: actions.to_vec(),
            r1: vec![0.0; n],
            r2: vec![0.0; n],
            thr: vec![0.0; n],
            owd: vec![0.0; n],
            cwnd: vec![0.0; n],
        }
    }

    #[test]
    fn identical_vectors_have_zero_distance() {
        let u = vec![1.0, 2.0, 3.0];
        assert!(cosine_distance(&u, &u).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_vectors_distance_one() {
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn opposite_vectors_distance_two() {
        assert!((cosine_distance(&[1.0, 1.0], &[-1.0, -1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn transition_vector_shape() {
        let t = traj(&[1.0, 1.1, 0.9], 0.5);
        let v = transition_vectors(&t);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].len(), 2 * STATE_DIM + 1);
    }

    #[test]
    fn own_trajectory_has_zero_min_distance() {
        let t = traj(&[1.0, 1.1, 0.9, 1.2], 0.5);
        let idx = DistanceIndex::new(std::slice::from_ref(&t), 1000, 1);
        let d = idx.distances(&t);
        assert!(d.iter().all(|&x| x.abs() < 1e-9), "{d:?}");
    }

    #[test]
    fn novel_trajectory_has_positive_distance() {
        let seen = traj(&[1.0, 1.0, 1.0, 1.0], 0.5);
        let mut novel = traj(&[3.0, 0.2, 3.0, 0.2], -0.5);
        // Give novel states a different pattern too.
        novel.states = (0..4)
            .map(|r| {
                std::array::from_fn(|c| {
                    if (r * STATE_DIM + c).is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    }
                })
            })
            .collect();
        let idx = DistanceIndex::new(std::slice::from_ref(&seen), 1000, 1);
        let d = idx.distances(&novel);
        assert!(d.iter().all(|&x| x > 0.05), "{d:?}");
    }

    #[test]
    fn similarity_index_is_one_for_self() {
        let t = traj(&[1.0, 1.2, 0.8], 0.7);
        assert!((similarity_index(&t, &t) - 1.0).abs() < 1e-9);
    }
}
