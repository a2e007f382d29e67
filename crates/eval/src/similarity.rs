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
            let v = transition(&s, a, &next);
            s = next;
            v
        })
        .collect()
}

/// How many transition vectors [`transition_vectors`] makes of `t`.
fn transitions(t: &Trajectory) -> usize {
    t.states.len().saturating_sub(1).min(t.actions.len())
}

/// The transition vector `(s, a, next)`.
fn transition(s: &[f32; STATE_DIM], a: f32, next: &[f32; STATE_DIM]) -> Vec<f64> {
    let mut v = Vec::with_capacity(2 * STATE_DIM + 1);
    v.extend(s.iter().map(|&x| x as f64));
    v.push(a as f64);
    v.extend(next.iter().map(|&x| x as f64));
    v
}

/// Nearest-neighbour cosine-distance index over (a subsample of) pool
/// transitions — the paper's Distance metric.
pub struct DistanceIndex {
    vectors: Vec<Vec<f64>>,
}

impl DistanceIndex {
    /// Build from trajectories, keeping at most `max_vectors` transitions
    /// (uniform subsample; the full pool would make Fig. 11 O(n^2) in the
    /// millions). The `(trajectory, step)` pairs are shuffled and cut before
    /// any vector is built, so only the kept ones are; the shuffle's draws
    /// depend only on the count, so these are the vectors, in order, that
    /// shuffling and cutting every transition vector would keep.
    pub fn new(trajectories: &[Trajectory], max_vectors: usize, seed: u64) -> Self {
        let mut picks: Vec<(usize, usize)> = (trajectories.iter().enumerate())
            .flat_map(|(i, t)| (0..transitions(t)).map(move |step| (i, step)))
            .collect();
        let mut rng = Rng::new(seed);
        rng.shuffle(&mut picks);
        picks.truncate(max_vectors);
        let vectors = picks
            .into_iter()
            .filter_map(|(i, step)| {
                // `step < transitions(t)`, so the window holds both rows.
                let t = &trajectories[i];
                let mut rows = t.states.window(step, 2);
                let s = rows.next();
                s.zip(rows.next())
                    .map(|(s, next)| transition(&s, t.actions[step], &next))
            })
            .collect();
        DistanceIndex { vectors }
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

    /// The index keeps the vectors, in order, that building every transition
    /// vector, shuffling them and cutting the list would keep.
    #[test]
    fn sampled_index_is_the_build_shuffle_truncate_index() {
        let mut rng = Rng::new(11);
        // Lengths around the 16-row key spacing of the coded states, an
        // empty and a one-row trajectory, and one with fewer actions than
        // transitions.
        let mut trajs: Vec<Trajectory> = [0usize, 1, 2, 15, 16, 17, 40, 33]
            .iter()
            .map(|&n| {
                let actions: Vec<f32> = (0..n).map(|_| rng.range(0.5, 2.0) as f32).collect();
                let mut t = traj(&actions, 0.0);
                t.states = (0..n)
                    .map(|_| std::array::from_fn(|_| rng.below(3) as f32))
                    .collect();
                t
            })
            .collect();
        trajs[7].actions.truncate(20);
        for (max_vectors, seed) in [(1000, 1), (30, 2), (0, 3), (1, 4)] {
            let mut all: Vec<Vec<f64>> = trajs.iter().flat_map(transition_vectors).collect();
            let mut rng = Rng::new(seed);
            rng.shuffle(&mut all);
            all.truncate(max_vectors);
            let idx = DistanceIndex::new(&trajs, max_vectors, seed);
            assert_eq!(idx.vectors, all, "max {max_vectors}, seed {seed}");
        }
    }

    #[test]
    fn similarity_index_is_one_for_self() {
        let t = traj(&[1.0, 1.2, 0.8], 0.7);
        assert!((similarity_index(&t, &t) - 1.0).abs() < 1e-9);
    }
}
