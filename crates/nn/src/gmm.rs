//! Gaussian-mixture policy head (§4.2): the last layer of Sage's policy
//! network parameterises a K-component mixture over the (log) cwnd-ratio
//! action. The mixture "mitigates the chance of converging to a single
//! arbitrary CC heuristic".

use crate::graph::{log_sum_exp, Graph, NodeId};
use crate::layers::Linear;
use crate::params::ParamStore;
use sage_util::Rng;

/// Bounds for component log-standard-deviations (numerical hygiene).
pub const LOG_STD_MIN: f64 = -4.0;
pub const LOG_STD_MAX: f64 = 1.0;

/// The GMM head: three linear maps producing per-component means, log-stds
/// and mixing logits.
#[derive(Debug, Clone, Copy)]
pub struct GmmHead {
    pub mean: Linear,
    pub log_std: Linear,
    pub logit: Linear,
    pub components: usize,
}

/// Forward outputs (graph node ids) of the head.
#[derive(Debug, Clone, Copy)]
pub struct GmmNodes {
    pub means: NodeId,
    pub log_stds: NodeId,
    pub logits: NodeId,
}

impl GmmHead {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        components: usize,
        rng: &mut Rng,
    ) -> Self {
        GmmHead {
            mean: Linear::new(store, &format!("{name}.mean"), in_dim, components, rng),
            log_std: Linear::new(store, &format!("{name}.logstd"), in_dim, components, rng),
            logit: Linear::new(store, &format!("{name}.logit"), in_dim, components, rng),
            components,
        }
    }

    /// Build the mixture parameter nodes from features `x`.
    /// Log-stds are squashed into [LOG_STD_MIN, LOG_STD_MAX] via tanh.
    pub fn fwd(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> GmmNodes {
        let means = self.mean.fwd(g, store, x);
        let raw = self.log_std.fwd(g, store, x);
        let t = g.tanh(raw);
        let half_range = (LOG_STD_MAX - LOG_STD_MIN) / 2.0;
        let mid = (LOG_STD_MAX + LOG_STD_MIN) / 2.0;
        let scaled = g.scale(t, half_range);
        let log_stds = g.add_const(scaled, mid);
        let logits = self.logit.fwd(g, store, x);
        GmmNodes {
            means,
            log_stds,
            logits,
        }
    }

    /// Log-probability node of actions `[n,1]` under the mixture.
    pub fn log_prob(&self, g: &mut Graph, nodes: GmmNodes, action: NodeId) -> NodeId {
        g.gmm_log_prob(nodes.means, nodes.log_stds, nodes.logits, action)
    }

    /// Graph-free forward, bit-identical to [`GmmHead::fwd`] row by row
    /// (see [`crate::infer`]). Returns the raw `[B,K]` mixture parameter
    /// matrices; extract a flow's mixture with [`GmmBatch::row`].
    pub fn infer(&self, store: &ParamStore, x: &crate::array::Array) -> GmmBatch {
        use crate::infer;
        let means = self.mean.infer(store, x);
        let raw = self.log_std.infer(store, x);
        let t = infer::tanh(&raw);
        let half_range = (LOG_STD_MAX - LOG_STD_MIN) / 2.0;
        let mid = (LOG_STD_MAX + LOG_STD_MIN) / 2.0;
        let log_stds = infer::add_const(&infer::scale(&t, half_range), mid);
        let logits = self.logit.infer(store, x);
        GmmBatch {
            means,
            log_stds,
            logits,
        }
    }
}

/// Batched (plain-array) mixture parameters from a graph-free forward:
/// row `r` holds flow r's K-component mixture.
#[derive(Debug, Clone)]
pub struct GmmBatch {
    pub means: crate::array::Array,
    pub log_stds: crate::array::Array,
    pub logits: crate::array::Array,
}

impl GmmBatch {
    pub fn rows(&self) -> usize {
        self.means.rows
    }

    /// Extract row `r` as sampling-ready [`GmmParams`] — same math as
    /// [`GmmParams::from_nodes`].
    pub fn row(&self, r: usize) -> GmmParams {
        let k = self.means.cols;
        let logits: Vec<f64> = (0..k).map(|c| self.logits.at(r, c)).collect();
        let lse = log_sum_exp(&logits);
        GmmParams {
            means: (0..k).map(|c| self.means.at(r, c)).collect(),
            log_stds: (0..k).map(|c| self.log_stds.at(r, c)).collect(),
            weights: logits.iter().map(|&l| (l - lse).exp()).collect(),
        }
    }
}

/// Extracted (plain) mixture parameters for one row, for inference-time
/// sampling without a graph.
#[derive(Debug, Clone)]
pub struct GmmParams {
    pub means: Vec<f64>,
    pub log_stds: Vec<f64>,
    pub weights: Vec<f64>,
}

impl GmmParams {
    /// Read the mixture of row `r` out of forward-pass node values.
    pub fn from_nodes(g: &Graph, nodes: GmmNodes, r: usize) -> Self {
        let mv = g.value(nodes.means);
        let sv = g.value(nodes.log_stds);
        let wv = g.value(nodes.logits);
        let k = mv.cols;
        let logits: Vec<f64> = (0..k).map(|c| wv.at(r, c)).collect();
        let lse = log_sum_exp(&logits);
        GmmParams {
            means: (0..k).map(|c| mv.at(r, c)).collect(),
            log_stds: (0..k).map(|c| sv.at(r, c)).collect(),
            weights: logits.iter().map(|&l| (l - lse).exp()).collect(),
        }
    }

    /// Sample an action.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let c = rng.weighted(&self.weights);
        rng.normal_with(self.means[c], self.log_stds[c].exp())
    }

    /// Mixture mean (deterministic action for evaluation).
    pub fn mean(&self) -> f64 {
        self.means
            .iter()
            .zip(&self.weights)
            .map(|(m, w)| m * w)
            .sum()
    }

    /// Mean of the most likely component (mode-seeking deterministic action).
    pub fn dominant_mean(&self) -> f64 {
        let mut best = 0;
        for i in 1..self.weights.len() {
            if self.weights[i] > self.weights[best] {
                best = i;
            }
        }
        self.means[best]
    }
}

/// Utility: log-density of a scalar under given mixture params (inference
/// side; mirrors the graph op).
pub fn gmm_log_density(p: &GmmParams, a: f64) -> f64 {
    const LOG_SQRT_2PI: f64 = 0.918_938_533_204_672_8;
    let joint: Vec<f64> = (0..p.means.len())
        .map(|c| {
            let sigma = p.log_stds[c].exp();
            let z = (a - p.means[c]) / sigma;
            p.weights[c].max(1e-300).ln() - 0.5 * z * z - p.log_stds[c] - LOG_SQRT_2PI
        })
        .collect();
    log_sum_exp(&joint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;

    #[test]
    fn log_std_is_bounded() {
        let mut rng = Rng::new(1);
        let mut store = ParamStore::new();
        let head = GmmHead::new(&mut store, "h", 4, 3, &mut rng);
        // Enormous inputs cannot push log-std out of range.
        let mut g = Graph::new();
        let x = g.input(Array::from_vec(1, 4, vec![1e6, -1e6, 1e6, -1e6]));
        let nodes = head.fwd(&mut g, &store, x);
        for &s in g.value(nodes.log_stds).iter() {
            assert!((LOG_STD_MIN..=LOG_STD_MAX).contains(&s));
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let mut rng = Rng::new(2);
        let mut store = ParamStore::new();
        let head = GmmHead::new(&mut store, "h", 4, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Array::from_vec(
            2,
            4,
            vec![0.5, -0.2, 0.1, 0.9, -1.0, 0.3, 0.2, -0.4],
        ));
        let nodes = head.fwd(&mut g, &store, x);
        for r in 0..2 {
            let p = GmmParams::from_nodes(&g, nodes, r);
            let sum: f64 = p.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_respects_dominant_component() {
        let p = GmmParams {
            means: vec![-5.0, 5.0],
            log_stds: vec![-2.0, -2.0],
            weights: vec![0.95, 0.05],
        };
        let mut rng = Rng::new(3);
        let near_neg5 = (0..1000)
            .map(|_| p.sample(&mut rng))
            .filter(|&a| a < 0.0)
            .count();
        assert!(near_neg5 > 900, "{near_neg5}");
        assert!((p.mean() - (-4.5)).abs() < 1e-12);
        assert_eq!(p.dominant_mean(), -5.0);
    }

    #[test]
    fn density_integrates_to_one_numerically() {
        let p = GmmParams {
            means: vec![0.0, 1.0],
            log_stds: vec![-1.0, -0.5],
            weights: vec![0.3, 0.7],
        };
        let (lo, hi, n) = (-6.0, 7.0, 26_000);
        let dx = (hi - lo) / n as f64;
        let integral: f64 = (0..n)
            .map(|i| gmm_log_density(&p, lo + (i as f64 + 0.5) * dx).exp() * dx)
            .sum();
        assert!((integral - 1.0).abs() < 1e-6, "integral {integral}");
    }
}
