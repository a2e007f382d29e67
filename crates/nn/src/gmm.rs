//! Gaussian-mixture policy head (§4.2): the last layer of Sage's policy
//! network parameterises a K-component mixture over the (log) cwnd-ratio
//! action. The mixture "mitigates the chance of converging to a single
//! arbitrary CC heuristic".

use crate::array::Array;
use crate::graph::{log_sum_exp, softmax_in_place, Graph, NodeId};
use crate::infer::Scratch;
use crate::layers::Linear;
use crate::params::ParamStore;
use crate::vmath;
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

    /// Graph-free forward in buffers from `scratch` ([`GmmBatch::give_to`]
    /// returns them), bit-identical to [`GmmHead::fwd`] row by row (see
    /// [`crate::infer`]). Returns the raw `[B,K]` mixture parameter
    /// matrices; extract a flow's mixture with [`GmmBatch::row`].
    pub fn infer_into(&self, store: &ParamStore, x: &Array, scratch: &mut Scratch) -> GmmBatch {
        let means = self.mean.infer_into(scratch.take(), store, x, |v| v);
        let half_range = (LOG_STD_MAX - LOG_STD_MIN) / 2.0;
        let mid = (LOG_STD_MAX + LOG_STD_MIN) / 2.0;
        let mut log_stds = self.log_std.infer_into(scratch.take(), store, x, |v| v);
        vmath::tanh_in_place(&mut log_stds.data);
        log_stds.map_assign(|t| t * half_range + mid);
        let logits = self.logit.infer_into(scratch.take(), store, x, |v| v);
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
    pub means: Array,
    pub log_stds: Array,
    pub logits: Array,
}

impl GmmBatch {
    /// The mixture parameter matrices of a [`GmmHead::fwd`] on a graph.
    pub fn from_nodes(g: &Graph, nodes: GmmNodes) -> Self {
        GmmBatch {
            means: g.value(nodes.means).clone(),
            log_stds: g.value(nodes.log_stds).clone(),
            logits: g.value(nodes.logits).clone(),
        }
    }

    pub fn rows(&self) -> usize {
        self.means.rows
    }

    /// Give the three matrices' buffers to `scratch`.
    pub fn give_to(self, scratch: &mut Scratch) {
        for a in [self.means, self.log_stds, self.logits] {
            scratch.give(a.data);
        }
    }

    /// Extract row `r` as sampling-ready [`GmmParams`].
    pub fn row(&self, r: usize) -> GmmParams {
        let k = self.means.cols;
        let row = |a: &Array| a.data[r * k..(r + 1) * k].to_vec();
        let mut weights = row(&self.logits);
        softmax_in_place(&mut weights);
        GmmParams {
            means: row(&self.means),
            log_stds: row(&self.log_stds),
            weights,
        }
    }

    /// [`GmmParams::sample`] of row `r`, read in place: the same draws and
    /// bits, with the weights on the stack.
    pub fn sample(&self, r: usize, rng: &mut Rng) -> f64 {
        let (w, k) = (self.weights(r), self.logits.cols);
        sample_row(&self.means, &self.log_stds, r, &w[..k], rng)
    }

    /// [`GmmParams::mean`] of row `r`, read in place.
    pub fn mean(&self, r: usize) -> f64 {
        let (w, k) = (self.weights(r), self.logits.cols);
        let means = &self.means.data[r * k..(r + 1) * k];
        means.iter().zip(&w[..k]).map(|(m, w)| m * w).sum()
    }

    /// Row `r`'s mixing weights, the softmax of its logits, in the first
    /// `K` elements.
    fn weights(&self, r: usize) -> [f64; MAX_COMPONENTS] {
        let k = self.logits.cols;
        assert!(k <= MAX_COMPONENTS, "{k} mixture components");
        let mut w = [0.0; MAX_COMPONENTS];
        w[..k].copy_from_slice(&self.logits.data[r * k..(r + 1) * k]);
        softmax_in_place(&mut w[..k]);
        w
    }
}

/// A draw from the mixture of row `r` of `[B,K]` mixture parameter
/// matrices, given its mixing `weights` (the softmax of its logits): a
/// component by weight, then a normal draw from it — [`GmmParams::sample`]'s
/// draws, read in place.
pub fn sample_row(
    means: &Array,
    log_stds: &Array,
    r: usize,
    weights: &[f64],
    rng: &mut Rng,
) -> f64 {
    let c = rng.weighted(weights);
    rng.normal_with(means.at(r, c), log_stds.at(r, c).exp())
}

/// The most mixture components a [`GmmBatch`] row samples from.
pub const MAX_COMPONENTS: usize = 64;

/// Extracted (plain) mixture parameters for one row, for inference-time
/// sampling without a graph.
#[derive(Debug, Clone)]
pub struct GmmParams {
    pub means: Vec<f64>,
    pub log_stds: Vec<f64>,
    pub weights: Vec<f64>,
}

impl GmmParams {
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
            let p = GmmBatch::from_nodes(&g, nodes).row(r);
            let sum: f64 = p.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    /// A batch row samples and averages as the [`GmmParams`] extracted
    /// from it: the same draws from the same generator state, the same
    /// bits.
    #[test]
    fn batch_rows_sample_and_average_as_their_params() {
        let mut rng = Rng::new(4);
        for k in [1, 3, 8, 11] {
            let rows = 5;
            let mut array = |lo: f64, hi: f64| {
                Array::from_vec(rows, k, (0..rows * k).map(|_| rng.range(lo, hi)).collect())
            };
            let batch = GmmBatch {
                means: array(-3.0, 3.0),
                log_stds: array(LOG_STD_MIN, LOG_STD_MAX),
                logits: array(-20.0, 20.0),
            };
            for r in 0..rows {
                let p = batch.row(r);
                // The weights are libm's `exp(l - lse)`, element by element.
                let logits = &batch.logits.data[r * k..(r + 1) * k];
                let lse = log_sum_exp(logits);
                for (w, &l) in p.weights.iter().zip(logits) {
                    assert_eq!(w.to_bits(), (l - lse).exp().to_bits(), "k {k} row {r}");
                }
                assert_eq!(batch.mean(r).to_bits(), p.mean().to_bits(), "k {k} row {r}");
                let (mut a, mut b) = (Rng::new(r as u64), Rng::new(r as u64));
                for _ in 0..50 {
                    let (x, y) = (batch.sample(r, &mut a), p.sample(&mut b));
                    assert_eq!(x.to_bits(), y.to_bits(), "k {k} row {r}");
                }
            }
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
