//! Adam optimiser (Kingma & Ba 2015) with global-norm gradient clipping.

use crate::params::ParamStore;

/// Adam state (the per-tensor moments live in the [`ParamStore`]).
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    /// Clip gradients to this global L2 norm (0 disables clipping).
    pub clip_norm: f64,
    t: u64,
}

impl Adam {
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: 40.0,
            t: 0,
        }
    }

    /// Apply one update from the gradients accumulated in `store`, then zero
    /// them. Returns the (pre-clip) global gradient norm.
    pub fn step(&mut self, store: &mut ParamStore) -> f64 {
        self.t += 1;
        let mut sq = 0.0;
        for p in &store.params {
            sq += p.grad.data.iter().map(|g| g * g).sum::<f64>();
        }
        let norm = sq.sqrt();
        let scale = if self.clip_norm > 0.0 && norm > self.clip_norm {
            self.clip_norm / norm
        } else {
            1.0
        };
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        for p in &mut store.params {
            // Zipped slices, no indexing: without a bounds check per access
            // the chain (sqrt and both divisions included) vectorises, and
            // each lane is the scalar expression, IEEE-exact.
            let moments = p.m.data.iter_mut().zip(&mut p.v.data);
            for ((w, &g), (m, v)) in p.value.data.iter_mut().zip(&p.grad.data).zip(moments) {
                let g = g * scale;
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
        store.zero_grads();
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::graph::Graph;

    #[test]
    fn adam_minimises_a_quadratic() {
        // Minimise mean((w*x - y)^2) for scalar w: optimum w = 2.
        let mut store = ParamStore::new();
        let w = store.constant("w", 1, 1, -1.0);
        let mut opt = Adam::new(0.05);
        for _ in 0..500 {
            let mut g = Graph::new();
            let x = g.input(Array::row(vec![1.0]));
            let wa = g.param(&store, w);
            let pred = g.matmul(x, wa);
            let y = g.input(Array::row(vec![2.0]));
            let diff = g.sub(pred, y);
            let sq = g.mul(diff, diff);
            let loss = g.mean(sq);
            g.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!((store.get(w).data[0] - 2.0).abs() < 1e-3);
    }

    /// The update as it was written before the zipped walk, kept as its
    /// oracle: four bounds-checked indexings per element.
    fn indexed_step(opt: &mut Adam, store: &mut ParamStore) -> f64 {
        opt.t += 1;
        let mut sq = 0.0;
        for p in &store.params {
            sq += p.grad.data.iter().map(|g| g * g).sum::<f64>();
        }
        let norm = sq.sqrt();
        let scale = if opt.clip_norm > 0.0 && norm > opt.clip_norm {
            opt.clip_norm / norm
        } else {
            1.0
        };
        let bc1 = 1.0 - opt.beta1.powi(opt.t as i32);
        let bc2 = 1.0 - opt.beta2.powi(opt.t as i32);
        for p in &mut store.params {
            for i in 0..p.value.data.len() {
                let g = p.grad.data[i] * scale;
                p.m.data[i] = opt.beta1 * p.m.data[i] + (1.0 - opt.beta1) * g;
                p.v.data[i] = opt.beta2 * p.v.data[i] + (1.0 - opt.beta2) * g * g;
                let mhat = p.m.data[i] / bc1;
                let vhat = p.v.data[i] / bc2;
                p.value.data[i] -= opt.lr * mhat / (vhat.sqrt() + opt.eps);
            }
        }
        store.zero_grads();
        norm
    }

    #[test]
    fn step_is_the_indexed_loop_bit_for_bit() {
        use sage_util::prop::{forall, PropConfig};
        forall(
            "Adam::step == indexed loop",
            PropConfig::new(40, 0xADA),
            |rng| {
                // Lengths on both sides of every vector width, and a clip
                // that is off, never reached, or reached.
                let shapes: Vec<(usize, usize)> = (0..1 + rng.below(4))
                    .map(|_| (1 + rng.below(9), 1 + rng.below(13)))
                    .collect();
                let clip_norm = [0.0, 1e9, 0.5][rng.below(3)];
                let mut stores = [(); 2].map(|_| ParamStore::new());
                let seed = rng.next_u64();
                for store in &mut stores {
                    let mut init = sage_util::Rng::new(seed);
                    for (i, &(r, c)) in shapes.iter().enumerate() {
                        store.glorot(&format!("p{i}"), r, c, &mut init);
                    }
                }
                let mut opts = [(); 2].map(|_| Adam {
                    clip_norm,
                    ..Adam::new(3e-4)
                });
                for step in 0..4 {
                    let grad_seed = rng.next_u64();
                    for store in &mut stores {
                        let mut grads = sage_util::Rng::new(grad_seed);
                        for g in store.params.iter_mut().flat_map(|p| &mut p.grad.data) {
                            // Exact zeros too: a moment that stays `0.0`.
                            *g = [0.0, grads.range(-2.0, 2.0)][grads.below(4).min(1)];
                        }
                    }
                    let want = indexed_step(&mut opts[0], &mut stores[0]);
                    let got = opts[1].step(&mut stores[1]);
                    let bits = |s: &ParamStore| -> Vec<u64> {
                        (s.params.iter())
                            .flat_map(|p| [&p.value, &p.m, &p.v, &p.grad])
                            .flat_map(|a| a.iter().map(|x| x.to_bits()))
                            .collect()
                    };
                    if want.to_bits() != got.to_bits() || bits(&stores[0]) != bits(&stores[1]) {
                        return Err(format!("step {step}, clip {clip_norm}, {shapes:?}"));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn clipping_bounds_step() {
        let mut store = ParamStore::new();
        let w = store.constant("w", 1, 1, 0.0);
        store.params[w].grad.data[0] = 1e9;
        let mut opt = Adam::new(0.1);
        opt.clip_norm = 1.0;
        let norm = opt.step(&mut store);
        assert!(norm > 1e8);
        // With clipping the effective gradient was 1.0; Adam's first step is
        // lr-scaled regardless, but moments must be finite and small.
        assert!(store.params[w].m.data[0].abs() <= 0.11);
    }
}
