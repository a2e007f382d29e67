//! Network building blocks assembled from graph ops: fully connected,
//! LayerNorm, GRU cell, and the pre-norm residual block of Sage's policy
//! network (Fig. 6).

use crate::array::Array;
use crate::graph::{Graph, NodeId};
use crate::infer;
use crate::params::{ParamId, ParamStore};
use sage_util::Rng;

/// Fully connected layer y = x W + b.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        Linear {
            w: store.glorot(&format!("{name}.w"), in_dim, out_dim, rng),
            b: store.zeros(&format!("{name}.b"), 1, out_dim),
            in_dim,
            out_dim,
        }
    }

    pub fn fwd(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let h = g.matmul(x, w);
        g.add_row(h, b)
    }

    /// Graph-free forward, bit-identical to [`Linear::fwd`] (see
    /// [`crate::infer`]).
    pub fn infer(&self, store: &ParamStore, x: &Array) -> Array {
        let h = infer::matmul(x, store.get(self.w));
        infer::add_row(h, store.get(self.b))
    }
}

/// Learned layer normalisation.
#[derive(Debug, Clone, Copy)]
pub struct LayerNorm {
    pub gain: ParamId,
    pub bias: ParamId,
}

impl LayerNorm {
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        LayerNorm {
            gain: store.constant(&format!("{name}.gain"), 1, dim, 1.0),
            bias: store.zeros(&format!("{name}.bias"), 1, dim),
        }
    }

    pub fn fwd(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let gain = g.param(store, self.gain);
        let bias = g.param(store, self.bias);
        g.layer_norm(x, gain, bias)
    }

    /// Graph-free forward, bit-identical to [`LayerNorm::fwd`].
    pub fn infer(&self, store: &ParamStore, x: &Array) -> Array {
        infer::layer_norm(x, store.get(self.gain), store.get(self.bias))
    }
}

/// Gated recurrent unit cell (Cho et al. 2014).
#[derive(Debug, Clone, Copy)]
pub struct GruCell {
    pub wz: ParamId,
    pub uz: ParamId,
    pub bz: ParamId,
    pub wr: ParamId,
    pub ur: ParamId,
    pub br: ParamId,
    pub wh: ParamId,
    pub uh: ParamId,
    pub bh: ParamId,
    pub input_dim: usize,
    pub hidden_dim: usize,
}

impl GruCell {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        GruCell {
            wz: store.glorot(&format!("{name}.wz"), input_dim, hidden_dim, rng),
            uz: store.glorot(&format!("{name}.uz"), hidden_dim, hidden_dim, rng),
            bz: store.zeros(&format!("{name}.bz"), 1, hidden_dim),
            wr: store.glorot(&format!("{name}.wr"), input_dim, hidden_dim, rng),
            ur: store.glorot(&format!("{name}.ur"), hidden_dim, hidden_dim, rng),
            br: store.zeros(&format!("{name}.br"), 1, hidden_dim),
            wh: store.glorot(&format!("{name}.wh"), input_dim, hidden_dim, rng),
            uh: store.glorot(&format!("{name}.uh"), hidden_dim, hidden_dim, rng),
            bh: store.zeros(&format!("{name}.bh"), 1, hidden_dim),
            input_dim,
            hidden_dim,
        }
    }

    /// One recurrence step: returns h'.
    pub fn step(&self, g: &mut Graph, store: &ParamStore, x: NodeId, h: NodeId) -> NodeId {
        let wz = g.param(store, self.wz);
        let uz = g.param(store, self.uz);
        let bz = g.param(store, self.bz);
        let xz = g.matmul(x, wz);
        let hz = g.matmul(h, uz);
        let z_in = g.add(xz, hz);
        let z_in = g.add_row(z_in, bz);
        let z = g.sigmoid(z_in);

        let wr = g.param(store, self.wr);
        let ur = g.param(store, self.ur);
        let br = g.param(store, self.br);
        let xr = g.matmul(x, wr);
        let hr = g.matmul(h, ur);
        let r_in = g.add(xr, hr);
        let r_in = g.add_row(r_in, br);
        let r = g.sigmoid(r_in);

        let wh = g.param(store, self.wh);
        let uh = g.param(store, self.uh);
        let bh = g.param(store, self.bh);
        let xh = g.matmul(x, wh);
        let rh = g.mul(r, h);
        let hh = g.matmul(rh, uh);
        let c_in = g.add(xh, hh);
        let c_in = g.add_row(c_in, bh);
        let c = g.tanh(c_in);

        // h' = (1 - z) * h + z * c
        let neg_z = g.scale(z, -1.0);
        let one_minus_z = g.add_const(neg_z, 1.0);
        let keep = g.mul(one_minus_z, h);
        let new = g.mul(z, c);
        g.add(keep, new)
    }

    /// Graph-free recurrence step, bit-identical to [`GruCell::step`]:
    /// every intermediate is computed in the same op order so batched
    /// serving reproduces the training-time forward exactly.
    pub fn infer_step(&self, store: &ParamStore, x: &Array, h: &Array) -> Array {
        let xz = infer::matmul(x, store.get(self.wz));
        let hz = infer::matmul(h, store.get(self.uz));
        let z_in = infer::add_row(infer::add(&xz, &hz), store.get(self.bz));
        let z = infer::sigmoid(&z_in);

        let xr = infer::matmul(x, store.get(self.wr));
        let hr = infer::matmul(h, store.get(self.ur));
        let r_in = infer::add_row(infer::add(&xr, &hr), store.get(self.br));
        let r = infer::sigmoid(&r_in);

        let xh = infer::matmul(x, store.get(self.wh));
        let rh = infer::mul(&r, h);
        let hh = infer::matmul(&rh, store.get(self.uh));
        let c_in = infer::add_row(infer::add(&xh, &hh), store.get(self.bh));
        let c = infer::tanh(&c_in);

        let one_minus_z = infer::add_const(&infer::scale(&z, -1.0), 1.0);
        let keep = infer::mul(&one_minus_z, h);
        let new = infer::mul(&z, &c);
        infer::add(&keep, &new)
    }
}

/// Pre-norm residual block: y = x + FC2(lrelu(LN(FC1(x)))).
#[derive(Debug, Clone, Copy)]
pub struct ResidualBlock {
    pub ln: LayerNorm,
    pub fc1: Linear,
    pub fc2: Linear,
}

impl ResidualBlock {
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, rng: &mut Rng) -> Self {
        ResidualBlock {
            ln: LayerNorm::new(store, &format!("{name}.ln"), dim),
            fc1: Linear::new(store, &format!("{name}.fc1"), dim, dim, rng),
            fc2: Linear::new(store, &format!("{name}.fc2"), dim, dim, rng),
        }
    }

    pub fn fwd(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let n = self.ln.fwd(g, store, x);
        let h = self.fc1.fwd(g, store, n);
        let h = g.lrelu(h, 0.01);
        let h = self.fc2.fwd(g, store, h);
        g.add(x, h)
    }

    /// Graph-free forward, bit-identical to [`ResidualBlock::fwd`].
    pub fn infer(&self, store: &ParamStore, x: &Array) -> Array {
        let n = self.ln.infer(store, x);
        let h = self.fc1.infer(store, &n);
        let h = infer::lrelu(&h, 0.01);
        let h = self.fc2.infer(store, &h);
        infer::add(x, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;

    #[test]
    fn linear_shapes() {
        let mut rng = Rng::new(1);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, "l", 4, 7, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Array::zeros(3, 4));
        let y = l.fwd(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (3, 7));
    }

    #[test]
    fn gru_step_shapes_and_bounds() {
        let mut rng = Rng::new(2);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 5, 8, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Array::from_vec(2, 5, vec![0.5; 10]));
        let h = g.input(Array::zeros(2, 8));
        let h1 = cell.step(&mut g, &store, x, h);
        assert_eq!(g.value(h1).shape(), (2, 8));
        // GRU output is a convex combination of h (0) and tanh (|.|<1).
        assert!(g.value(h1).iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn gru_retains_state_with_zero_update_gate() {
        let mut rng = Rng::new(3);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 2, 4, &mut rng);
        // Force z ~ 0 via a hugely negative update bias: h' ~ h.
        store.params[cell.bz]
            .value
            .data
            .iter_mut()
            .for_each(|b| *b = -50.0);
        let mut g = Graph::new();
        let x = g.input(Array::from_vec(1, 2, vec![1.0, -1.0]));
        let h0 = g.input(Array::from_vec(1, 4, vec![0.3, -0.2, 0.1, 0.9]));
        let h1 = cell.step(&mut g, &store, x, h0);
        for (a, b) in g.value(h1).iter().zip(g.value(h0).iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn residual_block_is_identity_plus_perturbation() {
        let mut rng = Rng::new(4);
        let mut store = ParamStore::new();
        let rb = ResidualBlock::new(&mut store, "rb", 6, &mut rng);
        // Zero the second FC: output must equal input exactly.
        store.params[rb.fc2.w]
            .value
            .data
            .iter_mut()
            .for_each(|w| *w = 0.0);
        let mut g = Graph::new();
        let x = g.input(Array::from_vec(2, 6, vec![0.1; 12]));
        let y = rb.fwd(&mut g, &store, x);
        for (a, b) in g.value(y).iter().zip(g.value(x).iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn infer_paths_bit_identical_to_graph_forward() {
        use sage_util::prop::{forall, PropConfig};
        forall(
            "layer infer == graph fwd",
            PropConfig::new(40, 0xF0),
            |rng| {
                let b = 1 + (rng.next_u64() % 9) as usize;
                let din = 1 + (rng.next_u64() % 12) as usize;
                let dh = 1 + (rng.next_u64() % 12) as usize;
                let mut store = ParamStore::new();
                let lin = Linear::new(&mut store, "l", din, dh, rng);
                let cell = GruCell::new(&mut store, "g", din, dh, rng);
                let rb = ResidualBlock::new(&mut store, "r", din, rng);
                let x =
                    Array::from_vec(b, din, (0..b * din).map(|_| rng.range(-3.0, 3.0)).collect());
                let h = Array::from_vec(b, dh, (0..b * dh).map(|_| rng.range(-1.0, 1.0)).collect());

                let mut g = Graph::new();
                let xn = g.input(x.clone());
                let hn = g.input(h.clone());
                let want_lin = lin.fwd(&mut g, &store, xn);
                let want_gru = cell.step(&mut g, &store, xn, hn);
                let want_rb = rb.fwd(&mut g, &store, xn);

                let checks = [
                    (g.value(want_lin), lin.infer(&store, &x)),
                    (g.value(want_gru), cell.infer_step(&store, &x, &h)),
                    (g.value(want_rb), rb.infer(&store, &x)),
                ];
                for (want, got) in checks {
                    for (w, o) in want.iter().zip(got.iter()) {
                        if w.to_bits() != o.to_bits() {
                            return Err(format!("{w} != {o} (b={b}, din={din}, dh={dh})"));
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn gru_bptt_gradients_flow() {
        // Unroll 3 steps and check some gradient reaches the input weights.
        let mut rng = Rng::new(5);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 3, 4, &mut rng);
        let head = Linear::new(&mut store, "head", 4, 1, &mut rng);
        let mut g = Graph::new();
        let mut h = g.input(Array::zeros(2, 4));
        for t in 0..3 {
            let x = g.input(Array::from_vec(2, 3, vec![0.1 * (t as f64 + 1.0); 6]));
            h = cell.step(&mut g, &store, x, h);
        }
        let y = head.fwd(&mut g, &store, h);
        let loss = g.mean(y);
        g.backward(loss, &mut store);
        let wz_grad: f64 = store.params[cell.wz]
            .grad
            .data
            .iter()
            .map(|x| x.abs())
            .sum();
        assert!(wz_grad > 0.0, "gradient must flow through time");
    }
}
