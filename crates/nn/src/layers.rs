//! Network building blocks assembled from graph ops: fully connected,
//! LayerNorm, GRU cell, and the pre-norm residual block of Sage's policy
//! network (Fig. 6).

use crate::array::Array;
use crate::graph::{Graph, NodeId};
use crate::infer::{self, Scratch};
use crate::params::{ParamId, ParamStore};
use sage_util::Rng;

/// Fully connected layer y = x W + b.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
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
        }
    }

    pub fn fwd(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        g.affine(x, w, b)
    }

    /// Graph-free forward built in `buf`, `f` applied to each output
    /// element in the pass that adds the bias: the bits of [`Linear::fwd`]
    /// followed by the graph op `f` stands for (see [`crate::infer`]).
    pub fn infer_into(
        &self,
        buf: Vec<f64>,
        store: &ParamStore,
        x: &Array,
        f: impl Fn(f64) -> f64,
    ) -> Array {
        infer::affine_into(buf, x, store.get(self.w), store.get(self.b), f)
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

    /// Graph-free forward built in `buf`, bit-identical to
    /// [`LayerNorm::fwd`], `f` applied to each element as it is written
    /// (see [`Linear::infer_into`]).
    pub fn infer_into(
        &self,
        buf: Vec<f64>,
        store: &ParamStore,
        x: &Array,
        f: impl Fn(f64) -> f64,
    ) -> Array {
        let (gain, bias) = (store.get(self.gain), store.get(self.bias));
        infer::layer_norm_into(buf, x, gain, bias, f)
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

    /// The nine parameters in the order of [`infer::gru_gates_into`].
    fn ids(&self) -> [ParamId; 9] {
        [
            self.wz, self.uz, self.bz, self.wr, self.ur, self.br, self.wh, self.uh, self.bh,
        ]
    }

    /// One recurrence step: returns h', one [`Graph::gru`] node.
    pub fn step(&self, g: &mut Graph, store: &ParamStore, x: NodeId, h: NodeId) -> NodeId {
        let w = self.ids().map(|id| g.param(store, id));
        g.gru(x, h, w)
    }

    /// Graph-free recurrence step on buffers from `scratch` (see
    /// [`Scratch`]), bit-identical to [`GruCell::step`]: the same gate
    /// passes ([`infer::gru_gates_into`]), the new state blended in the
    /// candidate's buffer.
    pub fn infer_step_into(
        &self,
        store: &ParamStore,
        x: &Array,
        h: &Array,
        scratch: &mut Scratch,
    ) -> Array {
        let w = self.ids().map(|id| store.get(id));
        let bufs = [(); 4].map(|_| scratch.take());
        let mut hu = scratch.take();
        let [z, r, rh, mut c] = infer::gru_gates_into(bufs, &mut hu, x, h, w);
        for ((c, &z), &h) in c.data.iter_mut().zip(&z.data).zip(&h.data) {
            *c = infer::gru_blend(z, h, *c);
        }
        for buf in [z.data, r.data, rh.data, hu] {
            scratch.give(buf);
        }
        c
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

    /// Graph-free forward on buffers from `scratch`, bit-identical to
    /// [`ResidualBlock::fwd`]; the skip connection is added in the pass that
    /// adds FC2's bias.
    pub fn infer_into(&self, store: &ParamStore, x: &Array, scratch: &mut Scratch) -> Array {
        let n = self.ln.infer_into(scratch.take(), store, x, |v| v);
        let h = (self.fc1).infer_into(scratch.take(), store, &n, |v| infer::leaky(v, 0.01));
        let mut y = infer::matmul_into(scratch.take(), &h, store.get(self.fc2.w));
        let bias = &store.get(self.fc2.b).data;
        infer::zip_rows(&mut y, x, bias, |v, x, b| x + (v + b));
        scratch.give(n.data);
        scratch.give(h.data);
        y
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
                    (
                        g.value(want_lin),
                        lin.infer_into(Vec::new(), &store, &x, |v| v),
                    ),
                    (
                        g.value(want_gru),
                        cell.infer_step_into(&store, &x, &h, &mut Scratch::default()),
                    ),
                    (
                        g.value(want_rb),
                        rb.infer_into(&store, &x, &mut Scratch::default()),
                    ),
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

    /// The GRU step as 21 graph nodes — the composition [`Graph::gru`]
    /// replaces, kept as its oracle.
    fn step_composed(
        cell: &GruCell,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        h: NodeId,
    ) -> NodeId {
        let [wz, uz, bz, wr, ur, br, wh, uh, bh] = cell.ids().map(|id| g.param(store, id));
        let xz = g.matmul(x, wz);
        let hz = g.matmul(h, uz);
        let z_in = g.add(xz, hz);
        let z_in = g.add_row(z_in, bz);
        let z = g.sigmoid(z_in);
        let xr = g.matmul(x, wr);
        let hr = g.matmul(h, ur);
        let r_in = g.add(xr, hr);
        let r_in = g.add_row(r_in, br);
        let r = g.sigmoid(r_in);
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

    /// The fused node is its composition: over random shapes, unrolls of
    /// one to three steps, zero rows, all-zero rows, `±0`/`±inf`/`NaN`
    /// entries and inputs with and without a gradient, the new states, every
    /// parameter's gradient and the gradients of `x` and `h` are equal bit
    /// for bit (a NaN as a NaN).
    #[test]
    fn the_fused_gru_node_is_its_21_node_composition_bit_for_bit() {
        use sage_util::prop::{forall, PropConfig};
        fn special(rng: &mut Rng) -> f64 {
            match rng.below(12) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => f64::NAN,
                _ => rng.range(-3.0, 3.0),
            }
        }
        forall(
            "fused gru == composition",
            PropConfig::new(300, 0x6AD),
            |rng| {
                let b = rng.below(6);
                let (din, dh, steps) = (1 + rng.below(11), 1 + rng.below(11), 1 + rng.below(3));
                let spiked = rng.below(3) == 0;
                // Values, one row of them zeroed when `zero_row` picks one.
                let array = |rng: &mut Rng, rows: usize, cols: usize, zero_row: bool| {
                    let mut data: Vec<f64> = (0..rows * cols)
                        .map(|_| {
                            if spiked {
                                special(rng)
                            } else {
                                rng.range(-3.0, 3.0)
                            }
                        })
                        .collect();
                    if zero_row && rows > 0 {
                        let r = rng.below(rows);
                        data[r * cols..(r + 1) * cols].fill(0.0);
                    }
                    Array::from_vec(rows, cols, data)
                };
                let mut store = ParamStore::new();
                let cell = GruCell::new(&mut store, "g", din, dh, rng);
                for p in &mut store.params {
                    p.value
                        .data
                        .iter_mut()
                        .for_each(|v| *v += rng.range(-0.5, 0.5));
                }
                // Inputs that want a gradient run through a product with a
                // parameter of their own.
                let px = store.glorot("px", din, din, rng);
                let ph = store.glorot("ph", dh, dh, rng);
                let (x_grad, h_grad) = (rng.below(2) == 0, rng.below(2) == 0);
                let xs: Vec<Array> = (0..steps).map(|t| array(rng, b, din, t == 0)).collect();
                let h0 = array(rng, b, dh, true);
                let upstream = array(rng, b, dh, false);
                let seed = rng.range(0.1, 2.0);

                type Step = fn(&GruCell, &mut Graph, &ParamStore, NodeId, NodeId) -> NodeId;
                let run = |store: &mut ParamStore, step: Step| {
                    let mut g = Graph::new();
                    let lift = |g: &mut Graph, s: &ParamStore, a: &Array, p, grad: bool| {
                        let n = g.input(a.clone());
                        if grad {
                            let p = g.param(s, p);
                            g.matmul(n, p)
                        } else {
                            n
                        }
                    };
                    let mut h = lift(&mut g, store, &h0, ph, h_grad);
                    let mut watched = vec![h];
                    for x in &xs {
                        let x = lift(&mut g, store, x, px, x_grad);
                        watched.push(x);
                        h = step(&cell, &mut g, store, x, h);
                    }
                    let up = g.input(upstream.clone());
                    let out = g.mul(h, up);
                    let node_grads = g.node_grads(out, seed);
                    store.zero_grads();
                    g.backward_rows(out, seed, 1, store);
                    // Bits, every NaN as one: Rust leaves a NaN's sign and
                    // payload unspecified.
                    let bits = |a: &Array| {
                        (a.iter().map(|&v| if v.is_nan() { f64::NAN } else { v }))
                            .map(f64::to_bits)
                            .collect::<Vec<_>>()
                    };
                    let params: Vec<_> = store.params.iter().map(|p| bits(&p.grad)).collect();
                    let inputs: Vec<_> = (watched.iter())
                        .map(|&n| node_grads[n].as_ref().map(bits))
                        .collect();
                    (bits(g.value(h)), params, inputs)
                };
                let fused = run(&mut store, |c, g, s, x, h| c.step(g, s, x, h));
                let composed = run(&mut store, step_composed);
                let shape =
                    format!("b {b}, {din}x{dh}, {steps} steps, grads x {x_grad} h {h_grad}");
                if fused.0 != composed.0 {
                    return Err(format!("values differ ({shape})"));
                }
                if fused.1 != composed.1 {
                    return Err(format!("parameter gradients differ ({shape})"));
                }
                if fused.2 != composed.2 {
                    return Err(format!("input gradients differ ({shape})"));
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
