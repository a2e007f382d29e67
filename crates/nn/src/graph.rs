//! Reverse-mode automatic differentiation over [`Array`] nodes.
//!
//! A [`Graph`] is rebuilt per forward pass (define-by-run). Each parameter it
//! uses is copied in from a [`ParamStore`] once; after `backward`, their
//! gradients are accumulated back into the store.
//!
//! Every op is row-independent, forward and backward: row `r` of a node
//! depends on row `r` of its operands only, so a graph of `[B, ·]` nodes
//! computes, row for row, the bits that `B` one-row graphs would. The one
//! place rows meet is a parameter's gradient, and there the order of the
//! sum is a contract — see [`Graph::backward_rows`].

use crate::array::Array;
use crate::infer;
use crate::params::{ParamId, ParamStore};
use std::borrow::Cow;

/// Index of a node within a [`Graph`].
pub type NodeId = usize;

enum Op {
    Leaf,
    Param(ParamId),
    MatMul(NodeId, NodeId),
    /// `x[n,d] + bias[1,d]` broadcast over rows.
    AddRow(NodeId, NodeId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f64),
    AddConst(NodeId),
    Tanh(NodeId),
    Sigmoid(NodeId),
    LRelu(NodeId, f64),
    Exp(NodeId),
    /// ln(max(x, floor)).
    Ln(NodeId, f64),
    /// Mean over all elements -> 1x1.
    Mean(NodeId),
    ConcatCols(NodeId, NodeId),
    SliceCols(NodeId, usize, usize),
    /// Row-wise layer normalisation with gain/bias [1,d].
    LayerNorm {
        x: NodeId,
        gain: NodeId,
        bias: NodeId,
        eps: f64,
    },
    /// Log-probability of a scalar action under a Gaussian mixture.
    /// means/log_stds/logits are `[n,K]`; action is a leaf `[n,1]`; out `[n,1]`.
    GmmLogProb {
        means: NodeId,
        log_stds: NodeId,
        logits: NodeId,
        action: NodeId,
    },
    /// Per-row cross-entropy of softmax(logits) against target probs `[n,A] -> [n,1]`.
    SoftmaxCE {
        logits: NodeId,
        target: NodeId,
    },
}

struct Node {
    val: Array,
    op: Op,
}

/// One op's share of a parameter's gradient, left unreduced: row `r` of the
/// op contributes `x[r]ᵀ · g[r]` — an outer product for a weight under
/// `matmul`; for a `[1,d]` bias or gain broadcast over rows there is no `x`
/// (every row's factor is 1) and the contribution is the row `g[r]` itself.
struct ParamRef {
    /// The consuming op's node (the fold order) and the parameter consumed.
    op: NodeId,
    id: ParamId,
    x: Option<NodeId>,
    g: Array,
}

/// A define-by-run computation graph.
pub struct Graph {
    nodes: Vec<Node>,
    /// The `Op::Param` node of each parameter used so far, by [`ParamId`].
    param_nodes: Vec<Option<NodeId>>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            param_nodes: Vec::new(),
        }
    }

    fn push(&mut self, val: Array, op: Op) -> NodeId {
        self.nodes.push(Node { val, op });
        self.nodes.len() - 1
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Array {
        &self.nodes[id].val
    }

    /// Non-differentiable input.
    pub fn input(&mut self, a: Array) -> NodeId {
        self.push(a, Op::Leaf)
    }

    /// Differentiable parameter. A graph holds one node per parameter, its
    /// value copied from the store by the first call; later calls return that
    /// node whatever the store holds by then, so every use in the forward
    /// pass, the transpose backward caches and the gradient refer to one
    /// value. A graph therefore reads one store. The gradient is a sum over
    /// rows in a contracted order ([`Graph::backward_rows`]), so only the ops
    /// that make that sum may consume the node: `matmul` (right operand),
    /// `add_row` (bias) and `layer_norm` (gain, bias).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        if self.param_nodes.len() <= id {
            self.param_nodes.resize(id + 1, None);
        }
        if let Some(node) = self.param_nodes[id] {
            return node;
        }
        let node = self.push(store.get(id).clone(), Op::Param(id));
        self.param_nodes[id] = Some(node);
        node
    }

    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = infer::matmul(&self.nodes[a].val, &self.nodes[b].val);
        self.push(v, Op::MatMul(a, b))
    }

    /// Broadcast-add a `[1,d]` bias row to every row of x.
    pub fn add_row(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let xv = &self.nodes[x].val;
        let bv = &self.nodes[bias].val;
        assert_eq!(bv.rows, 1);
        assert_eq!(xv.cols, bv.cols);
        let mut out = xv.clone();
        for r in 0..out.rows {
            for c in 0..out.cols {
                *out.at_mut(r, c) += bv.at(0, c);
            }
        }
        self.push(out, Op::AddRow(x, bias))
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].val.zip(&self.nodes[b].val, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].val.zip(&self.nodes[b].val, |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].val.zip(&self.nodes[b].val, |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    pub fn scale(&mut self, a: NodeId, k: f64) -> NodeId {
        let v = self.nodes[a].val.map(|x| x * k);
        self.push(v, Op::Scale(a, k))
    }

    pub fn add_const(&mut self, a: NodeId, k: f64) -> NodeId {
        let v = self.nodes[a].val.map(|x| x + k);
        self.push(v, Op::AddConst(a))
    }

    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].val.map(f64::tanh);
        self.push(v, Op::Tanh(a))
    }

    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].val.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn lrelu(&mut self, a: NodeId, slope: f64) -> NodeId {
        let v = self.nodes[a]
            .val
            .map(|x| if x >= 0.0 { x } else { slope * x });
        self.push(v, Op::LRelu(a, slope))
    }

    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].val.map(f64::exp);
        self.push(v, Op::Exp(a))
    }

    /// Natural log with a numeric floor.
    pub fn ln(&mut self, a: NodeId, floor: f64) -> NodeId {
        let v = self.nodes[a].val.map(|x| x.max(floor).ln());
        self.push(v, Op::Ln(a, floor))
    }

    /// Mean over all elements, yielding a 1x1 scalar.
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        let av = &self.nodes[a].val;
        let m = av.data.iter().sum::<f64>() / av.data.len() as f64;
        self.push(Array::scalar(m), Op::Mean(a))
    }

    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let out = infer::concat_cols(&self.nodes[a].val, &self.nodes[b].val);
        self.push(out, Op::ConcatCols(a, b))
    }

    /// Columns `[from, to)` of a node.
    pub fn slice_cols(&mut self, a: NodeId, from: usize, to: usize) -> NodeId {
        let av = &self.nodes[a].val;
        assert!(from < to && to <= av.cols);
        let mut out = Array::zeros(av.rows, to - from);
        for r in 0..av.rows {
            for c in from..to {
                *out.at_mut(r, c - from) = av.at(r, c);
            }
        }
        self.push(out, Op::SliceCols(a, from, to))
    }

    /// Row-wise layer normalisation with learned gain and bias (`[1,d]`).
    pub fn layer_norm(&mut self, x: NodeId, gain: NodeId, bias: NodeId) -> NodeId {
        let eps = 1e-5;
        let xv = &self.nodes[x].val;
        let g = &self.nodes[gain].val;
        let b = &self.nodes[bias].val;
        let d = xv.cols;
        let mut out = Array::zeros(xv.rows, d);
        for r in 0..xv.rows {
            let row = &xv.data[r * d..(r + 1) * d];
            let mu = row.iter().sum::<f64>() / d as f64;
            let var = row.iter().map(|&x| (x - mu) * (x - mu)).sum::<f64>() / d as f64;
            let sd = (var + eps).sqrt();
            for (c, &x) in row.iter().enumerate() {
                let xhat = (x - mu) / sd;
                *out.at_mut(r, c) = g.at(0, c) * xhat + b.at(0, c);
            }
        }
        self.push(out, Op::LayerNorm { x, gain, bias, eps })
    }

    /// Log-probability of scalar actions under a Gaussian mixture whose
    /// parameters are per-row: `means`/`log_stds`/`logits` are `[n,K]`;
    /// `action` is `[n,1]`. Returns `[n,1]`.
    pub fn gmm_log_prob(
        &mut self,
        means: NodeId,
        log_stds: NodeId,
        logits: NodeId,
        action: NodeId,
    ) -> NodeId {
        let (mv, sv, wv, av) = (
            &self.nodes[means].val,
            &self.nodes[log_stds].val,
            &self.nodes[logits].val,
            &self.nodes[action].val,
        );
        let (n, k) = mv.shape();
        assert_eq!(sv.shape(), (n, k));
        assert_eq!(wv.shape(), (n, k));
        assert_eq!(av.shape(), (n, 1));
        let mut out = Array::zeros(n, 1);
        for r in 0..n {
            out.data[r] = gmm_row_logp(
                &mv.data[r * k..(r + 1) * k],
                &sv.data[r * k..(r + 1) * k],
                &wv.data[r * k..(r + 1) * k],
                av.data[r],
            )
            .0;
        }
        self.push(
            out,
            Op::GmmLogProb {
                means,
                log_stds,
                logits,
                action,
            },
        )
    }

    /// Cross-entropy per row of softmax(logits) against target probabilities.
    pub fn softmax_cross_entropy(&mut self, logits: NodeId, target: NodeId) -> NodeId {
        let (lv, tv) = (&self.nodes[logits].val, &self.nodes[target].val);
        assert_eq!(lv.shape(), tv.shape());
        let (n, a) = lv.shape();
        let mut out = Array::zeros(n, 1);
        for r in 0..n {
            let row = &lv.data[r * a..(r + 1) * a];
            let lse = log_sum_exp(row);
            let mut ce = 0.0;
            for (c, &l) in row.iter().enumerate() {
                let logp = l - lse;
                ce -= tv.at(r, c) * logp;
            }
            out.data[r] = ce;
        }
        self.push(out, Op::SoftmaxCE { logits, target })
    }

    /// Run backpropagation from `loss` (must be 1x1) and accumulate parameter
    /// gradients into `store`: [`Graph::backward_rows`] with the whole graph
    /// as one sample.
    pub fn backward(&self, loss: NodeId, store: &mut ParamStore) {
        assert_eq!(self.nodes[loss].val.shape(), (1, 1), "loss must be scalar");
        self.backward_rows(loss, 1.0, 1, store);
    }

    /// Backpropagate from `out` with an upstream gradient of `seed` on each
    /// of its elements (the loss is `seed · Σ out`), over a graph whose
    /// nodes hold the rows of `samples` independent samples — sample `b` owns
    /// rows `[b·n/samples, (b+1)·n/samples)` of every `n`-row node — and
    /// accumulate the parameter gradients into `store`.
    ///
    /// **The reduction order is the contract.** Each parameter's gradient is
    /// a left fold from `+0.0`, over samples ascending and, within a sample,
    /// over the ops that consumed the parameter in node order, of that
    /// sample's partial sum for that op: its rows' contributions
    /// ([`ParamRef`]) folded left from `+0.0` in row order, the multiply and
    /// the add separate (no FMA). These are the bits
    /// that `samples` graphs of one sample each produce when their
    /// [`Graph::param_grads`] pairs are added in sample order, and what the
    /// fixed-seed training goldens pin. The fold is then added to the store
    /// once; on zeroed gradients that leaves it unchanged.
    pub fn backward_rows(&self, out: NodeId, seed: f64, samples: usize, store: &mut ParamStore) {
        let refs = self.param_refs(out, seed);
        let mut by_param: Vec<Vec<&ParamRef>> = vec![Vec::new(); store.params.len()];
        for r in &refs {
            by_param[r.id].push(r);
        }
        for (p, refs) in store.params.iter_mut().zip(&by_param) {
            if !refs.is_empty() {
                p.grad.add_assign(&self.reduce(refs, samples));
            }
        }
    }

    /// Parameter gradients of `loss` (must be 1x1) as `(id, grad)` pairs in
    /// the node order of the consuming ops, without touching a store. A
    /// parameter consumed by several ops (e.g. shared GRU weights across an
    /// unroll) appears once per op; adding the pairs in order reproduces
    /// exactly what [`Graph::backward`] accumulates into zeroed gradients.
    /// This is the one-sample-per-graph decomposition that
    /// [`Graph::backward_rows`] promises to match; the trainer's oracle test
    /// holds it to that.
    pub fn param_grads(&self, loss: NodeId) -> Vec<(ParamId, Array)> {
        assert_eq!(self.nodes[loss].val.shape(), (1, 1), "loss must be scalar");
        self.param_refs(loss, 1.0)
            .iter()
            .map(|r| (r.id, self.reduce(&[r], 1)))
            .collect()
    }

    /// The fold of [`Graph::backward_rows`] for one parameter. `Xᵀ·G` over
    /// stacked rows is that fold when the stacking order is the fold order:
    /// [`infer::matmul_tn`] (it reads `X` by stride; no transposed copy) keeps
    /// the inner index sequential from `+0.0` with a separate multiply and
    /// add, and the factor it skips (`x == 0.0`) is a contribution of `±0.0`,
    /// which moves no sum that started at `+0.0`.
    fn reduce(&self, refs: &[&ParamRef], samples: usize) -> Array {
        let xs: Vec<Cow<Array>> = refs
            .iter()
            .map(|r| match r.x {
                Some(x) => Cow::Borrowed(&self.nodes[x].val),
                None => Cow::Owned(Array::from_vec(r.g.rows, 1, vec![1.0; r.g.rows])),
            })
            .collect();
        let (din, dout) = (xs[0].cols, refs[0].g.cols);
        // Sample `b`'s rows of an op's `x` or `g`.
        fn rows_of(a: &Array, b: usize, samples: usize) -> &[f64] {
            assert_eq!(a.rows % samples, 0, "rows must split evenly by sample");
            let n = a.rows / samples * a.cols;
            &a.data[b * n..(b + 1) * n]
        }
        let xtg = |x: Vec<f64>, g: Vec<f64>| {
            let n = g.len() / dout;
            infer::matmul_tn(&Array::from_vec(n, din, x), &Array::from_vec(n, dout, g))
        };
        // One row per sample and op: each partial sum is its one contribution,
        // so the two-level fold is flat and one product over the rows stacked
        // in (sample, op) order makes it.
        if refs.iter().all(|r| r.g.rows == samples) {
            let (mut x_rows, mut g_rows) = (Vec::new(), Vec::new());
            for b in 0..samples {
                for (x, r) in xs.iter().zip(refs) {
                    x_rows.extend_from_slice(rows_of(x, b, samples));
                    g_rows.extend_from_slice(rows_of(&r.g, b, samples));
                }
            }
            return xtg(x_rows, g_rows);
        }
        let mut acc = Array::zeros(din, dout);
        for b in 0..samples {
            for (x, r) in xs.iter().zip(refs) {
                let (x, g) = (rows_of(x, b, samples), rows_of(&r.g, b, samples));
                acc.add_assign(&xtg(x.to_vec(), g.to_vec()));
            }
        }
        acc
    }

    /// Backpropagate from `out` (every element seeded with `seed`) and return
    /// the unreduced parameter contributions, ordered by consuming op.
    fn param_refs(&self, out: NodeId, seed: f64) -> Vec<ParamRef> {
        let mut grads: Vec<Option<Array>> = vec![None; self.nodes.len()];
        grads[out] = Some(self.nodes[out].val.map(|_| seed));
        // A weight shared across an unroll is transposed once, not per use:
        // per node, how many `matmul`s have it as right operand and, from the
        // first of them the sweep meets to the last, its transpose.
        let mut transposed: Vec<(usize, Option<Array>)> = vec![(0, None); self.nodes.len()];
        for node in &self.nodes[..=out] {
            if let Op::MatMul(_, b) = node.op {
                transposed[b].0 += 1;
            }
        }
        let mut refs = Vec::new();
        for i in (0..=out).rev() {
            if let Some(g) = grads[i].take() {
                self.backprop_node(i, g, &mut grads, &mut transposed, &mut refs);
            }
        }
        refs.sort_by_key(|r| r.op);
        refs
    }

    fn as_param(&self, node: NodeId) -> Option<ParamId> {
        match self.nodes[node].op {
            Op::Param(id) => Some(id),
            _ => None,
        }
    }

    fn accumulate(grads: &mut [Option<Array>], id: NodeId, g: Array) {
        match &mut grads[id] {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Gradient rows `g` of a `[1,d]` operand broadcast over rows: left to
    /// the ordered reduction when the operand is a parameter, summed over
    /// rows here otherwise.
    fn broadcast_grad(
        &self,
        op: NodeId,
        node: NodeId,
        g: Array,
        grads: &mut [Option<Array>],
        refs: &mut Vec<ParamRef>,
    ) {
        if let Some(id) = self.as_param(node) {
            let x = None;
            refs.push(ParamRef { op, id, x, g });
            return;
        }
        let mut sum = Array::zeros(1, g.cols);
        for r in 0..g.rows {
            for c in 0..g.cols {
                sum.data[c] += g.at(r, c);
            }
        }
        Self::accumulate(grads, node, sum);
    }

    fn backprop_node(
        &self,
        i: NodeId,
        g: Array,
        grads: &mut [Option<Array>],
        transposed: &mut [(usize, Option<Array>)],
        refs: &mut Vec<ParamRef>,
    ) {
        match &self.nodes[i].op {
            Op::Leaf => {}
            Op::Param(_) => unreachable!(
                "a parameter's gradient is a row reduction: only matmul (right operand), \
                 add_row (bias) and layer_norm (gain, bias) may consume a Param node"
            ),
            Op::MatMul(a, b) => {
                let (uses, bt) = &mut transposed[*b];
                let da = infer::matmul(&g, bt.get_or_insert_with(|| self.nodes[*b].val.t()));
                Self::accumulate(grads, *a, da);
                *uses -= 1;
                if *uses == 0 {
                    *bt = None;
                }
                if let Some(id) = self.as_param(*b) {
                    let (op, x) = (i, Some(*a));
                    refs.push(ParamRef { op, id, x, g });
                } else {
                    let db = infer::matmul_tn(&self.nodes[*a].val, &g);
                    Self::accumulate(grads, *b, db);
                }
            }
            Op::AddRow(x, bias) => {
                self.broadcast_grad(i, *bias, g.clone(), grads, refs);
                Self::accumulate(grads, *x, g);
            }
            Op::Add(a, b) => {
                Self::accumulate(grads, *a, g.clone());
                Self::accumulate(grads, *b, g);
            }
            Op::Sub(a, b) => {
                let neg = g.map(|x| -x);
                Self::accumulate(grads, *a, g);
                Self::accumulate(grads, *b, neg);
            }
            Op::Mul(a, b) => {
                let da = g.zip(&self.nodes[*b].val, |gg, bb| gg * bb);
                let db = g.zip(&self.nodes[*a].val, |gg, aa| gg * aa);
                Self::accumulate(grads, *a, da);
                Self::accumulate(grads, *b, db);
            }
            Op::Scale(a, k) => Self::accumulate(grads, *a, g.map(|x| x * k)),
            Op::AddConst(a) => Self::accumulate(grads, *a, g),
            Op::Tanh(a) => {
                let y = &self.nodes[i].val;
                Self::accumulate(grads, *a, g.zip(y, |gg, yy| gg * (1.0 - yy * yy)));
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[i].val;
                Self::accumulate(grads, *a, g.zip(y, |gg, yy| gg * yy * (1.0 - yy)));
            }
            Op::LRelu(a, slope) => {
                let x = &self.nodes[*a].val;
                Self::accumulate(
                    grads,
                    *a,
                    g.zip(x, |gg, xx| if xx >= 0.0 { gg } else { gg * slope }),
                );
            }
            Op::Exp(a) => {
                let y = &self.nodes[i].val;
                Self::accumulate(grads, *a, g.zip(y, |gg, yy| gg * yy));
            }
            Op::Ln(a, floor) => {
                let x = &self.nodes[*a].val;
                Self::accumulate(
                    grads,
                    *a,
                    g.zip(x, |gg, xx| if xx > *floor { gg / xx } else { 0.0 }),
                );
            }
            Op::Mean(a) => {
                let n = self.nodes[*a].val.data.len() as f64;
                let scale = g.data[0] / n;
                let da = self.nodes[*a].val.map(|_| scale);
                Self::accumulate(grads, *a, da);
            }
            Op::ConcatCols(a, b) => {
                let ac = self.nodes[*a].val.cols;
                let bc = self.nodes[*b].val.cols;
                let mut da = Array::zeros(g.rows, ac);
                let mut db = Array::zeros(g.rows, bc);
                for r in 0..g.rows {
                    for c in 0..ac {
                        *da.at_mut(r, c) = g.at(r, c);
                    }
                    for c in 0..bc {
                        *db.at_mut(r, c) = g.at(r, ac + c);
                    }
                }
                Self::accumulate(grads, *a, da);
                Self::accumulate(grads, *b, db);
            }
            Op::SliceCols(a, from, _to) => {
                let av = &self.nodes[*a].val;
                let mut da = Array::zeros(av.rows, av.cols);
                for r in 0..g.rows {
                    for c in 0..g.cols {
                        *da.at_mut(r, from + c) = g.at(r, c);
                    }
                }
                Self::accumulate(grads, *a, da);
            }
            Op::LayerNorm { x, gain, bias, eps } => {
                let xv = &self.nodes[*x].val;
                let gv = &self.nodes[*gain].val;
                let d = xv.cols;
                let mut dx = Array::zeros(xv.rows, d);
                // Per-row gain contributions, dy * xhat.
                let mut dgain = Array::zeros(xv.rows, d);
                for r in 0..xv.rows {
                    let row = &xv.data[r * d..(r + 1) * d];
                    let mu = row.iter().sum::<f64>() / d as f64;
                    let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / d as f64;
                    let sd = (var + eps).sqrt();
                    let xhat: Vec<f64> = row.iter().map(|&v| (v - mu) / sd).collect();
                    let dy = &g.data[r * d..(r + 1) * d];
                    let mut m1 = 0.0; // mean(dy*gain)
                    let mut m2 = 0.0; // mean(dy*gain*xhat)
                    for c in 0..d {
                        let dyg = dy[c] * gv.at(0, c);
                        m1 += dyg;
                        m2 += dyg * xhat[c];
                        *dgain.at_mut(r, c) = dy[c] * xhat[c];
                    }
                    m1 /= d as f64;
                    m2 /= d as f64;
                    for c in 0..d {
                        let dyg = dy[c] * gv.at(0, c);
                        *dx.at_mut(r, c) = (dyg - m1 - xhat[c] * m2) / sd;
                    }
                }
                Self::accumulate(grads, *x, dx);
                self.broadcast_grad(i, *gain, dgain, grads, refs);
                self.broadcast_grad(i, *bias, g, grads, refs);
            }
            Op::GmmLogProb {
                means,
                log_stds,
                logits,
                action,
            } => {
                let mv = &self.nodes[*means].val;
                let sv = &self.nodes[*log_stds].val;
                let wv = &self.nodes[*logits].val;
                let av = &self.nodes[*action].val;
                let (n, k) = mv.shape();
                let mut dm = Array::zeros(n, k);
                let mut ds = Array::zeros(n, k);
                let mut dw = Array::zeros(n, k);
                for r in 0..n {
                    let gr = g.data[r];
                    let (_, resp, weights) = gmm_row_logp(
                        &mv.data[r * k..(r + 1) * k],
                        &sv.data[r * k..(r + 1) * k],
                        &wv.data[r * k..(r + 1) * k],
                        av.data[r],
                    );
                    for c in 0..k {
                        let mu = mv.at(r, c);
                        let sigma = sv.at(r, c).exp();
                        let z = (av.data[r] - mu) / sigma;
                        *dm.at_mut(r, c) = gr * resp[c] * z / sigma;
                        *ds.at_mut(r, c) = gr * resp[c] * (z * z - 1.0);
                        *dw.at_mut(r, c) = gr * (resp[c] - weights[c]);
                    }
                }
                Self::accumulate(grads, *means, dm);
                Self::accumulate(grads, *log_stds, ds);
                Self::accumulate(grads, *logits, dw);
            }
            Op::SoftmaxCE { logits, target } => {
                let lv = &self.nodes[*logits].val;
                let tv = &self.nodes[*target].val;
                let (n, a) = lv.shape();
                let mut dl = Array::zeros(n, a);
                for r in 0..n {
                    let gr = g.data[r];
                    let row = &lv.data[r * a..(r + 1) * a];
                    let lse = log_sum_exp(row);
                    // Sum of target probs (usually 1, but be exact).
                    let tsum: f64 = (0..a).map(|c| tv.at(r, c)).sum();
                    for (c, &l) in row.iter().enumerate() {
                        let p = (l - lse).exp();
                        *dl.at_mut(r, c) = gr * (tsum * p - tv.at(r, c));
                    }
                }
                Self::accumulate(grads, *logits, dl);
            }
        }
    }
}

/// Numerically stable log(sum(exp(xs))).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
}

const LOG_SQRT_2PI: f64 = 0.918_938_533_204_672_8;

/// Log-density of the mixture at `a`, plus component responsibilities and
/// softmax weights (for gradients).
fn gmm_row_logp(
    means: &[f64],
    log_stds: &[f64],
    logits: &[f64],
    a: f64,
) -> (f64, Vec<f64>, Vec<f64>) {
    let k = means.len();
    let logw_norm = log_sum_exp(logits);
    let mut joint = vec![0.0; k];
    let mut weights = vec![0.0; k];
    for c in 0..k {
        let logw = logits[c] - logw_norm;
        weights[c] = logw.exp();
        let sigma = log_stds[c].exp();
        let z = (a - means[c]) / sigma;
        let log_pdf = -0.5 * z * z - log_stds[c] - LOG_SQRT_2PI;
        joint[c] = logw + log_pdf;
    }
    let logp = log_sum_exp(&joint);
    let resp: Vec<f64> = joint.iter().map(|&j| (j - logp).exp()).collect();
    (logp, resp, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_util::Rng;

    /// Central finite-difference check of d loss / d param for every scalar
    /// in `store`, against autodiff.
    fn grad_check(
        store: &mut ParamStore,
        forward: &dyn Fn(&mut Graph, &ParamStore) -> NodeId,
        tol: f64,
    ) {
        // Autodiff gradients.
        store.zero_grads();
        let mut g = Graph::new();
        let loss = forward(&mut g, store);
        g.backward(loss, store);
        let auto_grads: Vec<Vec<f64>> = store.params.iter().map(|p| p.grad.data.clone()).collect();

        let h = 1e-6;
        #[expect(
            clippy::needless_range_loop,
            reason = "each element of `store.params` is mutated in place for the finite-difference probe while `auto_grads` is read at the same (pi, ei) position; iterators cannot hold both borrows"
        )]
        for pi in 0..store.params.len() {
            for ei in 0..store.params[pi].value.data.len() {
                let orig = store.params[pi].value.data[ei];
                store.params[pi].value.data[ei] = orig + h;
                let mut g1 = Graph::new();
                let l1 = forward(&mut g1, store);
                let f1 = g1.value(l1).data[0];
                store.params[pi].value.data[ei] = orig - h;
                let mut g2 = Graph::new();
                let l2 = forward(&mut g2, store);
                let f2 = g2.value(l2).data[0];
                store.params[pi].value.data[ei] = orig;
                let fd = (f1 - f2) / (2.0 * h);
                let ad = auto_grads[pi][ei];
                assert!(
                    (fd - ad).abs() <= tol * (1.0 + fd.abs().max(ad.abs())),
                    "param {} elem {}: fd {} vs ad {}",
                    store.params[pi].name,
                    ei,
                    fd,
                    ad
                );
            }
        }
    }

    fn x_input(g: &mut Graph) -> NodeId {
        g.input(Array::from_vec(
            3,
            4,
            vec![
                0.5, -1.0, 2.0, 0.1, -0.3, 0.8, -1.5, 0.6, 1.2, -0.7, 0.4, -0.2,
            ],
        ))
    }

    #[test]
    fn grad_mlp_with_everything() {
        let mut rng = Rng::new(2);
        let mut store = ParamStore::new();
        let w1 = store.glorot("w1", 4, 5, &mut rng);
        let b1 = store.zeros("b1", 1, 5);
        let g1 = store.constant("g1", 1, 5, 1.0);
        let bb1 = store.zeros("bb1", 1, 5);
        let w2 = store.glorot("w2", 5, 1, &mut rng);
        grad_check(
            &mut store,
            &move |g, s| {
                let x = x_input(g);
                let wa = g.param(s, w1);
                let ba = g.param(s, b1);
                let h = g.matmul(x, wa);
                let h = g.add_row(h, ba);
                let ga = g.param(s, g1);
                let bba = g.param(s, bb1);
                let h = g.layer_norm(h, ga, bba);
                let h = g.lrelu(h, 0.01);
                let wb = g.param(s, w2);
                let y = g.matmul(h, wb);
                let y = g.tanh(y);
                g.mean(y)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_sigmoid_exp_ln_mul() {
        let mut rng = Rng::new(3);
        let mut store = ParamStore::new();
        let w = store.glorot("w", 4, 3, &mut rng);
        grad_check(
            &mut store,
            &move |g, s| {
                let x = x_input(g);
                let wa = g.param(s, w);
                let h = g.matmul(x, wa);
                let a = g.sigmoid(h);
                let b = g.exp(h);
                let c = g.mul(a, b);
                let c = g.add_const(c, 1.0);
                let c = g.ln(c, 1e-12);
                g.mean(c)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_concat_slice_sub_scale() {
        let mut rng = Rng::new(4);
        let mut store = ParamStore::new();
        let w = store.glorot("w", 4, 4, &mut rng);
        grad_check(
            &mut store,
            &move |g, s| {
                let x = x_input(g);
                let wa = g.param(s, w);
                let h = g.matmul(x, wa);
                let cat = g.concat_cols(h, x);
                let left = g.slice_cols(cat, 0, 4);
                let right = g.slice_cols(cat, 4, 8);
                let diff = g.sub(left, right);
                let sc = g.scale(diff, 0.5);
                let t = g.tanh(sc);
                g.mean(t)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_gmm_log_prob() {
        let mut rng = Rng::new(5);
        let mut store = ParamStore::new();
        let wm = store.glorot("wm", 4, 3, &mut rng);
        let ws = store.glorot("ws", 4, 3, &mut rng);
        let ww = store.glorot("ww", 4, 3, &mut rng);
        grad_check(
            &mut store,
            &move |g, s| {
                let x = x_input(g);
                let m = g.param(s, wm);
                let sdev = g.param(s, ws);
                let w = g.param(s, ww);
                let means = g.matmul(x, m);
                let log_stds = g.matmul(x, sdev);
                let logits = g.matmul(x, w);
                let action = g.input(Array::from_vec(3, 1, vec![0.2, -0.4, 1.1]));
                let logp = g.gmm_log_prob(means, log_stds, logits, action);
                let neg = g.scale(logp, -1.0);
                g.mean(neg)
            },
            1e-4,
        );
    }

    #[test]
    fn grad_softmax_cross_entropy() {
        let mut rng = Rng::new(6);
        let mut store = ParamStore::new();
        let w = store.glorot("w", 4, 5, &mut rng);
        grad_check(
            &mut store,
            &move |g, s| {
                let x = x_input(g);
                let wa = g.param(s, w);
                let logits = g.matmul(x, wa);
                let target = g.input(Array::from_vec(
                    3,
                    5,
                    vec![
                        0.1, 0.2, 0.3, 0.2, 0.2, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0,
                    ],
                ));
                let ce = g.softmax_cross_entropy(logits, target);
                g.mean(ce)
            },
            1e-5,
        );
    }

    #[test]
    fn param_grads_match_backward_accumulation() {
        let mut rng = Rng::new(7);
        let mut store = ParamStore::new();
        let w = store.glorot("w", 4, 4, &mut rng);
        let b = store.zeros("b", 1, 4);
        let forward = |g: &mut Graph, s: &ParamStore| {
            let x = x_input(g);
            // Reference the same weight twice so param_grads must report it
            // once per use.
            let wa = g.param(s, w);
            let wb = g.param(s, w);
            let ba = g.param(s, b);
            let h = g.matmul(x, wa);
            let h = g.add_row(h, ba);
            let h = g.tanh(h);
            let y = g.matmul(h, wb);
            g.mean(y)
        };
        store.zero_grads();
        let mut g1 = Graph::new();
        let l1 = forward(&mut g1, &store);
        g1.backward(l1, &mut store);
        let reference: Vec<Vec<f64>> = store.params.iter().map(|p| p.grad.data.clone()).collect();

        let mut g2 = Graph::new();
        let l2 = forward(&mut g2, &store);
        let pairs = g2.param_grads(l2);
        assert!(pairs.iter().filter(|(pid, _)| *pid == w).count() == 2);
        store.zero_grads();
        for (pid, grad) in pairs {
            store.params[pid].grad.add_assign(&grad);
        }
        for (p, want) in store.params.iter().zip(&reference) {
            assert_eq!(&p.grad.data, want, "grad mismatch for {}", p.name);
        }
    }

    /// One node per parameter per graph: a store edited between two `param`
    /// calls cannot split a weight's uses (or the transpose backward caches
    /// for it) across two values.
    #[test]
    fn a_graph_reads_each_parameter_once() {
        let mut rng = Rng::new(8);
        let mut store = ParamStore::new();
        let w = store.glorot("w", 4, 4, &mut rng);
        let first = store.get(w).clone();
        let mut g = Graph::new();
        let wa = g.param(&store, w);
        store.params[w]
            .value
            .data
            .iter_mut()
            .for_each(|v| *v += 1.0);
        assert_eq!(g.param(&store, w), wa);
        assert_eq!(g.value(wa), &first);
        // Two uses of the one node: both gradients come from `first`.
        let x = x_input(&mut g);
        let h = g.matmul(x, wa);
        let y = g.matmul(h, wa);
        let loss = g.mean(y);
        let got = g.param_grads(loss);
        store.params[w].value = first;
        let mut g = Graph::new();
        let (x, wa) = (x_input(&mut g), g.param(&store, w));
        let h = g.matmul(x, wa);
        let y = g.matmul(h, wa);
        let loss = g.mean(y);
        assert_eq!(got, g.param_grads(loss));
    }

    /// The contract of `backward_rows`: a graph holding every sample's rows
    /// yields the bits of one graph per sample, `param_grads` added in sample
    /// order — one row per sample with a weight shared across steps (the flat
    /// fold), several rows per sample (the two-level fold), and both.
    #[test]
    fn backward_rows_matches_one_graph_per_sample() {
        use sage_util::prop::{forall, PropConfig};
        forall(
            "backward_rows == per-sample param_grads, added in sample order",
            PropConfig::new(60, 0xB0),
            |rng| {
                let samples = 1 + (rng.next_u64() % 5) as usize;
                let per = 1 + (rng.next_u64() % 3) as usize;
                let steps = 1 + (rng.next_u64() % 3) as usize;
                let din = 1 + (rng.next_u64() % 11) as usize;
                let dh = 1 + (rng.next_u64() % 11) as usize;
                let mut store = ParamStore::new();
                let w = store.glorot("w", din, dh, rng);
                let u = store.glorot("u", dh, dh, rng);
                let b = store.glorot("b", 1, dh, rng);
                let gain = store.glorot("gain", 1, dh, rng);
                let bias = store.glorot("bias", 1, dh, rng);
                let head = store.glorot("head", dh, 1, rng);
                // Inputs with exact zeros of both signs (the skip-zero path).
                let xs: Vec<Array> = (0..steps)
                    .map(|_| {
                        let data = (0..samples * per * din)
                            .map(|_| match rng.next_u64() % 6 {
                                0 => 0.0,
                                1 => -0.0,
                                _ => rng.range(-2.0, 2.0),
                            })
                            .collect();
                        Array::from_vec(samples * per, din, data)
                    })
                    .collect();
                // The unroll over rows `from..from + n` of every step's input.
                let forward = |g: &mut Graph, s: &ParamStore, from: usize, n: usize| {
                    let mut h = g.input(Array::zeros(n, dh));
                    for x in &xs {
                        let x = g.input(Array::from_vec(
                            n,
                            din,
                            x.data[from * din..(from + n) * din].to_vec(),
                        ));
                        let (wn, un, bn) = (g.param(s, w), g.param(s, u), g.param(s, b));
                        let xw = g.matmul(x, wn);
                        let hu = g.matmul(h, un);
                        let z = g.add(xw, hu);
                        let z = g.add_row(z, bn);
                        let (gn, cn) = (g.param(s, gain), g.param(s, bias));
                        let z = g.layer_norm(z, gn, cn);
                        h = g.lrelu(z, 0.01);
                    }
                    let hn = g.param(s, head);
                    g.matmul(h, hn)
                };
                let k = 1.0 / samples as f64;

                let mut g = Graph::new();
                let y = forward(&mut g, &store, 0, samples * per);
                g.backward_rows(y, k / per as f64, samples, &mut store);
                let got: Vec<Vec<u64>> = store
                    .params
                    .iter()
                    .map(|p| p.grad.iter().map(|v| v.to_bits()).collect())
                    .collect();

                store.zero_grads();
                for bi in 0..samples {
                    let mut g = Graph::new();
                    let y = forward(&mut g, &store, bi * per, per);
                    let mean = g.mean(y);
                    let loss = g.scale(mean, k);
                    for (pid, grad) in g.param_grads(loss) {
                        store.params[pid].grad.add_assign(&grad);
                    }
                }
                for (p, got) in store.params.iter().zip(&got) {
                    let want: Vec<u64> = p.grad.iter().map(|v| v.to_bits()).collect();
                    if &want != got {
                        return Err(format!(
                            "{} differs (samples {samples}, rows/sample {per}, steps {steps}, \
                             {din}x{dh})",
                            p.name
                        ));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn log_sum_exp_stable() {
        assert!((log_sum_exp(&[1000.0, 1000.0]) - (1000.0 + 2f64.ln())).abs() < 1e-9);
        assert_eq!(
            log_sum_exp(&[f64::NEG_INFINITY, f64::NEG_INFINITY]),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn gmm_logp_matches_single_gaussian() {
        // One component: must equal the normal log-density.
        let (logp, resp, w) = gmm_row_logp(&[0.5], &[0.0], &[0.3], 1.0);
        let expected = -0.5 * 0.25 - 0.0 - LOG_SQRT_2PI;
        assert!((logp - expected).abs() < 1e-12);
        assert!((resp[0] - 1.0).abs() < 1e-12);
        assert!((w[0] - 1.0).abs() < 1e-12);
    }
}
