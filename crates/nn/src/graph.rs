//! Reverse-mode automatic differentiation over [`Array`] nodes.
//!
//! A [`Graph`] is a tape rebuilt per forward pass (define-by-run). Each
//! parameter it uses is copied in from a [`ParamStore`] once; after
//! `backward`, their gradients are accumulated back into the store.
//!
//! Every op is row-independent, forward and backward: row `r` of a node
//! depends on row `r` of its operands only, so a graph of `[B, ·]` nodes
//! computes, row for row, the bits that `B` one-row graphs would. The one
//! place rows meet is a parameter's gradient, and there the order of the
//! sum is a contract — see [`Graph::backward_rows`].
//!
//! **Memory.** A graph that lives across passes is [`Graph::clear`]ed, not
//! rebuilt: clearing keeps every node's value buffer, and the node pushed at
//! the same position of the next tape is written into it, so a trainer whose
//! passes repeat one schedule allocates during the first and never again.
//! Backward draws gradients, weight transposes and the stacked operands of
//! the ordered reduction from a [`Workspace`] kept the same way. Both are
//! bounded by one pass's live set: clearing drops the buffers the last tape
//! left unclaimed, and the workspace allocates only when every buffer it
//! owns is in use. `Graph::new()` per pass still works and costs what it
//! always did.

use crate::array::Array;
use crate::infer;
use crate::params::{ParamId, ParamStore};

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
    },
    /// Log-probability of a scalar action under a Gaussian mixture.
    /// means/log_stds/logits are `[n,K]`; action is a leaf `[n,1]`; out `[n,1]`.
    GmmLogProb {
        means: NodeId,
        log_stds: NodeId,
        logits: NodeId,
        action: NodeId,
    },
    /// Per-row cross-entropy of softmax(logits) against target probs
    /// `[n,A] -> [n,1]`; `probs` is the leaf holding `softmax(logits)`.
    SoftmaxCE {
        logits: NodeId,
        target: NodeId,
        probs: NodeId,
    },
}

struct Node {
    val: Array,
    op: Op,
    /// Whether the value depends on a parameter. Backward computes no
    /// gradient for a node that does not (an input, an op over inputs).
    wants_grad: bool,
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

/// What backward keeps between calls (module docs, **Memory**).
#[derive(Default)]
struct Workspace {
    /// Gradient buffers not in use, the most recently returned on top.
    free: Vec<Vec<f64>>,
    /// Per node, the gradient accumulated so far by the running sweep.
    grads: Vec<Option<Array>>,
    /// Per node, its transpose as the right operand of a `matmul` and
    /// whether the running sweep has made it yet (the buffer outlives the
    /// sweep).
    transposed: Vec<(bool, Array)>,
    refs: Vec<ParamRef>,
    /// The stacked operands of [`Graph::reduce`].
    stacked: (Array, Array),
}

impl Workspace {
    /// An empty buffer.
    fn take(&mut self) -> Vec<f64> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    fn give(&mut self, a: Array) {
        self.free.push(a.data);
    }

    /// Add `g` to the gradient of `node`, or drop it if `node` wants none.
    fn accumulate(&mut self, nodes: &[Node], node: NodeId, g: Array) {
        if !nodes[node].wants_grad {
            return self.give(g);
        }
        match &mut self.grads[node] {
            Some(existing) => {
                existing.add_assign(&g);
                self.give(g);
            }
            slot @ None => *slot = Some(g),
        }
    }

    fn copy_of(&mut self, a: &Array) -> Array {
        a.copy_into(self.take())
    }

    fn zeros(&mut self, rows: usize, cols: usize) -> Array {
        let mut buf = self.take();
        buf.resize(rows * cols, 0.0);
        Array::from_vec(rows, cols, buf)
    }

    /// Take back the gradients of reduced `refs` and their emptied list.
    fn recycle(&mut self, mut refs: Vec<ParamRef>) {
        self.free.extend(refs.drain(..).map(|r| r.g.data));
        self.refs = refs;
    }
}

/// A define-by-run computation graph.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// The `Op::Param` node of each parameter used so far, by [`ParamId`].
    param_nodes: Vec<Option<NodeId>>,
    /// By position on the tape, the value buffers of the tape last cleared.
    spare: Vec<Vec<f64>>,
    workspace: Workspace,
}

impl Graph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the tape for the next pass, keeping its buffers (module docs,
    /// **Memory**). Every [`NodeId`] handed out so far is void.
    pub fn clear(&mut self) {
        self.spare.clear();
        self.spare
            .extend(self.nodes.drain(..).map(|node| node.val.data));
        self.param_nodes.clear();
    }

    /// The buffer for the value of the node about to be pushed.
    fn buf(&mut self) -> Vec<f64> {
        self.buf_ahead(0)
    }

    /// The (emptied) buffer for the value of the node pushed after `ahead`
    /// others.
    fn buf_ahead(&mut self, ahead: usize) -> Vec<f64> {
        let at = self.nodes.len() + ahead;
        let mut buf = self
            .spare
            .get_mut(at)
            .map(std::mem::take)
            .unwrap_or_default();
        buf.clear();
        buf
    }

    fn push(&mut self, val: Array, op: Op, wants_grad: bool) -> NodeId {
        self.nodes.push(Node {
            val,
            op,
            wants_grad,
        });
        self.nodes.len() - 1
    }

    /// Push `f` of the value of `a`, elementwise.
    fn push_map(&mut self, a: NodeId, op: Op, f: impl Fn(f64) -> f64) -> NodeId {
        let buf = self.buf();
        let v = self.nodes[a].val.map_into(buf, f);
        self.push(v, op, self.nodes[a].wants_grad)
    }

    /// Push `f` of the values of `a` and `b`, elementwise.
    fn push_zip(&mut self, a: NodeId, b: NodeId, op: Op, f: impl Fn(f64, f64) -> f64) -> NodeId {
        let buf = self.buf();
        let v = self.nodes[a].val.zip_into(buf, &self.nodes[b].val, f);
        self.push(v, op, self.wants_grad(&[a, b]))
    }

    fn wants_grad(&self, operands: &[NodeId]) -> bool {
        operands.iter().any(|&n| self.nodes[n].wants_grad)
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Array {
        &self.nodes[id].val
    }

    /// Non-differentiable input.
    pub fn input(&mut self, a: Array) -> NodeId {
        self.push(a, Op::Leaf, false)
    }

    /// [`Graph::input`] of a `rows x cols` value that `fill` writes, row
    /// after row, into the tape's own (emptied) buffer.
    pub fn input_with(
        &mut self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Vec<f64>),
    ) -> NodeId {
        let mut buf = self.buf();
        fill(&mut buf);
        self.push(Array::from_vec(rows, cols, buf), Op::Leaf, false)
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
        let buf = self.buf();
        let node = self.push(store.get(id).copy_into(buf), Op::Param(id), true);
        self.param_nodes[id] = Some(node);
        node
    }

    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let buf = self.buf();
        let v = infer::matmul_into(buf, &self.nodes[a].val, &self.nodes[b].val);
        self.push(v, Op::MatMul(a, b), self.wants_grad(&[a, b]))
    }

    /// Broadcast-add a `[1,d]` bias row to every row of x.
    pub fn add_row(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let buf = self.buf();
        let v = infer::add_row(self.nodes[x].val.copy_into(buf), &self.nodes[bias].val);
        self.push(v, Op::AddRow(x, bias), self.wants_grad(&[x, bias]))
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push_zip(a, b, Op::Add(a, b), |x, y| x + y)
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push_zip(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push_zip(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    pub fn scale(&mut self, a: NodeId, k: f64) -> NodeId {
        self.push_map(a, Op::Scale(a, k), |x| x * k)
    }

    pub fn add_const(&mut self, a: NodeId, k: f64) -> NodeId {
        self.push_map(a, Op::AddConst(a), |x| x + k)
    }

    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        self.push_map(a, Op::Tanh(a), f64::tanh)
    }

    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.push_map(a, Op::Sigmoid(a), |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn lrelu(&mut self, a: NodeId, slope: f64) -> NodeId {
        let f = |x| if x >= 0.0 { x } else { slope * x };
        self.push_map(a, Op::LRelu(a, slope), f)
    }

    pub fn exp(&mut self, a: NodeId) -> NodeId {
        self.push_map(a, Op::Exp(a), f64::exp)
    }

    /// Natural log with a numeric floor.
    pub fn ln(&mut self, a: NodeId, floor: f64) -> NodeId {
        self.push_map(a, Op::Ln(a, floor), |x| x.max(floor).ln())
    }

    /// Mean over all elements, yielding a 1x1 scalar.
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        let av = &self.nodes[a].val;
        let m = av.data.iter().sum::<f64>() / av.data.len() as f64;
        self.push(Array::scalar(m), Op::Mean(a), self.nodes[a].wants_grad)
    }

    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut buf = self.buf();
        let (av, bv) = (&self.nodes[a].val, &self.nodes[b].val);
        assert_eq!(av.rows, bv.rows);
        for (ra, rb) in av.row_slices().zip(bv.row_slices()) {
            buf.extend_from_slice(ra);
            buf.extend_from_slice(rb);
        }
        let v = Array::from_vec(av.rows, av.cols + bv.cols, buf);
        self.push(v, Op::ConcatCols(a, b), self.wants_grad(&[a, b]))
    }

    /// Columns `[from, to)` of a node.
    pub fn slice_cols(&mut self, a: NodeId, from: usize, to: usize) -> NodeId {
        let mut buf = self.buf();
        let av = &self.nodes[a].val;
        assert!(from < to && to <= av.cols);
        for row in av.row_slices() {
            buf.extend_from_slice(&row[from..to]);
        }
        let v = Array::from_vec(av.rows, to - from, buf);
        self.push(v, Op::SliceCols(a, from, to), self.nodes[a].wants_grad)
    }

    /// Row-wise layer normalisation with learned gain and bias (`[1,d]`).
    pub fn layer_norm(&mut self, x: NodeId, gain: NodeId, bias: NodeId) -> NodeId {
        let buf = self.buf();
        let v = infer::layer_norm_into(
            buf,
            &self.nodes[x].val,
            &self.nodes[gain].val,
            &self.nodes[bias].val,
        );
        let wants_grad = self.wants_grad(&[x, gain, bias]);
        self.push(v, Op::LayerNorm { x, gain, bias }, wants_grad)
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
        let mut buf = self.buf();
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
        let (mut resp, mut weights) = (vec![0.0; k], vec![0.0; k]);
        for (((m, s), w), &a) in mv
            .row_slices()
            .zip(sv.row_slices())
            .zip(wv.row_slices())
            .zip(&av.data)
        {
            buf.push(gmm_row_logp(m, s, w, a, &mut resp, &mut weights));
        }
        let op = Op::GmmLogProb {
            means,
            log_stds,
            logits,
            action,
        };
        let wants_grad = self.wants_grad(&[means, log_stds, logits]);
        self.push(Array::from_vec(n, 1, buf), op, wants_grad)
    }

    /// Cross-entropy per row of softmax(logits) against target probabilities.
    pub fn softmax_cross_entropy(&mut self, logits: NodeId, target: NodeId) -> NodeId {
        let (probs_buf, mut ce) = (self.buf(), self.buf_ahead(1));
        let (lv, tv) = (&self.nodes[logits].val, &self.nodes[target].val);
        assert_eq!(lv.shape(), tv.shape());
        // One `log_sum_exp` per row serves the loss, `softmax(logits)` and,
        // through the leaf that holds it, backward and `Graph::softmax_of`.
        let mut probs = lv.copy_into(probs_buf);
        let rows = probs.data.chunks_exact_mut(lv.cols.max(1));
        for ((row, logits), targets) in rows.zip(lv.row_slices()).zip(tv.row_slices()) {
            let lse = softmax_in_place(row);
            let mut ce_row = 0.0;
            for (&l, &t) in logits.iter().zip(targets) {
                let logp = l - lse;
                ce_row -= t * logp;
            }
            ce.push(ce_row);
        }
        let ce = Array::from_vec(lv.rows, 1, ce);
        let wants_grad = self.nodes[logits].wants_grad;
        let probs = self.push(probs, Op::Leaf, false);
        let op = Op::SoftmaxCE {
            logits,
            target,
            probs,
        };
        self.push(ce, op, wants_grad)
    }

    /// `softmax(logits)`, row by row, of the `logits` of a
    /// [`Graph::softmax_cross_entropy`] node: element `(r, c)` is
    /// `exp(logits[r][c] - log_sum_exp(logits[r]))`, computed once by the
    /// forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `ce` is not a `softmax_cross_entropy` node.
    pub fn softmax_of(&self, ce: NodeId) -> &Array {
        match self.nodes[ce].op {
            Op::SoftmaxCE { probs, .. } => &self.nodes[probs].val,
            _ => unreachable!("softmax_of takes a softmax_cross_entropy node"),
        }
    }

    /// Run backpropagation from `loss` (must be 1x1) and accumulate parameter
    /// gradients into `store`: [`Graph::backward_rows`] with the whole graph
    /// as one sample.
    pub fn backward(&mut self, loss: NodeId, store: &mut ParamStore) {
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
    pub fn backward_rows(
        &mut self,
        out: NodeId,
        seed: f64,
        samples: usize,
        store: &mut ParamStore,
    ) {
        let mut ws = std::mem::take(&mut self.workspace);
        let mut refs = self.param_refs(out, seed, &mut ws);
        refs.sort_by_key(|r| (r.id, r.op));
        for of_param in refs.chunk_by(|a, b| a.id == b.id) {
            let grad = self.reduce(of_param, samples, &mut ws);
            store.params[of_param[0].id].grad.add_assign(&grad);
            ws.give(grad);
        }
        ws.recycle(refs);
        self.workspace = ws;
    }

    /// Parameter gradients of `loss` (must be 1x1) as `(id, grad)` pairs in
    /// the node order of the consuming ops, without touching a store. A
    /// parameter consumed by several ops (e.g. shared GRU weights across an
    /// unroll) appears once per op; adding the pairs in order reproduces
    /// exactly what [`Graph::backward`] accumulates into zeroed gradients.
    /// This is the one-sample-per-graph decomposition that
    /// [`Graph::backward_rows`] promises to match; the trainer's oracle test
    /// holds it to that.
    pub fn param_grads(&mut self, loss: NodeId) -> Vec<(ParamId, Array)> {
        assert_eq!(self.nodes[loss].val.shape(), (1, 1), "loss must be scalar");
        let mut ws = std::mem::take(&mut self.workspace);
        let mut refs = self.param_refs(loss, 1.0, &mut ws);
        refs.sort_by_key(|r| r.op);
        let pairs = refs
            .chunks(1)
            .map(|r| (r[0].id, self.reduce(r, 1, &mut ws)))
            .collect();
        ws.recycle(refs);
        self.workspace = ws;
        pairs
    }

    /// The fold of [`Graph::backward_rows`] for one parameter, `refs` in op
    /// order. `Xᵀ·G` over stacked rows is that fold when the stacking order
    /// is the fold order: [`infer::matmul_tn`] (it reads `X` by stride; no
    /// transposed copy) keeps the inner index sequential from `+0.0` with a
    /// separate multiply and add, and the factor it skips (`x == 0.0`) is a
    /// contribution of `±0.0`, which moves no sum that started at `+0.0`.
    /// A broadcast parameter's `X` is a column of ones, and `1.0 · g` is `g`:
    /// its fold adds the rows of `G` themselves.
    fn reduce(&self, refs: &[ParamRef], samples: usize, ws: &mut Workspace) -> Array {
        let dout = refs[0].g.cols;
        // One row per sample and op: each partial sum is its one
        // contribution, so the two-level fold is flat.
        let flat = refs.iter().all(|r| r.g.rows == samples);
        // Sample `b`'s rows of an op's `x` or `g`.
        fn rows_of(a: &Array, b: usize, samples: usize) -> &[f64] {
            assert_eq!(a.rows % samples, 0, "rows must split evenly by sample");
            let n = a.rows / samples * a.cols;
            &a.data[b * n..(b + 1) * n]
        }
        let by_sample = (0..samples).flat_map(|b| refs.iter().map(move |r| (r, b)));
        let Some(din) = refs[0].x.map(|x| self.nodes[x].val.cols) else {
            let add_rows = |sum: &mut Array, rows: &[f64]| {
                for row in rows.chunks_exact(dout.max(1)) {
                    sum.data.iter_mut().zip(row).for_each(|(s, &g)| *s += g);
                }
            };
            let (mut acc, mut partial) = (ws.zeros(1, dout), ws.zeros(1, dout));
            for (r, b) in by_sample {
                let rows = rows_of(&r.g, b, samples);
                if flat {
                    add_rows(&mut acc, rows);
                } else {
                    partial.data.fill(0.0);
                    add_rows(&mut partial, rows);
                    acc.add_assign(&partial);
                }
            }
            ws.give(partial);
            return acc;
        };
        let (mut xs, mut gs) = std::mem::take(&mut ws.stacked);
        (xs.cols, gs.cols) = (din, dout);
        // Append sample `b`'s rows of an op to the stack, or start it over.
        let stack = |xs: &mut Array, gs: &mut Array, (r, b): (&ParamRef, usize), over: bool| {
            if over {
                xs.data.clear();
                gs.data.clear();
            }
            if let Some(x) = r.x {
                let x = rows_of(&self.nodes[x].val, b, samples);
                xs.data.extend_from_slice(x);
            }
            gs.data.extend_from_slice(rows_of(&r.g, b, samples));
            gs.rows = gs.data.len() / dout.max(1);
            xs.rows = gs.rows;
        };
        let grad = if flat {
            // One product over the rows stacked in (sample, op) order.
            for (i, at) in by_sample.enumerate() {
                stack(&mut xs, &mut gs, at, i == 0);
            }
            infer::matmul_tn_into(ws.take(), &xs, &gs)
        } else {
            let mut acc = ws.zeros(din, dout);
            let mut partial = ws.take();
            for at in by_sample {
                stack(&mut xs, &mut gs, at, true);
                let sum = infer::matmul_tn_into(partial, &xs, &gs);
                acc.add_assign(&sum);
                partial = sum.data;
            }
            ws.free.push(partial);
            acc
        };
        ws.stacked = (xs, gs);
        grad
    }

    /// Backpropagate from `out` (every element seeded with `seed`) and return
    /// the unreduced parameter contributions, in the order the sweep met them.
    fn param_refs(&self, out: NodeId, seed: f64, ws: &mut Workspace) -> Vec<ParamRef> {
        ws.grads.clear();
        ws.grads.resize_with(self.nodes.len(), || None);
        let seeded = self.nodes[out].val.map_into(ws.take(), |_| seed);
        ws.grads[out] = Some(seeded);
        // A weight shared across an unroll is transposed once per sweep, not
        // per use; a transpose the last sweep did not use gives up its buffer.
        ws.transposed
            .resize_with(self.nodes.len(), Default::default);
        for (fresh, transpose) in &mut ws.transposed {
            if !std::mem::take(fresh) {
                *transpose = Array::default();
            }
        }
        let mut refs = std::mem::take(&mut ws.refs);
        for i in (0..=out).rev() {
            if let Some(g) = ws.grads[i].take() {
                self.backprop_node(i, g, ws, &mut refs);
            }
        }
        refs
    }

    fn as_param(&self, node: NodeId) -> Option<ParamId> {
        match self.nodes[node].op {
            Op::Param(id) => Some(id),
            _ => None,
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
        ws: &mut Workspace,
        refs: &mut Vec<ParamRef>,
    ) {
        if let Some(id) = self.as_param(node) {
            let x = None;
            refs.push(ParamRef { op, id, x, g });
            return;
        }
        let mut sum = ws.zeros(1, g.cols);
        for row in g.row_slices() {
            for (s, &v) in sum.data.iter_mut().zip(row) {
                *s += v;
            }
        }
        ws.give(g);
        ws.accumulate(&self.nodes, node, sum);
    }

    /// Push `g`, the gradient of node `i`, on to the operands of its op. `g`
    /// is consumed: updated in place where an operand's gradient has its
    /// shape, handed back to the workspace otherwise.
    fn backprop_node(&self, i: NodeId, mut g: Array, ws: &mut Workspace, refs: &mut Vec<ParamRef>) {
        let nodes = &self.nodes;
        let val = |n: &NodeId| &nodes[*n].val;
        let wants = |n: &NodeId| nodes[*n].wants_grad;
        match &nodes[i].op {
            Op::Leaf => ws.give(g),
            Op::Param(_) => unreachable!(
                "a parameter's gradient is a row reduction: only matmul (right operand), \
                 add_row (bias) and layer_norm (gain, bias) may consume a Param node"
            ),
            Op::MatMul(a, b) => {
                if wants(a) {
                    let buf = ws.take();
                    let (fresh, bt) = &mut ws.transposed[*b];
                    if !*fresh {
                        *bt = val(b).t_into(std::mem::take(&mut bt.data));
                        *fresh = true;
                    }
                    let da = infer::matmul_into(buf, &g, bt);
                    ws.accumulate(nodes, *a, da);
                }
                if let Some(id) = self.as_param(*b) {
                    let (op, x) = (i, Some(*a));
                    refs.push(ParamRef { op, id, x, g });
                } else {
                    if wants(b) {
                        let db = infer::matmul_tn_into(ws.take(), val(a), &g);
                        ws.accumulate(nodes, *b, db);
                    }
                    ws.give(g);
                }
            }
            Op::AddRow(x, bias) => {
                let copy = ws.copy_of(&g);
                self.broadcast_grad(i, *bias, copy, ws, refs);
                ws.accumulate(nodes, *x, g);
            }
            Op::Add(a, b) => {
                let copy = ws.copy_of(&g);
                ws.accumulate(nodes, *a, copy);
                ws.accumulate(nodes, *b, g);
            }
            Op::Sub(a, b) => {
                let neg = g.map_into(ws.take(), |x| -x);
                ws.accumulate(nodes, *a, g);
                ws.accumulate(nodes, *b, neg);
            }
            Op::Mul(a, b) => {
                if wants(a) {
                    let da = g.zip_into(ws.take(), val(b), |gg, bb| gg * bb);
                    ws.accumulate(nodes, *a, da);
                }
                g.zip_assign(val(a), |gg, aa| gg * aa);
                ws.accumulate(nodes, *b, g);
            }
            Op::Scale(a, k) => {
                g.map_assign(|x| x * k);
                ws.accumulate(nodes, *a, g);
            }
            Op::AddConst(a) => ws.accumulate(nodes, *a, g),
            Op::Tanh(a) => {
                g.zip_assign(val(&i), |gg, yy| gg * (1.0 - yy * yy));
                ws.accumulate(nodes, *a, g);
            }
            Op::Sigmoid(a) => {
                g.zip_assign(val(&i), |gg, yy| gg * yy * (1.0 - yy));
                ws.accumulate(nodes, *a, g);
            }
            Op::LRelu(a, slope) => {
                g.zip_assign(val(a), |gg, xx| if xx >= 0.0 { gg } else { gg * slope });
                ws.accumulate(nodes, *a, g);
            }
            Op::Exp(a) => {
                g.zip_assign(val(&i), |gg, yy| gg * yy);
                ws.accumulate(nodes, *a, g);
            }
            Op::Ln(a, floor) => {
                g.zip_assign(val(a), |gg, xx| if xx > *floor { gg / xx } else { 0.0 });
                ws.accumulate(nodes, *a, g);
            }
            Op::Mean(a) => {
                let scale = g.data[0] / val(a).data.len() as f64;
                let da = val(a).map_into(ws.take(), |_| scale);
                ws.give(g);
                ws.accumulate(nodes, *a, da);
            }
            Op::ConcatCols(a, b) => {
                let mut from = 0;
                for operand in [a, b] {
                    let cols = val(operand).cols;
                    if wants(operand) {
                        let mut d = ws.take();
                        for row in g.row_slices() {
                            d.extend_from_slice(&row[from..from + cols]);
                        }
                        ws.accumulate(nodes, *operand, Array::from_vec(g.rows, cols, d));
                    }
                    from += cols;
                }
                ws.give(g);
            }
            Op::SliceCols(a, from, to) => {
                let mut da = ws.zeros(val(a).rows, val(a).cols);
                let wide = da.data.chunks_exact_mut(val(a).cols.max(1));
                for (row, grow) in wide.zip(g.row_slices()) {
                    row[*from..*to].copy_from_slice(grow);
                }
                ws.give(g);
                ws.accumulate(nodes, *a, da);
            }
            Op::LayerNorm { x, gain, bias } => {
                let (xv, gv) = (val(x), &val(gain).data);
                let d = xv.cols;
                let (mut dx, mut dgain) = (ws.take(), ws.take());
                let (mut xhat, mut dyg) = (ws.take(), ws.take());
                for (row, dy) in xv.row_slices().zip(g.row_slices()) {
                    // Whole-row passes (they vectorise); the two means stay
                    // left folds from `0.0` in column order.
                    let (mu, sd) = infer::row_moments(row);
                    xhat.clear();
                    xhat.extend(row.iter().map(|&v| (v - mu) / sd));
                    dyg.clear();
                    dyg.extend(dy.iter().zip(gv).map(|(&dy, &gain)| dy * gain));
                    let terms = dyg.iter().zip(&xhat);
                    let m1 = dyg.iter().fold(0.0, |m, &v| m + v) / d as f64;
                    let m2 = terms.clone().fold(0.0, |m, (&v, &xh)| m + v * xh) / d as f64;
                    // Per-row gain contributions, dy * xhat.
                    dgain.extend(dy.iter().zip(&xhat).map(|(&dy, &xh)| dy * xh));
                    dx.extend(terms.map(|(&v, &xh)| (v - m1 - xh * m2) / sd));
                }
                ws.free.extend([xhat, dyg]);
                ws.accumulate(nodes, *x, Array::from_vec(xv.rows, d, dx));
                let dgain = Array::from_vec(xv.rows, d, dgain);
                self.broadcast_grad(i, *gain, dgain, ws, refs);
                self.broadcast_grad(i, *bias, g, ws, refs);
            }
            Op::GmmLogProb {
                means,
                log_stds,
                logits,
                action,
            } => {
                let (mv, sv, wv, av) = (val(means), val(log_stds), val(logits), val(action));
                let (n, k) = mv.shape();
                let (mut dm, mut ds, mut dw) = (ws.take(), ws.take(), ws.take());
                let (mut resp, mut weights) = (vec![0.0; k], vec![0.0; k]);
                let rows = mv.row_slices().zip(sv.row_slices()).zip(wv.row_slices());
                for (((m, s), w), (&a, &gr)) in rows.zip(av.data.iter().zip(&g.data)) {
                    gmm_row_logp(m, s, w, a, &mut resp, &mut weights);
                    for c in 0..k {
                        let sigma = s[c].exp();
                        let z = (a - m[c]) / sigma;
                        dm.push(gr * resp[c] * z / sigma);
                        ds.push(gr * resp[c] * (z * z - 1.0));
                        dw.push(gr * (resp[c] - weights[c]));
                    }
                }
                ws.give(g);
                ws.accumulate(nodes, *means, Array::from_vec(n, k, dm));
                ws.accumulate(nodes, *log_stds, Array::from_vec(n, k, ds));
                ws.accumulate(nodes, *logits, Array::from_vec(n, k, dw));
            }
            Op::SoftmaxCE {
                logits,
                target,
                probs,
            } => {
                let (pv, tv) = (val(probs), val(target));
                let mut dl = ws.take();
                for ((ps, ts), &gr) in pv.row_slices().zip(tv.row_slices()).zip(&g.data) {
                    // Sum of target probs (usually 1, but be exact).
                    let tsum: f64 = ts.iter().sum();
                    dl.extend(ps.iter().zip(ts).map(|(&p, &t)| gr * (tsum * p - t)));
                }
                ws.give(g);
                ws.accumulate(nodes, *logits, Array::from_vec(pv.rows, pv.cols, dl));
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

/// Replace `row` with its softmax, `exp(x - lse)` for `lse` the row's
/// [`log_sum_exp`], and return `lse`.
pub fn softmax_in_place(row: &mut [f64]) -> f64 {
    let lse = log_sum_exp(row);
    row.iter_mut().for_each(|x| *x = (*x - lse).exp());
    lse
}

/// Row-wise [`softmax_in_place`] of a copy of `logits`.
pub fn softmax_rows(logits: &Array) -> Array {
    let mut probs = logits.clone();
    for row in probs.data.chunks_exact_mut(logits.cols.max(1)) {
        softmax_in_place(row);
    }
    probs
}

const LOG_SQRT_2PI: f64 = 0.918_938_533_204_672_8;

/// Log-density of the mixture at `a`; leaves the component responsibilities
/// in `resp` and the softmax weights in `weights` (for gradients), both of
/// the mixture's length.
fn gmm_row_logp(
    means: &[f64],
    log_stds: &[f64],
    logits: &[f64],
    a: f64,
    resp: &mut [f64],
    weights: &mut [f64],
) -> f64 {
    let logw_norm = log_sum_exp(logits);
    // `resp` holds the joint log-densities until `logp` is known.
    for c in 0..means.len() {
        let logw = logits[c] - logw_norm;
        weights[c] = logw.exp();
        let sigma = log_stds[c].exp();
        let z = (a - means[c]) / sigma;
        let log_pdf = -0.5 * z * z - log_stds[c] - LOG_SQRT_2PI;
        resp[c] = logw + log_pdf;
    }
    let logp = log_sum_exp(resp);
    resp.iter_mut().for_each(|j| *j = (*j - logp).exp());
    logp
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

    /// `Graph::clear` is an allocation policy, not a semantic: a tape built
    /// on a cleared graph holds the values and yields the gradients of the
    /// same tape on a new graph, pass after pass, when the passes repeat one
    /// schedule (every buffer fits) and when shapes and lengths change under
    /// it (none does).
    #[test]
    fn a_cleared_graph_is_a_new_graph_bit_for_bit() {
        use sage_util::prop::{forall, PropConfig};
        forall(
            "cleared graph == new graph",
            PropConfig::new(30, 0xC1EA),
            |rng| {
                let mut kept = Graph::new();
                let (mut n, mut steps, mut din, mut dh) = (0, 0, 0, 0);
                for pass in 0..5 {
                    if pass % 2 == 0 {
                        n = 1 + rng.below(6);
                        steps = 1 + rng.below(3);
                        din = 1 + rng.below(9);
                        dh = 2 + rng.below(9);
                    }
                    let mut store = ParamStore::new();
                    let w = store.glorot("w", din, dh, rng);
                    let u = store.glorot("u", dh, dh, rng);
                    let b = store.glorot("b", 1, dh, rng);
                    let gain = store.glorot("gain", 1, dh, rng);
                    let bias = store.glorot("bias", 1, dh, rng);
                    let xs: Vec<Array> = (0..steps)
                        .map(|_| {
                            let data = (0..n * din).map(|_| rng.range(-2.0, 2.0)).collect();
                            Array::from_vec(n, din, data)
                        })
                        .collect();
                    let target = Array::from_vec(n, dh, vec![1.0 / dh as f64; n * dh]);
                    let forward = |g: &mut Graph, s: &ParamStore| {
                        let mut h = g.input_with(n, dh, |h| h.resize(n * dh, 0.0));
                        for x in &xs {
                            let x = g.input(x.clone());
                            let (wn, un, bn) = (g.param(s, w), g.param(s, u), g.param(s, b));
                            let xw = g.matmul(x, wn);
                            let hu = g.matmul(h, un);
                            let z = g.add(xw, hu);
                            let z = g.add_row(z, bn);
                            let gate = g.sigmoid(z);
                            let (gn, cn) = (g.param(s, gain), g.param(s, bias));
                            let z = g.layer_norm(z, gn, cn);
                            let z = g.tanh(z);
                            let wide = g.concat_cols(z, gate);
                            let z = g.slice_cols(wide, 0, dh);
                            h = g.mul(gate, z);
                        }
                        let t = g.input(target.clone());
                        g.softmax_cross_entropy(h, t)
                    };
                    let bits = |a: &Array| a.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let grads = |s: &ParamStore| -> Vec<Vec<u64>> {
                        s.params.iter().map(|p| bits(&p.grad)).collect()
                    };

                    let mut new = Graph::new();
                    let ce = forward(&mut new, &store);
                    new.backward_rows(ce, 0.5, 1, &mut store);
                    let (want_ce, want_grads) = (bits(new.value(ce)), grads(&store));
                    let want_probs = bits(new.softmax_of(ce));

                    store.zero_grads();
                    kept.clear();
                    let ce = forward(&mut kept, &store);
                    kept.backward_rows(ce, 0.5, 1, &mut store);
                    if want_ce != bits(kept.value(ce))
                        || want_probs != bits(kept.softmax_of(ce))
                        || want_grads != grads(&store)
                    {
                        return Err(format!("pass {pass}: {n} rows, {steps} steps, {din}x{dh}"));
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
        let (mut resp, mut w) = ([0.0], [0.0]);
        let logp = gmm_row_logp(&[0.5], &[0.0], &[0.3], 1.0, &mut resp, &mut w);
        let expected = -0.5 * 0.25 - 0.0 - LOG_SQRT_2PI;
        assert!((logp - expected).abs() < 1e-12);
        assert!((resp[0] - 1.0).abs() < 1e-12);
        assert!((w[0] - 1.0).abs() < 1e-12);
    }
}
