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
//! sum is a contract — see [`Graph::backward_rows`]. A layer's `x · W + b` is
//! one [`Graph::affine`] node: the bits of `matmul` then `add_row`, with the
//! bias added in the product's own buffer, and one gradient that backward
//! hands to the weight's and the bias's reductions without copying it.
//!
//! **Memory.** A graph that lives across passes is [`Graph::clear`]ed, not
//! rebuilt: clearing keeps every node's value buffer, and the node pushed at
//! the same position of the next tape is written into it, so a trainer whose
//! passes repeat one schedule allocates during the first and never again.
//! Backward draws gradients and weight transposes from a [`Workspace`] kept
//! the same way; the ordered reduction reads its rows where they lie, through
//! tables of row slices the workspace also keeps ([`infer::fold_tn_into`]),
//! and stacks nothing. Both are bounded by one pass's live set: clearing
//! drops the buffers the last tape left unclaimed, and the workspace
//! allocates only when every buffer it owns is in use. `Graph::new()` per
//! pass still works and costs what it always did.

use crate::array::Array;
use crate::infer::{self, Scratch};
use crate::params::{ParamId, ParamStore};
use crate::vmath;

/// Index of a node within a [`Graph`].
pub type NodeId = usize;

enum Op {
    Leaf,
    Param(ParamId),
    MatMul(NodeId, NodeId),
    /// `x[n,d] + bias[1,d]` broadcast over rows.
    AddRow(NodeId, NodeId),
    /// `x · w + b`, `b[1,d]` broadcast over rows: the value of `matmul` and
    /// then `add_row`, in one node.
    Affine {
        x: NodeId,
        w: NodeId,
        b: NodeId,
    },
    Add(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f64),
    AddConst(NodeId),
    Tanh(NodeId),
    Sigmoid(NodeId),
    LRelu(NodeId, f64),
    /// Mean over all elements -> 1x1.
    Mean(NodeId),
    ConcatCols(NodeId, NodeId),
    /// Row-wise layer normalisation with gain/bias [1,d].
    LayerNorm {
        x: NodeId,
        gain: NodeId,
        bias: NodeId,
    },
    /// Log-probability of a scalar action under a Gaussian mixture.
    /// means/log_stds/logits are `[n,K]`; action is a leaf `[n,1]`; out `[n,1]`.
    /// `terms` is the leaf `[n,3K]` holding, per row, the responsibilities,
    /// the mixture weights and the standard deviations the forward pass
    /// computed, for backward to read instead of recomputing.
    GmmLogProb {
        means: NodeId,
        log_stds: NodeId,
        logits: NodeId,
        action: NodeId,
        terms: NodeId,
    },
    /// One GRU step `(1 - z)·h + z·c` ([`Graph::gru`]): `w` the parameter
    /// nodes in the order of [`infer::gru_gates_into`], `gates` the leaves
    /// holding `z`, `r`, `r·h` and `c` for backward.
    Gru {
        x: NodeId,
        h: NodeId,
        w: [NodeId; 9],
        gates: [NodeId; 4],
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
/// `matmul` or `affine`; for a `[1,d]` bias or gain broadcast over rows there
/// is no `x` (every row's factor is 1) and the contribution is the row `g[r]`
/// itself.
struct ParamRef {
    /// The consuming op's node (the fold order) and the parameter consumed.
    op: NodeId,
    id: ParamId,
    x: Option<NodeId>,
    /// Index of the rows `g` in [`ParamRefs::grads`]: an affine node's
    /// weight and bias share one.
    g: usize,
}

/// The unreduced contributions of one sweep and the gradient rows they
/// read.
#[derive(Default)]
struct ParamRefs {
    refs: Vec<ParamRef>,
    grads: Vec<Array>,
}

impl ParamRefs {
    /// Record `g` and return its index.
    fn keep(&mut self, g: Array) -> usize {
        self.grads.push(g);
        self.grads.len() - 1
    }

    fn push(&mut self, op: NodeId, id: ParamId, x: Option<NodeId>, g: usize) {
        self.refs.push(ParamRef { op, id, x, g });
    }
}

/// The rows of one parameter's fold, in fold order ([`Graph::reduce`]),
/// and where its segments end.
#[derive(Default)]
struct FoldRows<'a> {
    xs: Vec<&'a [f64]>,
    gs: Vec<&'a [f64]>,
    ends: Vec<usize>,
}

impl FoldRows<'_> {
    /// The tables emptied, their allocations kept, for rows of another
    /// lifetime: an empty vector collected into one of the same layout
    /// reuses its allocation.
    fn emptied<'b>(self) -> FoldRows<'b> {
        fn empty<'b>(mut rows: Vec<&[f64]>) -> Vec<&'b [f64]> {
            rows.clear();
            (rows.into_iter())
                .map(|_| -> &'b [f64] { unreachable!("the vector is empty") })
                .collect()
        }
        let mut ends = self.ends;
        ends.clear();
        FoldRows {
            xs: empty(self.xs),
            gs: empty(self.gs),
            ends,
        }
    }
}

/// What backward keeps between calls (module docs, **Memory**).
#[derive(Default)]
struct Workspace {
    /// Gradient buffers not in use.
    free: Scratch,
    /// Per node, the gradient accumulated so far by the running sweep.
    grads: Vec<Option<Array>>,
    /// Per node, its transpose as the right operand of a `matmul` or
    /// `affine` and whether the running sweep has made it yet (the buffer
    /// outlives the sweep).
    transposed: Vec<(bool, Array)>,
    refs: ParamRefs,
    fold: FoldRows<'static>,
}

impl Workspace {
    /// An empty buffer.
    fn take(&mut self) -> Vec<f64> {
        self.free.take()
    }

    fn give(&mut self, a: Array) {
        self.free.give(a.data);
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

    /// Take back the gradients of reduced `refs` and their emptied lists.
    fn recycle(&mut self, mut refs: ParamRefs) {
        refs.grads.drain(..).for_each(|g| self.free.give(g.data));
        refs.refs.clear();
        self.refs = refs;
    }

    /// `node`'s value transposed, made once per sweep (module docs).
    fn transpose_of(&mut self, nodes: &[Node], node: NodeId) -> &Array {
        let (fresh, t) = &mut self.transposed[node];
        if !*fresh {
            *t = nodes[node].val.t_into(std::mem::take(&mut t.data));
            *fresh = true;
        }
        t
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

    /// Push a copy of the value of `a` that `kernel` maps in place.
    fn push_kernel(&mut self, a: NodeId, op: Op, kernel: fn(&mut [f64])) -> NodeId {
        let buf = self.buf();
        let mut v = self.nodes[a].val.copy_into(buf);
        kernel(&mut v.data);
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
    /// `affine` (weight, bias), `add_row` (bias), `layer_norm` (gain, bias)
    /// and `gru` (weights, biases).
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
        let mut v = self.nodes[x].val.copy_into(buf);
        assert_eq!(self.nodes[bias].val.rows, 1, "bias is one row");
        infer::map_rows(&mut v, &self.nodes[bias].val.data, |v, b| v + b);
        self.push(v, Op::AddRow(x, bias), self.wants_grad(&[x, bias]))
    }

    /// `x · w + b` with the `[1,d]` bias `b` broadcast over rows: the bits
    /// of `add_row(matmul(x, w), b)` in one node, the bias added in the
    /// product's own buffer. Backward hands its one gradient to the weight
    /// and to the bias uncopied.
    pub fn affine(&mut self, x: NodeId, w: NodeId, b: NodeId) -> NodeId {
        let buf = self.buf();
        let mut v = infer::matmul_into(buf, &self.nodes[x].val, &self.nodes[w].val);
        assert_eq!(self.nodes[b].val.rows, 1, "bias is one row");
        infer::map_rows(&mut v, &self.nodes[b].val.data, |v, b| v + b);
        self.push(v, Op::Affine { x, w, b }, self.wants_grad(&[x, w, b]))
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push_zip(a, b, Op::Add(a, b), |x, y| x + y)
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
        self.push_kernel(a, Op::Tanh(a), vmath::tanh_in_place)
    }

    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.push_kernel(a, Op::Sigmoid(a), vmath::logistic_in_place)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn lrelu(&mut self, a: NodeId, slope: f64) -> NodeId {
        self.push_map(a, Op::LRelu(a, slope), |x| infer::leaky(x, slope))
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

    /// Row-wise layer normalisation with learned gain and bias (`[1,d]`).
    pub fn layer_norm(&mut self, x: NodeId, gain: NodeId, bias: NodeId) -> NodeId {
        let buf = self.buf();
        let v = infer::layer_norm_into(
            buf,
            &self.nodes[x].val,
            &self.nodes[gain].val,
            &self.nodes[bias].val,
            |v| v,
        );
        let wants_grad = self.wants_grad(&[x, gain, bias]);
        self.push(v, Op::LayerNorm { x, gain, bias }, wants_grad)
    }

    /// One step of a GRU cell over `[B, ·]` rows: the new state
    /// `(1 - z)·h + z·c` from the input `x`, the state `h` and the parameter
    /// nodes `w` = `[W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h]`, its value
    /// that of [`infer::gru_gates_into`] and [`infer::gru_blend`]. One node
    /// with four leaves (`z`, `r`, `r·h`, `c`) where the composition of
    /// matmul, add, add_row, sigmoid, tanh, mul, scale and add_const nodes
    /// takes 21, and the same bits forward and backward: backward replays
    /// that composition's sweep, op for op and in its order (see
    /// `backprop_gru`), its gate products skipped for an operand that wants
    /// no gradient. Every node of `w` must be a [`Graph::param`].
    pub fn gru(&mut self, x: NodeId, h: NodeId, w: [NodeId; 9]) -> NodeId {
        assert!(
            w.iter().all(|&n| self.as_param(n).is_some()),
            "gru weights are parameter nodes"
        );
        let bufs = [0, 1, 2, 3].map(|ahead| self.buf_ahead(ahead));
        let (mut hu, mut out) = (self.workspace.take(), self.buf_ahead(4));
        let val = |n: NodeId| &self.nodes[n].val;
        let (xv, hv) = (val(x), val(h));
        let [z, r, rh, c] = infer::gru_gates_into(bufs, &mut hu, xv, hv, w.map(val));
        self.workspace.free.give(hu);
        let blend = z.data.iter().zip(&hv.data).zip(&c.data);
        out.extend(blend.map(|((&z, &h), &c)| infer::gru_blend(z, h, c)));
        let out = Array::from_vec(z.rows, z.cols, out);
        let gates = [z, r, rh, c].map(|v| self.push(v, Op::Leaf, false));
        let wants_grad = self.wants_grad(&[x, h]) || self.wants_grad(&w);
        self.push(out, Op::Gru { x, h, w, gates }, wants_grad)
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
        let (mut terms, mut logp) = (self.buf(), self.buf_ahead(1));
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
        terms.resize(n * 3 * k, 0.0);
        let rows = mv.row_slices().zip(sv.row_slices()).zip(wv.row_slices());
        for ((((m, s), w), &a), row) in rows.zip(&av.data).zip(terms.chunks_exact_mut(3 * k)) {
            let (resp, rest) = row.split_at_mut(k);
            let (weights, sigmas) = rest.split_at_mut(k);
            logp.push(gmm_row_logp(m, s, w, a, resp, weights, sigmas));
        }
        let terms = self.push(Array::from_vec(n, 3 * k, terms), Op::Leaf, false);
        let op = Op::GmmLogProb {
            means,
            log_stds,
            logits,
            action,
            terms,
        };
        let wants_grad = self.wants_grad(&[means, log_stds, logits]);
        self.push(Array::from_vec(n, 1, logp), op, wants_grad)
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
    /// the add separate (no FMA). An `affine` node is one op of its weight
    /// and one of its bias. These are the bits
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
        // No two contributions share a key: an op consumes a parameter once.
        refs.refs.sort_unstable_by_key(|r| (r.id, r.op));
        let mut rows = std::mem::take(&mut ws.fold).emptied();
        for of_param in refs.refs.chunk_by(|a, b| a.id == b.id) {
            let grad = self.reduce(of_param, &refs.grads, samples, &mut ws, &mut rows);
            store.params[of_param[0].id].grad.add_assign(&grad);
            ws.give(grad);
        }
        ws.fold = rows.emptied();
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
        refs.refs.sort_by_key(|r| r.op);
        let mut rows = FoldRows::default();
        let pairs = (refs.refs.chunks(1))
            .map(|r| (r[0].id, self.reduce(r, &refs.grads, 1, &mut ws, &mut rows)))
            .collect();
        ws.recycle(refs);
        self.workspace = ws;
        pairs
    }

    /// The gradient of every node that receives one in a sweep from `out`
    /// seeded with `seed`, as backward computes it.
    #[cfg(test)]
    pub(crate) fn node_grads(&mut self, out: NodeId, seed: f64) -> Vec<Option<Array>> {
        let mut ws = std::mem::take(&mut self.workspace);
        let mut grads = vec![None; self.nodes.len()];
        let refs = self.sweep(out, seed, &mut ws, |i, g| grads[i] = Some(g.clone()));
        ws.recycle(refs);
        self.workspace = ws;
        grads
    }

    /// The fold of [`Graph::backward_rows`] for one parameter, `refs` in op
    /// order, each reading its rows `g` from `grads`: the rows of every
    /// (sample, op) pair listed in fold order and cut into one segment per
    /// pair — one segment in all when every pair holds one row, where each
    /// partial sum is its one contribution and the two-level fold is flat.
    /// A weight's fold is [`infer::fold_tn_into`], which reads the rows in
    /// place: it keeps the inner index sequential from `+0.0` with a separate
    /// multiply and add, and the factor it skips (`x == 0.0`) is a
    /// contribution of `±0.0`, which moves no sum that started at `+0.0`. A
    /// broadcast parameter's `x` is a column of ones, and `1.0 · g` is `g`:
    /// its fold adds the rows of `g` themselves.
    fn reduce<'a>(
        &'a self,
        refs: &[ParamRef],
        grads: &'a [Array],
        samples: usize,
        ws: &mut Workspace,
        rows: &mut FoldRows<'a>,
    ) -> Array {
        let dout = grads[refs[0].g].cols;
        let flat = refs.iter().all(|r| grads[r.g].rows == samples);
        // Sample `b`'s rows of an op's `x` or `g`.
        fn rows_of(a: &Array, b: usize, samples: usize) -> impl Iterator<Item = &[f64]> {
            assert_eq!(a.rows % samples, 0, "rows must split evenly by sample");
            let per = a.rows / samples;
            (b * per..(b + 1) * per).map(|r| &a.data[r * a.cols..(r + 1) * a.cols])
        }
        rows.xs.clear();
        rows.gs.clear();
        rows.ends.clear();
        for b in 0..samples {
            for r in refs {
                debug_assert_eq!(r.x.is_some(), refs[0].x.is_some());
                rows.gs.extend(rows_of(&grads[r.g], b, samples));
                if let Some(x) = r.x {
                    rows.xs.extend(rows_of(&self.nodes[x].val, b, samples));
                }
                if !flat {
                    rows.ends.push(rows.gs.len());
                }
            }
        }
        if flat {
            rows.ends.push(rows.gs.len());
        }
        if let Some(x) = refs[0].x {
            let din = self.nodes[x].val.cols;
            return infer::fold_tn_into(ws.take(), &rows.xs, &rows.gs, &rows.ends, (din, dout));
        }
        let (mut acc, mut partial) = (ws.zeros(1, dout), ws.zeros(1, dout));
        let mut from = 0;
        for &end in &rows.ends {
            partial.data.fill(0.0);
            for row in &rows.gs[from..end] {
                partial
                    .data
                    .iter_mut()
                    .zip(*row)
                    .for_each(|(s, &g)| *s += g);
            }
            acc.add_assign(&partial);
            from = end;
        }
        ws.give(partial);
        acc
    }

    /// Backpropagate from `out` (every element seeded with `seed`) and return
    /// the unreduced parameter contributions, in the order the sweep met them.
    fn param_refs(&self, out: NodeId, seed: f64, ws: &mut Workspace) -> ParamRefs {
        self.sweep(out, seed, ws, |_, _| {})
    }

    /// [`Graph::param_refs`], showing `visit` each node's whole gradient
    /// before it is pushed on to the node's operands.
    fn sweep(
        &self,
        out: NodeId,
        seed: f64,
        ws: &mut Workspace,
        mut visit: impl FnMut(NodeId, &Array),
    ) -> ParamRefs {
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
                visit(i, &g);
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
        refs: &mut ParamRefs,
    ) {
        if let Some(id) = self.as_param(node) {
            let g = refs.keep(g);
            return refs.push(op, id, None, g);
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

    /// The gradients of a product `a · b` (a `matmul`, or an `affine` before
    /// its bias) for its operands, from its gradient `g`:
    /// `g · bᵀ` for `a`, and `aᵀ · g` for `b` unless `b` is a parameter,
    /// whose share is the caller's to record.
    fn backprop_product(&self, a: NodeId, b: NodeId, g: &Array, ws: &mut Workspace) {
        let nodes = &self.nodes;
        if nodes[a].wants_grad {
            let buf = ws.take();
            let da = infer::matmul_into(buf, g, ws.transpose_of(nodes, b));
            ws.accumulate(nodes, a, da);
        }
        if self.as_param(b).is_none() && nodes[b].wants_grad {
            let db = infer::matmul_tn_into(ws.take(), &nodes[a].val, g);
            ws.accumulate(nodes, b, db);
        }
    }

    /// Backward of the [`Graph::gru`] node `i` from the gradient `g` of the
    /// new state: the sweep of the 21-node composition it stands for, op for
    /// op. That sweep reaches the blend first (`z·c`, then `(1 - z)·h`), then
    /// the candidate gate, the reset gate and the update gate, so the
    /// gradient of `z` is `g·c` plus `(g·h)·(−1)`, `h` receives its shares in
    /// the order keep, `r·h`, `·U_rᵀ`, `·U_zᵀ` and `x` its shares in the
    /// order `·W_hᵀ`, `·W_rᵀ`, `·W_zᵀ`. Each gate's three parameters share its
    /// pre-activation gradient, as an `affine` node's weight and bias do.
    #[expect(
        clippy::neg_multiply,
        reason = "`z * -1.0` and `d * -1.0` are the composition's `scale(z, -1.0)` forward and backward"
    )]
    #[expect(
        clippy::too_many_arguments,
        reason = "the node, its operands and the sweep's state, as `backprop_node` holds them"
    )]
    fn backprop_gru(
        &self,
        i: NodeId,
        (x, h): (NodeId, NodeId),
        w: &[NodeId; 9],
        gates: &[NodeId; 4],
        mut g: Array,
        ws: &mut Workspace,
        refs: &mut ParamRefs,
    ) {
        let nodes = &self.nodes;
        let [z, r, _, c] = gates.map(|n| &nodes[n].val);
        let hv = &nodes[h].val;
        let (wants_x, wants_h) = (nodes[x].wants_grad, nodes[h].wants_grad);
        // `g · wᵀ` into the gradient of `to`.
        let product = |ws: &mut Workspace, g: &Array, w: NodeId, to: NodeId| {
            let buf = ws.take();
            let d = infer::matmul_into(buf, g, ws.transpose_of(nodes, w));
            ws.accumulate(nodes, to, d);
        };
        // new = z·c, keep = (z·(−1) + 1)·h.
        let mut dz = g.zip_into(ws.take(), c, |g, c| g * c);
        let mut dc = g.zip_into(ws.take(), z, |g, z| g * z);
        let d_keep = g.zip_into(ws.take(), hv, |g, h| g * h);
        if wants_h {
            g.zip_assign(z, |g, z| g * (z * -1.0 + 1.0));
            ws.accumulate(nodes, h, g);
        } else {
            ws.give(g);
        }
        dz.zip_assign(&d_keep, |dz, d| dz + d * -1.0);
        ws.give(d_keep);
        // c = tanh((x·W_h + (r·h)·U_h) + b_h).
        dc.zip_assign(c, |g, c| g * (1.0 - c * c));
        let buf = ws.take();
        let d_rh = infer::matmul_into(buf, &dc, ws.transpose_of(nodes, w[7]));
        let mut dr = d_rh.zip_into(ws.take(), hv, |g, h| g * h);
        if wants_h {
            let mut d = d_rh;
            d.zip_assign(r, |g, r| g * r);
            ws.accumulate(nodes, h, d);
        } else {
            ws.give(d_rh);
        }
        if wants_x {
            product(ws, &dc, w[6], x);
        }
        // r = σ((x·W_r + h·U_r) + b_r).
        dr.zip_assign(r, |g, y| g * y * (1.0 - y));
        if wants_h {
            product(ws, &dr, w[4], h);
        }
        if wants_x {
            product(ws, &dr, w[3], x);
        }
        // z = σ((x·W_z + h·U_z) + b_z).
        dz.zip_assign(z, |g, y| g * y * (1.0 - y));
        if wants_h {
            product(ws, &dz, w[1], h);
        }
        if wants_x {
            product(ws, &dz, w[0], x);
        }
        let ids = w.map(|n| match self.as_param(n) {
            Some(id) => id,
            None => unreachable!("gru weights are parameter nodes (`Graph::gru` asserts it)"),
        });
        let rh = gates[2];
        for (grad, by, ids) in [(dz, h, &ids[..3]), (dr, h, &ids[3..6]), (dc, rh, &ids[6..])] {
            let grad = refs.keep(grad);
            refs.push(i, ids[0], Some(x), grad);
            refs.push(i, ids[1], Some(by), grad);
            refs.push(i, ids[2], None, grad);
        }
    }

    /// Push `g`, the gradient of node `i`, on to the operands of its op. `g`
    /// is consumed: updated in place where an operand's gradient has its
    /// shape, handed back to the workspace otherwise.
    fn backprop_node(&self, i: NodeId, mut g: Array, ws: &mut Workspace, refs: &mut ParamRefs) {
        let nodes = &self.nodes;
        let val = |n: &NodeId| &nodes[*n].val;
        let wants = |n: &NodeId| nodes[*n].wants_grad;
        match &nodes[i].op {
            Op::Leaf => ws.give(g),
            Op::Param(_) => unreachable!(
                "a parameter's gradient is a row reduction: only matmul (right operand), \
                 affine (weight, bias), add_row (bias), layer_norm (gain, bias) and gru \
                 (weights, biases) may consume a Param node"
            ),
            Op::MatMul(a, b) => {
                self.backprop_product(*a, *b, &g, ws);
                match self.as_param(*b) {
                    Some(id) => {
                        let g = refs.keep(g);
                        refs.push(i, id, Some(*a), g);
                    }
                    None => ws.give(g),
                }
            }
            Op::Affine { x, w, b } => {
                self.backprop_product(*x, *w, &g, ws);
                match (self.as_param(*w), self.as_param(*b)) {
                    (Some(w), Some(b)) => {
                        let g = refs.keep(g);
                        refs.push(i, w, Some(*x), g);
                        refs.push(i, b, None, g);
                    }
                    (Some(w), None) => {
                        let copy = ws.copy_of(&g);
                        self.broadcast_grad(i, *b, copy, ws, refs);
                        let g = refs.keep(g);
                        refs.push(i, w, Some(*x), g);
                    }
                    (None, _) => self.broadcast_grad(i, *b, g, ws, refs),
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
                ws.free.give(xhat);
                ws.free.give(dyg);
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
                terms,
            } => {
                let (mv, av) = (val(means), val(action));
                let (n, k) = mv.shape();
                let (mut dm, mut ds, mut dw) = (ws.take(), ws.take(), ws.take());
                let rows = mv.row_slices().zip(val(terms).row_slices());
                for ((m, row), (&a, &gr)) in rows.zip(av.data.iter().zip(&g.data)) {
                    let (resp, rest) = row.split_at(k);
                    let (weights, sigmas) = rest.split_at(k);
                    for c in 0..k {
                        let sigma = sigmas[c];
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
            Op::Gru { x, h, w, gates } => self.backprop_gru(i, (*x, *h), w, gates, g, ws, refs),
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

/// Numerically stable log(sum(exp(xs))): `m + ln(Σ exp(x - m))` for `m` the
/// largest element, the sum folded in element order. The exponentials run
/// through [`vmath::exp_in_place`] in stack blocks of 64.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    let (mut sum, mut block) = (0.0, [0.0; 64]);
    for chunk in xs.chunks(block.len()) {
        let exps = &mut block[..chunk.len()];
        exps.iter_mut().zip(chunk).for_each(|(e, &x)| *e = x - m);
        vmath::exp_in_place(exps);
        sum = exps.iter().fold(sum, |s, &e| s + e);
    }
    m + sum.ln()
}

/// Replace `row` with its softmax, `exp(x - lse)` for `lse` the row's
/// [`log_sum_exp`], and return `lse`.
pub fn softmax_in_place(row: &mut [f64]) -> f64 {
    let lse = log_sum_exp(row);
    row.iter_mut().for_each(|x| *x -= lse);
    vmath::exp_in_place(row);
    lse
}

/// Row-wise [`softmax_in_place`] of a copy of `logits`.
pub fn softmax_rows(logits: &Array) -> Array {
    softmax_rows_into(Vec::new(), logits)
}

/// [`softmax_rows`] built in `buf`, [`infer::FOLD_ROWS`] rows at a time:
/// each row's [`log_sum_exp`] sum is its own left fold from `+0.0` in
/// element order ([`infer::fold_rows`]), so every element is
/// [`softmax_in_place`]'s bits.
pub fn softmax_rows_into(mut buf: Vec<f64>, logits: &Array) -> Array {
    let cols = logits.cols;
    buf.clear();
    buf.extend_from_slice(&logits.data);
    let block = infer::FOLD_ROWS * cols.max(1);
    for (out, xs) in buf.chunks_mut(block).zip(logits.data.chunks(block)) {
        let mut lse = [0.0; infer::FOLD_ROWS];
        for ((lse, row), xs) in lse
            .iter_mut()
            .zip(out.chunks_exact_mut(cols.max(1)))
            .zip(xs.chunks_exact(cols.max(1)))
        {
            *lse = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            row.iter_mut().zip(xs).for_each(|(e, &x)| *e = x - *lse);
        }
        vmath::exp_in_place(out);
        let sums = infer::fold_rows(out, cols, 0.0, |_, _, e| e);
        for (((lse, sum), row), xs) in lse
            .iter_mut()
            .zip(sums)
            .zip(out.chunks_exact_mut(cols.max(1)))
            .zip(xs.chunks_exact(cols.max(1)))
        {
            if !lse.is_infinite() {
                *lse += sum.ln();
            }
            row.iter_mut().zip(xs).for_each(|(p, &x)| *p = x - *lse);
        }
        vmath::exp_in_place(out);
    }
    Array::from_vec(logits.rows, cols, buf)
}

const LOG_SQRT_2PI: f64 = 0.918_938_533_204_672_8;

/// Log-density of the mixture at `a`; leaves the component responsibilities
/// in `resp`, the softmax weights in `weights` and the standard deviations
/// in `sigmas` (for gradients), each of the mixture's length.
fn gmm_row_logp(
    means: &[f64],
    log_stds: &[f64],
    logits: &[f64],
    a: f64,
    resp: &mut [f64],
    weights: &mut [f64],
    sigmas: &mut [f64],
) -> f64 {
    weights.copy_from_slice(logits);
    let logw_norm = softmax_in_place(weights);
    sigmas.copy_from_slice(log_stds);
    vmath::exp_in_place(sigmas);
    // `resp` holds the joint log-densities until `logp` is known.
    for c in 0..means.len() {
        let logw = logits[c] - logw_norm;
        let z = (a - means[c]) / sigmas[c];
        let log_pdf = -0.5 * z * z - log_stds[c] - LOG_SQRT_2PI;
        resp[c] = logw + log_pdf;
    }
    softmax_in_place(resp)
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
    fn grad_sigmoid_mul() {
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
                let b = g.tanh(h);
                let c = g.mul(a, b);
                let c = g.add_const(c, 1.0);
                g.mean(c)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_concat_scale() {
        let mut rng = Rng::new(4);
        let mut store = ParamStore::new();
        let w = store.glorot("w", 4, 4, &mut rng);
        grad_check(
            &mut store,
            &move |g, s| {
                let x = x_input(g);
                let wa = g.param(s, w);
                let h = g.matmul(x, wa);
                let a = g.sigmoid(h);
                let cat = g.concat_cols(a, h);
                let sc = g.scale(cat, 0.5);
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

    /// `log_sum_exp` and the softmax are their scalar definitions through
    /// libm, bit for bit, on rows shorter and longer than a stack block.
    #[test]
    fn log_sum_exp_and_softmax_are_their_libm_definitions() {
        let mut rng = Rng::new(0x15E);
        for len in (0..20).chain([41, 63, 64, 65, 130]) {
            for _ in 0..20 {
                let xs: Vec<f64> = (0..len).map(|_| rng.range(-40.0, 40.0)).collect();
                let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let want = if m.is_infinite() {
                    m
                } else {
                    m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
                };
                assert_eq!(log_sum_exp(&xs).to_bits(), want.to_bits(), "length {len}");
                let probs = softmax_rows(&Array::from_vec(1, len, xs.clone()));
                for (p, &x) in probs.iter().zip(&xs) {
                    assert_eq!(p.to_bits(), (x - want).exp().to_bits(), "length {len}");
                }
            }
        }
    }

    /// The row-interleaved folds are their row-serial definitions, bit for
    /// bit (a NaN as a NaN): `softmax_rows` is `softmax_in_place` per row,
    /// `layer_norm_into` normalises by each row's `row_moments`, and
    /// `fold_rows` is a left fold per row from `+0.0` and from `-0.0` —
    /// over row counts whose last block is partial, widths below, at and
    /// past a block of 8 and 48, rows of `-0.0`, and rows holding `±inf`
    /// or `NaN` (softmax's infinite-max path).
    #[test]
    fn interleaved_folds_are_their_row_serial_definitions() {
        let mut rng = Rng::new(0xF01D);
        let bits = |xs: &[f64]| -> Vec<u64> {
            (xs.iter())
                .map(|&x| if x.is_nan() { f64::NAN } else { x }.to_bits())
                .collect()
        };
        for cols in [1, 3, 41, 48] {
            for rows in 0..=17 {
                let mut data = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    data.extend((0..cols).map(|_| match r % 5 {
                        // A row of `-0.0`.
                        0 => -0.0,
                        1 => match rng.below(6) {
                            0 => f64::INFINITY,
                            1 => f64::NEG_INFINITY,
                            2 => f64::NAN,
                            _ => rng.range(-40.0, 40.0),
                        },
                        _ => rng.range(-40.0, 40.0),
                    }));
                }
                let logits = Array::from_vec(rows, cols, data);
                let mut want = logits.data.clone();
                want.chunks_exact_mut(cols).for_each(|row| {
                    softmax_in_place(row);
                });
                let got = softmax_rows_into(vec![7.0; 3], &logits);
                assert_eq!(got.shape(), (rows, cols));
                assert_eq!(bits(&got.data), bits(&want), "softmax, {rows} x {cols}");
                let gain = Array::row((0..cols).map(|_| rng.range(-2.0, 2.0)).collect());
                let bias = Array::row((0..cols).map(|_| rng.range(-2.0, 2.0)).collect());
                let got = infer::layer_norm_into(Vec::new(), &logits, &gain, &bias, |v| v);
                let mut want = Vec::new();
                for row in logits.row_slices() {
                    let (mu, sd) = infer::row_moments(row);
                    let affine = row.iter().zip(&gain.data).zip(&bias.data);
                    want.extend(affine.map(|((&x, &g), &b)| g * ((x - mu) / sd) + b));
                }
                assert_eq!(bits(&got.data), bits(&want), "layer norm, {rows} x {cols}");
                for init in [0.0, -0.0] {
                    let term = |r: usize, c: usize, x: f64| x * (1.0 + (r + c) as f64);
                    let mut got = Vec::new();
                    for (b, block) in logits.data.chunks(infer::FOLD_ROWS * cols).enumerate() {
                        let sums = infer::fold_rows(block, cols, init, |r, c, x| {
                            term(b * infer::FOLD_ROWS + r, c, x)
                        });
                        got.extend_from_slice(&sums[..block.len() / cols]);
                    }
                    let want: Vec<f64> = (logits.row_slices().enumerate())
                        .map(|(r, row)| {
                            (row.iter().enumerate()).fold(init, |a, (c, &x)| a + term(r, c, x))
                        })
                        .collect();
                    assert_eq!(bits(&got), bits(&want), "fold from {init}, {rows} x {cols}");
                }
            }
        }
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
        let (mut resp, mut w, mut sigma) = ([0.0], [0.0], [0.0]);
        let logp = gmm_row_logp(&[0.5], &[0.0], &[0.3], 1.0, &mut resp, &mut w, &mut sigma);
        let expected = -0.5 * 0.25 - 0.0 - LOG_SQRT_2PI;
        assert!((logp - expected).abs() < 1e-12);
        assert!((resp[0] - 1.0).abs() < 1e-12);
        assert!((w[0] - 1.0).abs() < 1e-12);
    }
}
