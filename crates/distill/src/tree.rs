//! Deterministic CART regression tree over the 69-dim GR observation.
//!
//! Fitting is greedy variance reduction: at each node every feature is
//! scanned with a fixed set of quantile candidate thresholds, and the split
//! with the strictly largest sum-of-squares reduction wins; ties break by
//! (lowest feature index, lowest threshold bits) and all sums accumulate in
//! row order, so two equal datasets fit bit-identical trees. Leaves carry
//! the target mean, optionally refined by a closed-form single-feature
//! linear term, clamped to the leaf's observed target range so inference
//! can never extrapolate outside what the policy actually emitted.
//!
//! Each feature's row ids are sorted once, at the root; a split stably
//! partitions those lists into its children, so a node's candidate sample
//! comes out already sorted. Per node, each feature's column is gathered
//! once, in row order, and one branch-free pass over it scores every
//! candidate threshold of that feature ([`scan`] says why the masked sums
//! keep the bits of the branchy ones). The tests keep the per-node-sort,
//! pass-per-candidate fit as the reference the fast one must equal.
//!
//! Inference is a pure compare-walk (`x[feat] <= thresh`) — no matmul, no
//! standardisation, no allocation — which is what makes the symbolic
//! serving tier ns-scale. A tree is never written to disk: it is fitted in
//! the process that serves or scores it.

use crate::dataset::Dataset;
use sage_util::Fnv64;

/// Sentinel feature index marking a leaf (or "no linear term").
const NONE_FEAT: u32 = u32::MAX;

/// A node of `n` rows draws its candidate thresholds from every
/// `max(n / QUANTILE_SAMPLE, 1)`-th row (fewer than `2 · QUANTILE_SAMPLE`
/// values). Part of what the fit computes: another value fits other trees.
const QUANTILE_SAMPLE: usize = 1024;

/// Fitting hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples on each side of a split.
    pub min_leaf: usize,
    /// Candidate thresholds per feature per node (quantiles).
    pub candidates: usize,
    /// Refine leaves with a closed-form single-feature linear fit when it
    /// reduces the leaf SSE by >1%.
    pub leaf_linear: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 10,
            min_leaf: 32,
            candidates: 16,
            leaf_linear: true,
        }
    }
}

/// One tree node. Internal nodes route `x[feat] <= thresh` to `left`, else
/// `right`; leaves (`feat == NONE_FEAT`) emit
/// `clamp(value + lin_slope * x[lin_feat], lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeNode {
    pub feat: u32,
    pub thresh: f64,
    pub left: u32,
    pub right: u32,
    pub value: f64,
    pub lin_feat: u32,
    pub lin_slope: f64,
    /// Leaf output clamp: the observed target range of the leaf's samples.
    pub lo: f64,
    pub hi: f64,
}

impl TreeNode {
    fn leaf(value: f64, lo: f64, hi: f64) -> TreeNode {
        TreeNode {
            feat: NONE_FEAT,
            thresh: 0.0,
            left: 0,
            right: 0,
            value,
            lin_feat: NONE_FEAT,
            lin_slope: 0.0,
            lo,
            hi,
        }
    }

    pub fn is_leaf(&self) -> bool {
        self.feat == NONE_FEAT
    }
}

/// A fitted symbolic policy: the tree plus the input dimension it expects.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicModel {
    pub dim: usize,
    pub cfg: TreeConfig,
    pub nodes: Vec<TreeNode>,
}

/// Sums needed to score a split side.
#[derive(Clone, Copy, Default)]
struct Moments {
    n: f64,
    sum: f64,
    sumsq: f64,
}

impl Moments {
    fn push(&mut self, y: f64) {
        self.n += 1.0;
        self.sum += y;
        self.sumsq += y * y;
    }

    /// Sum of squared errors around the mean.
    fn sse(&self) -> f64 {
        if self.n <= 0.0 {
            return 0.0;
        }
        (self.sumsq - self.sum * self.sum / self.n).max(0.0)
    }
}

/// Widest block of candidate thresholds one scan pass scores: four sums ×
/// 4 lanes and the thresholds fit the 16 vector registers of baseline
/// x86-64; 8 lanes spill and scan about half as fast.
const LANES: usize = 4;

/// One fit's working set. Every node owns a range `lo..hi` of `rows` (its
/// row ids, ascending) and the same range of each feature's slice of
/// `order` (those rows sorted by that feature's value); a split stably
/// partitions both, so the children own the two halves. Everything else
/// is scratch that every node reuses. Features are finite, as
/// [`Dataset::push`] admits them: `x <= t` then holds on a prefix of every
/// sorted slice.
struct Fit<'a> {
    ds: &'a Dataset,
    cfg: TreeConfig,
    nodes: Vec<TreeNode>,
    rows: Vec<u32>,
    /// `dim` slices of `ds.len()` row ids, presorted once by `total_cmp`.
    order: Vec<u32>,
    /// Per row id: its position in the node's `rows` range.
    pos: Vec<u32>,
    /// Per row id: in the node's strided candidate sample.
    sampled: Vec<bool>,
    /// Per row id: goes left at the split being applied.
    goes_left: Vec<bool>,
    /// The node's targets, in row order.
    ys: Vec<f64>,
    /// One feature of the node, in row order.
    col: Vec<f64>,
    /// The node's sorted, deduped candidate sample of one feature.
    vals: Vec<f64>,
    /// The candidate thresholds that leave `min_leaf` rows on each side,
    /// their left counts, and their `[left sum, left sumsq, right sum,
    /// right sumsq]`.
    thresholds: Vec<f64>,
    n_left: Vec<usize>,
    sums: Vec<[f64; 4]>,
    spill: Vec<u32>,
}

impl<'a> Fit<'a> {
    fn new(ds: &'a Dataset, cfg: TreeConfig) -> Fit<'a> {
        let n = ds.len();
        let all: Vec<u32> = (0..n as u32).collect();
        let mut fit = Fit {
            ds,
            cfg,
            nodes: Vec::new(),
            rows: all.clone(),
            order: Vec::with_capacity(n * ds.dim),
            pos: vec![0; n],
            sampled: vec![false; n],
            goes_left: vec![false; n],
            ys: Vec::new(),
            col: Vec::new(),
            vals: Vec::new(),
            thresholds: Vec::new(),
            n_left: Vec::new(),
            sums: Vec::new(),
            spill: Vec::new(),
        };
        let mut keyed: Vec<u128> = Vec::with_capacity(n);
        for feat in 0..ds.dim {
            keyed.clear();
            keyed.extend(
                (0..n).map(|r| {
                    u128::from(total_order_key(ds.xs[r * ds.dim + feat])) << 32 | r as u128
                }),
            );
            keyed.sort_unstable();
            fit.order.extend(keyed.iter().map(|&k| k as u32));
        }
        fit
    }

    /// Fit the node owning `lo..hi`; returns its index in `nodes`.
    /// Children are always pushed after their parent, so child indices are
    /// strictly greater — the load-time validation relies on this to prove
    /// the walk terminates.
    fn node(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        let mut m = Moments::default();
        let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        self.ys.clear();
        for &r in &self.rows[lo..hi] {
            let y = self.ds.ys[r as usize];
            m.push(y);
            y_lo = y_lo.min(y);
            y_hi = y_hi.max(y);
            self.ys.push(y);
        }
        let mean = m.sum / m.n;
        let sse = m.sse();
        let splittable =
            depth < self.cfg.max_depth && hi - lo >= 2 * self.cfg.min_leaf && sse > 1e-12;
        let best = if splittable {
            self.best_split(lo, hi, sse)
        } else {
            None
        };
        let Some((feat, thresh)) = best else {
            return self.leaf(lo, hi, mean, sse, y_lo, y_hi);
        };
        let node_at = self.nodes.len() as u32;
        self.nodes.push(TreeNode {
            feat: feat as u32,
            thresh,
            left: 0,
            right: 0,
            value: mean,
            lin_feat: NONE_FEAT,
            lin_slope: 0.0,
            lo: y_lo,
            hi: y_hi,
        });
        let mid = lo + self.split(lo, hi, feat, thresh, depth);
        let left = self.node(lo, mid, depth + 1);
        let right = self.node(mid, hi, depth + 1);
        self.nodes[node_at as usize].left = left;
        self.nodes[node_at as usize].right = right;
        node_at
    }

    /// The strictly-best (feature, threshold) by SSE reduction, or `None`
    /// when no candidate satisfies `min_leaf` on both sides with a positive
    /// gain. One pass over each feature's column scores all its candidates.
    fn best_split(&mut self, lo: usize, hi: usize, parent_sse: f64) -> Option<(usize, f64)> {
        let (ds, n) = (self.ds, hi - lo);
        let stride = (n / QUANTILE_SAMPLE).max(1);
        for (k, &r) in self.rows[lo..hi].iter().enumerate() {
            self.pos[r as usize] = k as u32;
            self.sampled[r as usize] = k % stride == 0;
        }
        let mut best: Option<(f64, usize, f64)> = None;
        for feat in 0..ds.dim {
            gather(ds, &self.rows[lo..hi], feat, &mut self.col);
            // The sample in `total_cmp` order is the presorted slice
            // filtered to the sampled rows: what sorting the sample gives,
            // since values equal under `total_cmp` have equal bits.
            let sorted = &self.order[feat * ds.len() + lo..feat * ds.len() + hi];
            let (col, pos) = (&self.col, &self.pos);
            let value = |r: &u32| col[pos[*r as usize] as usize];
            self.vals.clear();
            if stride == 1 {
                self.vals.extend(sorted.iter().map(value));
            } else {
                let sampled = &self.sampled;
                self.vals
                    .extend(sorted.iter().filter(|&&r| sampled[r as usize]).map(value));
            }
            self.vals.dedup();
            quantile_midpoints(&self.vals, self.cfg.candidates, &mut self.thresholds);
            // The left count is the length of the `x <= t` prefix; a
            // candidate that leaves fewer than `min_leaf` rows on a side is
            // never scanned.
            let min_leaf = self.cfg.min_leaf;
            let n_left = &mut self.n_left;
            n_left.clear();
            self.thresholds.retain(|&t| {
                let k = sorted.partition_point(|r| value(r) <= t);
                let keep = k >= min_leaf && n - k >= min_leaf;
                if keep {
                    n_left.push(k);
                }
                keep
            });
            if self.thresholds.is_empty() {
                continue;
            }
            self.sums.clear();
            for block in self.thresholds.chunks(LANES) {
                match block.len() {
                    1 => scan::<1>(&self.col, &self.ys, block, &mut self.sums),
                    2 => scan::<2>(&self.col, &self.ys, block, &mut self.sums),
                    _ => scan::<LANES>(&self.col, &self.ys, block, &mut self.sums),
                }
            }
            let scored = self.thresholds.iter().zip(&self.n_left).zip(&self.sums);
            for ((&thresh, &n_left), &[ls, lss, rs, rss]) in scored {
                let left = Moments {
                    n: n_left as f64,
                    sum: ls,
                    sumsq: lss,
                };
                let right = Moments {
                    n: (n - n_left) as f64,
                    sum: rs,
                    sumsq: rss,
                };
                let gain = parent_sse - left.sse() - right.sse();
                // Strict `>`: the first candidate (lowest feature, lowest
                // threshold) wins ties, making the argmax total.
                if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, feat, thresh));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    /// Apply the split to `lo..hi`: stably partition its rows, and each
    /// feature's sorted slice when a child can split again. Returns the
    /// left child's size.
    fn split(&mut self, lo: usize, hi: usize, feat: usize, thresh: f64, depth: usize) -> usize {
        let ds = self.ds;
        for &r in &self.rows[lo..hi] {
            self.goes_left[r as usize] = ds.xs[r as usize * ds.dim + feat] <= thresh;
        }
        let n_left = stable_partition(&mut self.rows[lo..hi], &self.goes_left, &mut self.spill);
        let min_split = 2 * self.cfg.min_leaf;
        if depth + 1 < self.cfg.max_depth && (n_left >= min_split || hi - lo - n_left >= min_split)
        {
            for sorted in self.order.chunks_exact_mut(ds.len()) {
                stable_partition(&mut sorted[lo..hi], &self.goes_left, &mut self.spill);
            }
        }
        n_left
    }

    /// Emit a leaf, optionally refined by the best single-feature linear
    /// term (closed-form least squares; accepted only when it cuts the SSE
    /// by more than 1% and the slope is finite).
    fn leaf(&mut self, lo: usize, hi: usize, mean: f64, sse: f64, y_lo: f64, y_hi: f64) -> u32 {
        let mut node = TreeNode::leaf(mean, y_lo, y_hi);
        if self.cfg.leaf_linear && hi - lo >= 2 && sse > 1e-12 {
            let n = (hi - lo) as f64;
            let sy: f64 = self.ys.iter().copied().sum();
            let mut best: Option<(f64, usize, f64, f64)> = None; // (sse, feat, slope, icept)
            for feat in 0..self.ds.dim {
                gather(self.ds, &self.rows[lo..hi], feat, &mut self.col);
                let (mut sx, mut sxx, mut sxy) = (0.0, 0.0, 0.0);
                for (&x, &y) in self.col.iter().zip(&self.ys) {
                    sx += x;
                    sxx += x * x;
                    sxy += x * y;
                }
                let den = n * sxx - sx * sx;
                if den <= 1e-12 {
                    continue;
                }
                let slope = (n * sxy - sx * sy) / den;
                if !slope.is_finite() {
                    continue;
                }
                let icept = (sy - slope * sx) / n;
                // SSE of the linear fit = SSE_const - slope * centred Sxy.
                let sxy_c = sxy - sx * sy / n;
                let lin_sse = (sse - slope * sxy_c).max(0.0);
                if lin_sse < sse * 0.99 && best.is_none_or(|(s, _, _, _)| lin_sse < s) {
                    best = Some((lin_sse, feat, slope, icept));
                }
            }
            if let Some((_, feat, slope, icept)) = best {
                node.lin_feat = feat as u32;
                node.lin_slope = slope;
                node.value = icept;
            }
        }
        let at = self.nodes.len() as u32;
        self.nodes.push(node);
        at
    }
}

/// `col` := feature `feat` of `rows`, in that order.
fn gather(ds: &Dataset, rows: &[u32], feat: usize, col: &mut Vec<f64>) {
    col.clear();
    col.extend(rows.iter().map(|&r| ds.xs[r as usize * ds.dim + feat]));
}

/// Quantile candidate thresholds from a node's sorted, deduped sample:
/// `candidates` midpoints between distinct neighbours, each `t` satisfying
/// `vals[k-1] <= t < vals[k]`, strictly increasing.
fn quantile_midpoints(vals: &[f64], candidates: usize, out: &mut Vec<f64>) {
    out.clear();
    if vals.len() < 2 {
        return;
    }
    let c = candidates.min(vals.len() - 1);
    for j in 1..=c {
        let k = (j * vals.len() / (c + 1)).clamp(1, vals.len() - 1);
        let (a, b) = (vals[k - 1], vals[k]);
        let mid = 0.5 * (a + b);
        let t = if mid < b { mid } else { a };
        if out.last() != Some(&t) {
            out.push(t);
        }
    }
}

/// Append `[left sum, left sumsq, right sum, right sumsq]` of each
/// threshold in `block` (at most `L`; the padding lanes are dropped) over
/// one column, in one pass. Every row adds to every lane; a row on the
/// other side adds `+0.0`, which leaves the sum's bits alone because an
/// accumulator that starts at `+0.0` never becomes `-0.0` under
/// round-to-nearest — so each lane equals the branchy row-order sum bit
/// for bit.
fn scan<const L: usize>(col: &[f64], ys: &[f64], block: &[f64], out: &mut Vec<[f64; 4]>) {
    let mut t = [f64::NEG_INFINITY; L];
    t[..block.len()].copy_from_slice(block);
    let (mut ls, mut lss) = ([0.0; L], [0.0; L]);
    let (mut rs, mut rss) = ([0.0; L], [0.0; L]);
    for (&x, &y) in col.iter().zip(ys) {
        let (y, yy) = (y.to_bits(), (y * y).to_bits());
        // All ones where the row goes left; `bits & 0` is `+0.0`.
        let left: [u64; L] = std::array::from_fn(|j| 0u64.wrapping_sub(u64::from(x <= t[j])));
        for j in 0..L {
            ls[j] += f64::from_bits(y & left[j]);
        }
        for j in 0..L {
            lss[j] += f64::from_bits(yy & left[j]);
        }
        for j in 0..L {
            rs[j] += f64::from_bits(y & !left[j]);
        }
        for j in 0..L {
            rss[j] += f64::from_bits(yy & !left[j]);
        }
    }
    out.extend((0..block.len()).map(|j| [ls[j], lss[j], rs[j], rss[j]]));
}

/// Stably move the rows with `goes_left[row]` to the front of `seg`;
/// returns how many there are.
fn stable_partition(seg: &mut [u32], goes_left: &[bool], spill: &mut Vec<u32>) -> usize {
    // Branch-free: each row is written to both sides, and only the side
    // it belongs to advances.
    spill.resize(seg.len(), 0);
    let (mut n_left, mut n_right) = (0, 0);
    for i in 0..seg.len() {
        let r = seg[i];
        let left = goes_left[r as usize];
        seg[n_left] = r;
        spill[n_right] = r;
        n_left += usize::from(left);
        n_right += usize::from(!left);
    }
    seg[n_left..].copy_from_slice(&spill[..n_right]);
    n_left
}

/// `f64::total_cmp` order as an unsigned key: negatives have every bit
/// flipped, the rest only the sign bit.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

impl SymbolicModel {
    /// Fit a tree to `ds`. Deterministic: equal datasets (same rows, same
    /// order) produce bit-identical trees at any thread count (fitting is
    /// serial; the parallel fan-out lives in the harvest, upstream).
    pub fn fit(ds: &Dataset, cfg: &TreeConfig) -> SymbolicModel {
        let cfg = TreeConfig {
            max_depth: cfg.max_depth.clamp(1, 64),
            min_leaf: cfg.min_leaf.max(1),
            candidates: cfg.candidates.clamp(1, 256),
            leaf_linear: cfg.leaf_linear,
        };
        let nodes = if ds.is_empty() || ds.dim == 0 {
            vec![TreeNode::leaf(0.0, 0.0, 0.0)]
        } else {
            let mut fit = Fit::new(ds, cfg);
            fit.node(0, ds.len(), 0);
            fit.nodes
        };
        SymbolicModel {
            dim: ds.dim,
            cfg,
            nodes,
        }
    }

    /// Predict the (scaled) mean action for one raw state vector. A pure
    /// compare-walk; `NaN` features compare false and route right, so even
    /// garbage input terminates deterministically.
    #[inline]
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            let n = &self.nodes[at];
            if n.is_leaf() {
                let raw = if n.lin_feat == NONE_FEAT {
                    n.value
                } else {
                    n.value + n.lin_slope * x[n.lin_feat as usize]
                };
                // A NaN feature would poison the linear term; fall back to
                // the leaf intercept so the output always lands in range.
                return if raw.is_finite() { raw } else { n.value }.clamp(n.lo, n.hi);
            }
            at = if x[n.feat as usize] <= n.thresh {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    }

    /// Actual depth of the fitted tree (root = depth 0).
    pub fn depth(&self) -> usize {
        // Children always follow parents, so one forward pass suffices.
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.is_leaf() {
                depth[n.left as usize] = depth[i] + 1;
                depth[n.right as usize] = depth[i] + 1;
                max = max.max(depth[i] + 1);
            }
        }
        max
    }

    /// Bit-faithful fingerprint of the whole tree.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.dim as u64);
        h.write_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            h.write_u64(n.feat as u64);
            h.write_f64(n.thresh);
            h.write_u64(n.left as u64);
            h.write_u64(n.right as u64);
            h.write_f64(n.value);
            h.write_u64(n.lin_feat as u64);
            h.write_f64(n.lin_slope);
            h.write_f64(n.lo);
            h.write_f64(n.hi);
        }
        h.finish()
    }
}

/// The fit as it was before the one-pass scan — per node and feature, a
/// freshly sorted sample and one branchy pass per candidate — kept as the
/// oracle the fast fit must equal bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn fit(ds: &Dataset, cfg: &TreeConfig) -> SymbolicModel {
        // No rows: the clamped config and the null leaf, cleared below.
        let mut model = SymbolicModel::fit(&Dataset::new(ds.dim), cfg);
        if !ds.is_empty() && ds.dim > 0 {
            model.nodes.clear();
            fit_node(&mut model, ds, (0..ds.len() as u32).collect(), 0);
        }
        model
    }

    fn fit_node(model: &mut SymbolicModel, ds: &Dataset, idx: Vec<u32>, depth: usize) -> u32 {
        let mut m = Moments::default();
        let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &i in &idx {
            let y = ds.ys[i as usize];
            m.push(y);
            y_lo = y_lo.min(y);
            y_hi = y_hi.max(y);
        }
        let mean = m.sum / m.n;
        let sse = m.sse();
        let splittable =
            depth < model.cfg.max_depth && idx.len() >= 2 * model.cfg.min_leaf && sse > 1e-12;
        let best = if splittable {
            best_split(model, ds, &idx, sse)
        } else {
            None
        };
        let Some((feat, thresh)) = best else {
            return push_leaf(model, ds, &idx, mean, sse, y_lo, y_hi);
        };
        let node_at = model.nodes.len() as u32;
        model.nodes.push(TreeNode {
            feat: feat as u32,
            thresh,
            left: 0,
            right: 0,
            value: mean,
            lin_feat: NONE_FEAT,
            lin_slope: 0.0,
            lo: y_lo,
            hi: y_hi,
        });
        let (li, ri): (Vec<u32>, Vec<u32>) = idx
            .iter()
            .partition(|&&i| ds.row(i as usize)[feat] <= thresh);
        let left = fit_node(model, ds, li, depth + 1);
        let right = fit_node(model, ds, ri, depth + 1);
        model.nodes[node_at as usize].left = left;
        model.nodes[node_at as usize].right = right;
        node_at
    }

    fn best_split(
        model: &SymbolicModel,
        ds: &Dataset,
        idx: &[u32],
        parent_sse: f64,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(f64, usize, f64)> = None;
        for feat in 0..model.dim {
            for thresh in candidate_thresholds(model, ds, idx, feat) {
                let mut left = Moments::default();
                let mut right = Moments::default();
                for &i in idx {
                    if ds.row(i as usize)[feat] <= thresh {
                        left.push(ds.ys[i as usize]);
                    } else {
                        right.push(ds.ys[i as usize]);
                    }
                }
                if (left.n as usize) < model.cfg.min_leaf || (right.n as usize) < model.cfg.min_leaf
                {
                    continue;
                }
                let gain = parent_sse - left.sse() - right.sse();
                if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, feat, thresh));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    fn candidate_thresholds(
        model: &SymbolicModel,
        ds: &Dataset,
        idx: &[u32],
        feat: usize,
    ) -> Vec<f64> {
        let stride = (idx.len() / QUANTILE_SAMPLE).max(1);
        let mut vals: Vec<f64> = idx
            .iter()
            .step_by(stride)
            .map(|&i| ds.row(i as usize)[feat])
            .collect();
        vals.sort_unstable_by(f64::total_cmp);
        vals.dedup();
        let mut out = Vec::new();
        quantile_midpoints(&vals, model.cfg.candidates, &mut out);
        out
    }

    fn push_leaf(
        model: &mut SymbolicModel,
        ds: &Dataset,
        idx: &[u32],
        mean: f64,
        sse: f64,
        y_lo: f64,
        y_hi: f64,
    ) -> u32 {
        let mut node = TreeNode::leaf(mean, y_lo, y_hi);
        if model.cfg.leaf_linear && idx.len() >= 2 && sse > 1e-12 {
            let n = idx.len() as f64;
            let sy: f64 = idx.iter().map(|&i| ds.ys[i as usize]).sum();
            let mut best: Option<(f64, usize, f64, f64)> = None;
            for feat in 0..model.dim {
                let (mut sx, mut sxx, mut sxy) = (0.0, 0.0, 0.0);
                for &i in idx {
                    let x = ds.row(i as usize)[feat];
                    let y = ds.ys[i as usize];
                    sx += x;
                    sxx += x * x;
                    sxy += x * y;
                }
                let den = n * sxx - sx * sx;
                if den <= 1e-12 {
                    continue;
                }
                let slope = (n * sxy - sx * sy) / den;
                if !slope.is_finite() {
                    continue;
                }
                let icept = (sy - slope * sx) / n;
                let sxy_c = sxy - sx * sy / n;
                let lin_sse = (sse - slope * sxy_c).max(0.0);
                if lin_sse < sse * 0.99 && best.is_none_or(|(s, _, _, _)| lin_sse < s) {
                    best = Some((lin_sse, feat, slope, icept));
                }
            }
            if let Some((_, feat, slope, icept)) = best {
                node.lin_feat = feat as u32;
                node.lin_slope = slope;
                node.value = icept;
            }
        }
        model.nodes.push(node);
        (model.nodes.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_util::prop::{ensure, forall, PropConfig};
    use sage_util::Rng;

    /// y = sign structure on two features, plus noise.
    fn synthetic(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::new(seed);
        let mut ds = Dataset::new(4);
        for _ in 0..n {
            let x: Vec<f64> = (0..4).map(|_| rng.uniform() * 2.0 - 1.0).collect();
            let y = if x[1] <= 0.2 { 3.0 } else { -2.0 } + 0.5 * x[3] + 0.01 * rng.uniform();
            ds.push(&x, y);
        }
        ds
    }

    #[test]
    fn fit_recovers_the_split_structure() {
        let ds = synthetic(2000, 7);
        let m = SymbolicModel::fit(
            &ds,
            &TreeConfig {
                max_depth: 6,
                min_leaf: 20,
                ..TreeConfig::default()
            },
        );
        assert!(!m.nodes.is_empty());
        assert!(m.depth() <= 6);
        // The root split should be on feature 1 near 0.2.
        assert_eq!(m.nodes[0].feat, 1);
        assert!(
            (m.nodes[0].thresh - 0.2).abs() < 0.15,
            "{}",
            m.nodes[0].thresh
        );
        // Predictions separate the two regimes.
        let hi = m.predict(&[0.0, -0.5, 0.0, 0.0]);
        let lo = m.predict(&[0.0, 0.8, 0.0, 0.0]);
        assert!(hi > 2.0 && lo < -1.0, "hi {hi} lo {lo}");
    }

    #[test]
    fn fit_is_deterministic() {
        let ds = synthetic(1500, 3);
        let a = SymbolicModel::fit(&ds, &TreeConfig::default());
        let b = SymbolicModel::fit(&ds, &TreeConfig::default());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
    }

    #[test]
    fn leaf_linear_beats_constant_on_linear_data() {
        let mut rng = Rng::new(11);
        let mut ds = Dataset::new(2);
        for _ in 0..500 {
            let x = vec![rng.uniform(), rng.uniform()];
            ds.push(&x.clone(), 2.0 * x[0] - 1.0);
        }
        let lin = SymbolicModel::fit(
            &ds,
            &TreeConfig {
                max_depth: 1,
                min_leaf: 50,
                leaf_linear: true,
                ..TreeConfig::default()
            },
        );
        let sse: f64 = (0..ds.len())
            .map(|i| (lin.predict(ds.row(i)) - ds.ys[i]).powi(2))
            .sum();
        assert!(
            sse < 1e-6,
            "linear leaves should nail a linear target: {sse}"
        );
    }

    #[test]
    fn predictions_stay_within_observed_target_range() {
        let ds = synthetic(800, 19);
        let (lo, hi) = ds
            .ys
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &y| {
                (l.min(y), h.max(y))
            });
        let m = SymbolicModel::fit(&ds, &TreeConfig::default());
        let mut rng = Rng::new(5);
        for _ in 0..200 {
            // Far outside the training support.
            let x: Vec<f64> = (0..4).map(|_| rng.uniform() * 200.0 - 100.0).collect();
            let p = m.predict(&x);
            assert!(p >= lo && p <= hi, "{p} outside [{lo}, {hi}]");
        }
        // NaN input routes deterministically and still lands in range.
        let p = m.predict(&[f64::NAN; 4]);
        assert!(p >= lo && p <= hi);
    }

    /// One feature value of a kind the fit must handle without moving a
    /// bit: plain, few distinct values with both zeros, constant, near
    /// ±1e300 (whose squares overflow in the leaf refinement), or adjacent
    /// floats (whose midpoint rounds onto a value, so `x <= t` ties).
    fn feature(kind: usize, constant: f64, rng: &mut Rng) -> f64 {
        match kind {
            0 => rng.range(-1.0, 1.0),
            1 => [-0.0, 0.0, 0.5, -1.0, 2.0][rng.below(5)],
            2 => constant,
            3 => [-1e300, 1e300][rng.below(2)] * (1.0 + rng.uniform()),
            _ => f64::from_bits(1.0f64.to_bits() + rng.below(3) as u64),
        }
    }

    #[test]
    fn fast_fit_equals_the_reference_bit_for_bit() {
        forall(
            "fit == reference fit",
            PropConfig::new(60, 0xF17_7EE),
            |rng| {
                let dim = 1 + rng.below(5);
                let kinds: Vec<usize> = (0..dim).map(|_| rng.below(5)).collect();
                let constants: Vec<f64> =
                    (0..dim).map(|_| [-0.0, 0.0, 3.5][rng.below(3)]).collect();
                // Some nodes reach 2 · QUANTILE_SAMPLE rows, where the
                // candidates come from a strided sample.
                let n = if rng.chance(0.15) {
                    2 * QUANTILE_SAMPLE + rng.below(1500)
                } else {
                    1 + rng.below(400)
                };
                let noise = [0.0, 0.01][rng.below(2)];
                let mut ds = Dataset::new(dim);
                for _ in 0..n {
                    let x: Vec<f64> = (0..dim)
                        .map(|f| feature(kinds[f], constants[f], rng))
                        .collect();
                    let y = if rng.chance(0.1) {
                        -0.0
                    } else {
                        f64::from(u8::from(x[0] > 0.0))
                            - 0.25 * f64::from(u8::from(x[dim - 1] <= 0.0))
                            + 0.125 * rng.below(4) as f64
                            + noise * rng.uniform()
                    };
                    ds.push(&x, y);
                }
                let cfg = TreeConfig {
                    max_depth: 1 + rng.below(10),
                    min_leaf: [1, 32][rng.below(2)],
                    candidates: [1, 16, 256][rng.below(3)],
                    leaf_linear: rng.chance(0.5),
                };
                let (fast, slow) = (SymbolicModel::fit(&ds, &cfg), reference::fit(&ds, &cfg));
                ensure(fast.digest() == slow.digest(), || {
                    format!(
                        "{cfg:?} over {n} rows of kinds {kinds:?}: {} nodes, reference {}",
                        fast.nodes.len(),
                        slow.nodes.len()
                    )
                })
            },
        );
    }

    /// The benchmark's 4 096 seeded rows (69 uniform features, a linear
    /// target), fitted with the default config.
    #[test]
    fn seeded_fit_matches_its_golden_digest() {
        let mut rng = Rng::new(2023 ^ 0x7EE5);
        let mut ds = Dataset::new(sage_gr::STATE_DIM);
        for _ in 0..4096 {
            let x: Vec<f64> = (0..sage_gr::STATE_DIM)
                .map(|_| rng.uniform() * 2.0 - 1.0)
                .collect();
            ds.push(&x, x[0] - 0.5 * x[7] + 0.25 * x[33]);
        }
        let m = SymbolicModel::fit(&ds, &TreeConfig::default());
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/seeded_fit.txt");
        sage_util::golden::check(path, format!("digest {:016x}\n", m.digest())).unwrap();
    }

    #[test]
    fn empty_dataset_fits_a_null_leaf() {
        let m = SymbolicModel::fit(&Dataset::new(3), &TreeConfig::default());
        assert_eq!(m.nodes.len(), 1);
        assert_eq!(m.predict(&[9.0, 9.0, 9.0]), 0.0);
    }
}
