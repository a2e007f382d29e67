//! Graph-free forward kernels: the serving runtime's forward pass and every
//! pass of the trainer that takes no gradient.
//!
//! [`crate::graph::Graph`] keeps what backward needs — ~30 nodes per policy
//! step on its tape — which is waste where no gradient is taken. The helpers
//! here compute the same forward math directly on [`Array`]s, and a layer's
//! bias, activation and gate arithmetic run in one pass over its product's
//! own buffer ([`affine_into`], [`map_rows`], [`zip_rows`]). Their `_into`
//! forms build in buffers the caller hands over or lends ([`Scratch`]), so
//! a pass that repeats allocates nothing.
//!
//! **Bit-identity contract**: every op mirrors its `graph.rs` counterpart
//! element-for-element, in the same evaluation order. All ops are
//! row-independent, so a batched forward over B rows equals B single-row
//! graph forwards bit-for-bit. The graph's own products (forward, activation
//! gradients, the ordered reduction of `Graph::backward_rows`) run here too.
//!
//! **The product** is defined by [`matmul_scalar`]: output element `(i, j)`
//! is a left fold over `p` from `+0.0` of `a[i][p] * b[p][j]`, multiply and
//! add rounded separately (no FMA), and a term whose `a[i][p]` is `±0.0` is
//! skipped, not added — a zero of `a` against a `NaN`/`±inf` of `b`
//! contributes nothing. A cut of the `k` terms into segments makes the
//! gradient fold ([`fold_tn_into`]): each segment folds from `+0.0` and the
//! segments' sums are added in order. The runtime-dispatched AVX-512F / AVX2
//! kernels make those bits from one register tile (`tiled_kernel!`): R rows
//! of `a` × V vectors of output columns, R·V accumulators held in registers
//! across a segment's whole `p` loop, each step loading its V vectors of `b`
//! once for all R rows; the first segment's sums are stored, each later
//! one's added to them. Lanes run across `j` and a lane is one output
//! element's own fold, so tiling changes which elements are computed
//! together, never the order inside one. Skip-zero is kept exactly: a step
//! where none of the tile's R scalars of `a` is zero updates all rows
//! branch-free (one scan of `a` settles that for every step of most
//! products); any other step tests row by row and leaves a zero row's
//! accumulators alone — the scalar loop's `continue`. The tile is 4 rows × 3
//! vectors (12 independent add chains); leftover rows run as a 3- or 2-row
//! tile, a lone row as 1 × 6 so B=1 inference keeps 6 chains. A band's last
//! tile, when `n` is not a multiple of the tile width, is one or two vectors
//! wide if that covers the columns left, and masks every load and store to
//! the columns `< n`: that is the column tail (there is no scalar loop), and
//! lanes past `n` are never read, written or faulted on. A kernel's operands
//! are read through [`Lhs`]/[`Rhs`]: a matrix by stride (the product, and
//! `aᵀ` in place), or a table of row slices (the fold, whose rows stay in the
//! nodes that made them). Only the scalar kernel's output is zero-filled: a
//! SIMD kernel writes every element before it reads one.

#![allow(
    unsafe_code,
    reason = "the workspace denies `unsafe_code`; the SIMD kernels below are an exception, encapsulated by `product` and `fold_tn_into` (see the SAFETY-BOUNDARY note; `vmath` is the other) — `allow`, not `expect`: off x86_64 there is no unsafe block to fulfil it"
)]

use crate::array::Array;
use crate::vmath;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// `(row, column)` strides of a left operand and `(m, k, n)` of a product.
type Strides = (usize, usize);
type Dims = (usize, usize, usize);

/// The `m x k` left operand as a kernel reads it.
trait Lhs: Copy {
    /// Whether any element is `±0.0`: one scan of the whole operand buys
    /// most products a loop that skips the zero test (`|`, not `||`: no
    /// early exit to branch on).
    fn has_zero(self) -> bool;

    /// Element `(i, p)`.
    ///
    /// # Safety
    ///
    /// `i < m` and `p < k` for the shape the operand was checked against.
    unsafe fn at(self, i: usize, p: usize) -> f64;
}

/// The `k x n` right operand as a kernel reads it.
trait Rhs: Copy {
    /// The first of row `p`'s `n` elements.
    ///
    /// # Safety
    ///
    /// `p < k` for the shape the operand was checked against.
    unsafe fn row(self, p: usize) -> *const f64;
}

/// Element `(i, p)` at `a[i * strides.0 + p * strides.1]`: a matrix, or the
/// transpose of one read in place.
#[derive(Clone, Copy)]
struct Strided<'a> {
    a: &'a [f64],
    strides: Strides,
}

impl Lhs for Strided<'_> {
    #[inline(always)]
    fn has_zero(self) -> bool {
        self.a.iter().fold(false, |z, &x| z | (x == 0.0))
    }

    #[inline(always)]
    unsafe fn at(self, i: usize, p: usize) -> f64 {
        // SAFETY: the caller's `i < m`, `p < k`, and `product` asserted
        // `a.len() == m * k` for strides whose largest index is `m*k - 1`.
        unsafe {
            *self
                .a
                .get_unchecked(i * self.strides.0 + p * self.strides.1)
        }
    }
}

/// The transpose of a table of rows: element `(i, p)` is `rows[p][i]`.
#[derive(Clone, Copy)]
struct Columns<'a> {
    rows: &'a [&'a [f64]],
}

impl Lhs for Columns<'_> {
    #[inline(always)]
    fn has_zero(self) -> bool {
        (self.rows.iter()).fold(false, |z, row| {
            z | row.iter().fold(false, |z, &x| z | (x == 0.0))
        })
    }

    #[inline(always)]
    unsafe fn at(self, i: usize, p: usize) -> f64 {
        // SAFETY: the caller's `p < k == rows.len()` and `i < m`, and
        // `fold_tn_into` asserted every row `m` long.
        unsafe { *self.rows.get_unchecked(p).get_unchecked(i) }
    }
}

/// Row `p` at `b[p * n..]`.
#[derive(Clone, Copy)]
struct Dense<'a> {
    b: &'a [f64],
    n: usize,
}

impl Rhs for Dense<'_> {
    #[inline(always)]
    unsafe fn row(self, p: usize) -> *const f64 {
        // SAFETY: the caller's `p < k`, and `product` asserted
        // `b.len() == k * n`, so the offset is at most the slice's length.
        unsafe { self.b.as_ptr().add(p * self.n) }
    }
}

/// Row `p` is `rows[p]`.
#[derive(Clone, Copy)]
struct Rows<'a> {
    rows: &'a [&'a [f64]],
}

impl Rhs for Rows<'_> {
    #[inline(always)]
    unsafe fn row(self, p: usize) -> *const f64 {
        // SAFETY: the caller's `p < k == rows.len()`.
        unsafe { self.rows.get_unchecked(p).as_ptr() }
    }
}

/// The instruction set of the widest kernel this CPU runs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Isa {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The widest kernel this CPU runs, detected once.
pub(crate) fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    })
}

/// Make `out` the `m x n` `a * b` cut at `ends` (module docs) on `isa`'s
/// kernel. `out`'s contents are dropped and its allocation reused; it is
/// zero-filled for the scalar kernel only, since a SIMD kernel writes every
/// element before it reads one.
///
/// # Safety
///
/// `isa` is one the CPU runs (`isa()`, or confirmed by
/// `is_x86_feature_detected!`); `a` and `b` read in bounds for every
/// `i < m`, `p < k` (their checks: `product`, `fold_tn_into`); every row `b`
/// hands out holds `n` elements; `ends` is non-decreasing and ends at `k`.
unsafe fn run_kernel<L: Lhs, B: Rhs>(
    isa: Isa,
    a: L,
    b: B,
    out: &mut Vec<f64>,
    (m, k, n): Dims,
    ends: &[usize],
) {
    out.clear();
    #[cfg(target_arch = "x86_64")]
    let simd = |kernel: unsafe fn(L, B, *mut f64, Dims, &[usize]), out: &mut Vec<f64>| {
        out.reserve(m * n);
        // SAFETY: the caller's obligations are the kernel's, and `out` has
        // room for the `m * n` elements it writes, each before any read of
        // it; with all of them written they are `out`'s length.
        unsafe {
            kernel(a, b, out.as_mut_ptr(), (m, k, n), ends);
            out.set_len(m * n);
        }
    };
    match isa {
        Isa::Scalar => {
            out.resize(m * n, 0.0);
            // SAFETY: the caller's obligations; `out` is `m * n` long.
            unsafe { matmul_scalar(a, b, out, (m, k, n), ends) }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => simd(matmul_avx2, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => simd(matmul_avx512, out),
    }
}

/// `a (m x k) * b (k x n)`: every output element accumulates over `k` in
/// increasing order from `+0.0`, separate multiply and add, skipping exact
/// zeros of `a` — the same bits from every kernel.
pub fn matmul(a: &Array, b: &Array) -> Array {
    matmul_into(Vec::new(), a, b)
}

/// [`matmul`] built in `buf` (see [`Array::t_into`]).
pub fn matmul_into(buf: Vec<f64>, a: &Array, b: &Array) -> Array {
    assert_eq!(a.cols, b.rows, "matmul inner dims");
    product(buf, &a.data, (a.cols, 1), &b.data, (a.rows, b.rows, b.cols))
}

/// `aᵀ * b` for `a (k x m)`, `b (k x n)`, built in `buf`: the bits of
/// `matmul(&a.t(), b)` with `a` read by stride instead of copied.
pub fn matmul_tn_into(buf: Vec<f64>, a: &Array, b: &Array) -> Array {
    assert_eq!(a.rows, b.rows, "matmul_tn inner dims");
    product(buf, &a.data, (1, a.cols), &b.data, (a.cols, b.rows, b.cols))
}

/// `a (m x k) * b[..k]` for `b (k' x n)`, `k <= k'`, built in `buf`: the product with the
/// first `k` rows of `b` — every output element's fold over `b`'s rows
/// stopped after `k` terms, so a caller holding the terms of the other rows
/// continues it in order (`CriticNet::logits_infer_into` in `sage-core`).
pub fn matmul_prefix_into(buf: Vec<f64>, a: &Array, b: &Array) -> Array {
    assert!(a.cols <= b.rows, "matmul_prefix inner dims");
    let (k, n) = (a.cols, b.cols);
    product(buf, &a.data, (k, 1), &b.data[..k * n], (a.rows, k, n))
}

/// The `m x k` left operand is `a` read under `strides`, `b` is `k x n`; the
/// result takes `buf`'s allocation.
// SAFETY-BOUNDARY: all unsafe SIMD dispatch is encapsulated here, in
// `fold_tn_into` and in `vmath`'s `run` (the activation kernels) — kernels
// run only after `is_x86_feature_detected!` confirmed the target feature
// (`isa`), and the slice lengths they rely on are asserted below or are the
// slice's own, so no caller obligation escapes any of them.
fn product(mut buf: Vec<f64>, a: &[f64], strides: Strides, b: &[f64], (m, k, n): Dims) -> Array {
    // `Array`'s fields are public, so its shape invariant is checked, not
    // assumed: with every caller's strides the largest index read is m*k - 1.
    assert_eq!(a.len(), m * k, "matmul lhs length");
    assert_eq!(b.len(), k * n, "matmul rhs length");
    let (lhs, rhs) = (Strided { a, strides }, Dense { b, n });
    // SAFETY: `isa()` names a SIMD kernel only after
    // `is_x86_feature_detected!` confirmed its target feature on this CPU;
    // the two asserts above are the operands' lengths, and one segment
    // ending at `k` is a valid cut.
    unsafe { run_kernel(isa(), lhs, rhs, &mut buf, (m, k, n), &[k]) };
    Array::from_vec(m, n, buf)
}

/// The ordered reduction of a parameter's gradient (`Graph::backward_rows`):
/// an `m x n` sum of outer products `xs[p]ᵀ · gs[p]` over the `k` row pairs
/// of the two tables (`xs[p]` is `m` long, `gs[p]` is `n` long), cut into
/// segments that end at each of `ends`. Element `(i, j)` is a left fold
/// over the segments, in order and starting with the first, of each
/// segment's own fold over its rows from `+0.0`: the product's fold,
/// skip-zero included (a zero `xs[p][i]` skips `gs[p]`). These are the bits
/// of one [`matmul_tn_into`] of each segment's stacked rows, added in order into
/// a zeroed `m x n` — read through the tables, nothing is stacked. One
/// segment ending at `k` is one product over all the rows. The result takes
/// `buf`'s allocation.
pub fn fold_tn_into(
    mut buf: Vec<f64>,
    xs: &[&[f64]],
    gs: &[&[f64]],
    ends: &[usize],
    (m, n): (usize, usize),
) -> Array {
    let k = xs.len();
    assert_eq!(gs.len(), k, "fold row tables");
    assert!(xs.iter().all(|x| x.len() == m), "fold lhs row length");
    assert!(gs.iter().all(|g| g.len() == n), "fold rhs row length");
    assert_eq!(ends.last(), Some(&k), "fold segments end at k");
    assert!(ends.is_sorted(), "fold segments ascend");
    let (lhs, rhs) = (Columns { rows: xs }, Rows { rows: gs });
    // SAFETY: as in `product` (this fn is inside its SAFETY-BOUNDARY): the
    // asserts above are the table and segment preconditions.
    unsafe { run_kernel(isa(), lhs, rhs, &mut buf, (m, k, n), ends) };
    Array::from_vec(m, n, buf)
}

/// The definition of the product (module docs), over segments: element
/// `(i, j)` of the first segment is written, each later segment's is added.
///
/// # Safety
///
/// As [`run_kernel`], but for `isa`, and `out` is `m x n`.
unsafe fn matmul_scalar<L: Lhs, B: Rhs>(
    a: L,
    b: B,
    out: &mut [f64],
    (m, _, n): Dims,
    ends: &[usize],
) {
    let mut partial = vec![0.0; n];
    for (i, orow) in out.chunks_exact_mut(n.max(1)).take(m).enumerate() {
        let mut from = 0;
        for (s, &end) in ends.iter().enumerate() {
            partial.fill(0.0);
            for p in from..end {
                // SAFETY: i < m, p < end <= k; row p holds n elements.
                let (av, brow) = unsafe { (a.at(i, p), std::slice::from_raw_parts(b.row(p), n)) };
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    partial[j] += av * brow[j];
                }
            }
            if s == 0 {
                orow.copy_from_slice(&partial);
            } else {
                orow.iter_mut().zip(&partial).for_each(|(o, &x)| *o += x);
            }
            from = end;
        }
    }
}

/// One kernel per instruction set from one tile body (module docs). A `$vec`
/// has `$lanes` f64 lanes and moves whole through `$loadu` / `$storeu`;
/// `$mask_of(c)` is the `$mask` whose first `c` lanes are live, `$load(ptr,
/// mask)` reads and `$store(ptr, mask, v)` writes the live lanes of the vector
/// at `ptr` and touch no memory under a dead lane.
macro_rules! tiled_kernel {
    ($name:ident, $feature:literal, $lanes:literal, $vec:ty, $mask:ty, $zero:ident, $set1:ident,
     $mul:ident, $add:ident, $loadu:ident, $storeu:ident, $mask_of:expr, $load:expr,
     $store:expr) => {
        // SAFETY: callers must ensure (1) the CPU supports `$feature`
        // (`isa()` selects by `is_x86_feature_detected!`) and (2) the
        // operands match the dimensions: `a.at(i, p)` and `b.row(p)` are in
        // bounds for every i < m, p < k, every row of `b` holds n elements,
        // `out` has room for m*n elements, which the kernel writes, each
        // before it reads it, and `ends` is non-decreasing, ending at k
        // (`run_kernel`).
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        unsafe fn $name<L: Lhs, B: Rhs>(
            a: L,
            b: B,
            out: *mut f64,
            (m, k, n): Dims,
            ends: &[usize],
        ) {
            // Rows `i..i+R` x columns `j..j + V*lanes` of the product (those
            // `< n` if `TAIL`); `dense` promises no element of `a` is zero.
            //
            // SAFETY: callers pass `out` at (i, 0) of a band of R rows
            // inside the matrices described above, and j < n, with
            // j + V*lanes <= n unless `TAIL`, so `a.at(i + r, p)` reads
            // element (i+r, p), in bounds. Vector v of the tile covers
            // columns j + v*lanes .. j + (v+1)*lanes: without `TAIL` all of
            // them lie inside row p of `b` and row i+r of `out`; with it the
            // vector's mask keeps the lanes whose column is < n (none, if the
            // vector starts at or past n), masked-off lanes are not accessed
            // (the masked moves suppress both the access and its fault), and
            // the pointers are formed with `wrapping_add` because past the
            // row's end they may point outside the allocation. All moves are
            // the unaligned forms, so f64 alignment from the slice type
            // suffices.
            #[target_feature(enable = $feature)]
            unsafe fn tile<L: Lhs, B: Rhs, const R: usize, const V: usize, const TAIL: bool>(
                a: L,
                b: B,
                out: *mut f64,
                (i, n, j): (usize, usize, usize),
                ends: &[usize],
                dense: bool,
            ) {
                let mut masks = [$mask_of(0); V];
                for v in 0..V {
                    masks[v] = $mask_of(n.saturating_sub(j + v * $lanes).min($lanes));
                }
                // The fold of rows `from..end` of the tile, from `+0.0`.
                let fold = |from: usize, end: usize| {
                    let mut acc = [[$zero(); V]; R];
                    for p in from..end {
                        let mut av = [0.0; R];
                        for r in 0..R {
                            av[r] = a.at(i + r, p);
                        }
                        let brow = b.row(p);
                        let mut bv = [$zero(); V];
                        for v in 0..V {
                            let from = brow.wrapping_add(j + v * $lanes);
                            bv[v] = if TAIL {
                                $load(from, masks[v])
                            } else {
                                $loadu(from)
                            };
                        }
                        let row = |acc: &mut [[$vec; V]; R], r: usize| {
                            let s = $set1(av[r]);
                            for v in 0..V {
                                acc[r][v] = $add(acc[r][v], $mul(s, bv[v]));
                            }
                        };
                        // The skip-zero shortcut, decided for the tile's R
                        // scalars at once (on their bits: integer ports, the
                        // vector ports are the bottleneck); a test per row on
                        // the dense path costs a third of the throughput.
                        if dense || av.iter().fold(true, |nz, x| nz & (x.to_bits() << 1 != 0)) {
                            for r in 0..R {
                                row(&mut acc, r);
                            }
                        } else {
                            for r in 0..R {
                                if av[r] != 0.0 {
                                    row(&mut acc, r);
                                }
                            }
                        }
                    }
                    acc
                };
                let to = |r: usize, v: usize| out.wrapping_add(r * n + j + v * $lanes);
                let store = |acc: [[$vec; V]; R]| {
                    for r in 0..R {
                        for v in 0..V {
                            if TAIL {
                                $store(to(r, v), masks[v], acc[r][v]);
                            } else {
                                $storeu(to(r, v), acc[r][v]);
                            }
                        }
                    }
                };
                // The first segment's fold is the element; each later one's
                // is added to it.
                store(fold(0, ends[0]));
                for seg in ends.windows(2) {
                    let mut acc = fold(seg[0], seg[1]);
                    for r in 0..R {
                        for v in 0..V {
                            let old = if TAIL {
                                $load(to(r, v), masks[v])
                            } else {
                                $loadu(to(r, v))
                            };
                            acc[r][v] = $add(old, acc[r][v]);
                        }
                    }
                    store(acc);
                }
            }
            // A band of R rows: whole tiles, then the masked one, as few
            // vectors wide as the columns left need (a 64-column output ends
            // in a 2-vector tile, not a 3-vector one with a dead vector).
            //
            // SAFETY: as `tile`, whose column conditions the loop establishes.
            #[target_feature(enable = $feature)]
            unsafe fn band<L: Lhs, B: Rhs, const R: usize, const V: usize>(
                a: L,
                b: B,
                out: *mut f64,
                (i, n): (usize, usize),
                ends: &[usize],
                dense: bool,
            ) {
                let mut j = 0;
                while j + V * $lanes <= n {
                    tile::<L, B, R, V, false>(a, b, out, (i, n, j), ends, dense);
                    j += V * $lanes;
                }
                if j < n {
                    match (n - j).div_ceil($lanes) {
                        1 => tile::<L, B, R, 1, true>(a, b, out, (i, n, j), ends, dense),
                        2 => tile::<L, B, R, 2, true>(a, b, out, (i, n, j), ends, dense),
                        _ => tile::<L, B, R, V, true>(a, b, out, (i, n, j), ends, dense),
                    }
                }
            }
            debug_assert_eq!(ends.last(), Some(&k));
            let dense = !a.has_zero();
            let mut i = 0;
            while i < m {
                let rows = (m - i).min(4);
                let op = out.add(i * n);
                match rows {
                    4 => band::<L, B, 4, 3>(a, b, op, (i, n), ends, dense),
                    3 => band::<L, B, 3, 3>(a, b, op, (i, n), ends, dense),
                    2 => band::<L, B, 2, 3>(a, b, op, (i, n), ends, dense),
                    _ => band::<L, B, 1, 6>(a, b, op, (i, n), ends, dense),
                }
                i += rows;
            }
        }
    };
}

#[rustfmt::skip]
tiled_kernel!(
    matmul_avx512, "avx512f", 8, __m512d, __mmask8, _mm512_setzero_pd, _mm512_set1_pd,
    _mm512_mul_pd, _mm512_add_pd, _mm512_loadu_pd, _mm512_storeu_pd,
    |c: usize| ((1u32 << c) - 1) as __mmask8,
    |p: *const f64, m: __mmask8| _mm512_maskz_loadu_pd(m, p),
    |p: *mut f64, m: __mmask8, v: __m512d| _mm512_mask_storeu_pd(p, m, v)
);

#[rustfmt::skip]
tiled_kernel!(
    matmul_avx2, "avx2", 4, __m256d, __m256i, _mm256_setzero_pd, _mm256_set1_pd,
    _mm256_mul_pd, _mm256_add_pd, _mm256_loadu_pd, _mm256_storeu_pd,
    |c: usize| _mm256_cmpgt_epi64(_mm256_set1_epi64x(c as i64), _mm256_setr_epi64x(0, 1, 2, 3)),
    |p: *const f64, m: __m256i| _mm256_maskload_pd(p, m),
    |p: *mut f64, m: __m256i, v: __m256d| _mm256_maskstore_pd(p, m, v)
);

/// In place, row by row: element `(i, j)` of `y` becomes `f(y[i][j],
/// bias[j])` — one pass over a product's own buffer for a bias and what
/// follows it.
pub fn map_rows(y: &mut Array, bias: &[f64], f: impl Fn(f64, f64) -> f64) {
    assert_eq!(y.cols, bias.len(), "bias width");
    for row in y.data.chunks_exact_mut(bias.len().max(1)) {
        row.iter_mut().zip(bias).for_each(|(v, &b)| *v = f(*v, b));
    }
}

/// [`map_rows`] with a second operand of `y`'s shape: element `(i, j)`
/// becomes `f(y[i][j], other[i][j], bias[j])`.
pub fn zip_rows(y: &mut Array, other: &Array, bias: &[f64], f: impl Fn(f64, f64, f64) -> f64) {
    assert_eq!(y.shape(), other.shape(), "zip shape");
    assert_eq!(y.cols, bias.len(), "bias width");
    let rows = y.data.chunks_exact_mut(bias.len().max(1));
    for (row, other) in rows.zip(other.row_slices()) {
        for ((v, &o), &b) in row.iter_mut().zip(other).zip(bias) {
            *v = f(*v, o, b);
        }
    }
}

/// `f(x · w + bias)` element by element, in one pass over the product's own
/// buffer `buf`: the value of `Graph::affine` and then `f`.
pub fn affine_into(
    buf: Vec<f64>,
    x: &Array,
    w: &Array,
    bias: &Array,
    f: impl Fn(f64) -> f64,
) -> Array {
    let mut y = matmul_into(buf, x, w);
    map_rows(&mut y, &bias.data, |v, b| f(v + b));
    y
}

/// Buffers for the graph-free passes: a `_into` call takes the buffers of its
/// temporaries and output here and gives the temporaries back, so a caller
/// that keeps one `Scratch` across passes of one schedule, and gives back
/// each output it is done with, allocates during the first pass and never
/// again. Bounded by one pass's live set: a buffer is made only when every
/// one held is in use.
#[derive(Default)]
pub struct Scratch {
    free: Vec<Vec<f64>>,
}

impl Scratch {
    /// An empty buffer, the one given back last if any.
    pub fn take(&mut self) -> Vec<f64> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Keep `buf` for a later [`Scratch::take`].
    pub fn give(&mut self, buf: Vec<f64>) {
        self.free.push(buf);
    }
}

/// The gate values of one GRU step from `x`, `h` and the cell's parameters
/// `w = [W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h]`, in `bufs` in the
/// order they are returned: the update gate `z = σ((x·W_z + h·U_z) + b_z)`, the
/// reset gate `r` likewise, `r · h`, and the candidate
/// `c = tanh((x·W_h + (r·h)·U_h) + b_h)` — each gate's bias and activation
/// in the buffer of its input product, `hu` holding each recurrent product
/// in turn. The forward of `Graph::gru` and of `GruCell::infer_step_into`.
pub fn gru_gates_into(
    bufs: [Vec<f64>; 4],
    hu: &mut Vec<f64>,
    x: &Array,
    h: &Array,
    w: [&Array; 9],
) -> [Array; 4] {
    let [z, r, rh, c] = bufs;
    let [wz, uz, bz, wr, ur, br, wh, uh, bh] = w;
    let mut gate = |buf, w: &Array, u: &Array, by: &Array, b: &Array, act: fn(&mut [f64])| {
        let prod = matmul_into(std::mem::take(hu), by, u);
        let mut y = matmul_into(buf, x, w);
        zip_rows(&mut y, &prod, &b.data, |v, hu, b| (v + hu) + b);
        act(&mut y.data);
        *hu = prod.data;
        y
    };
    let z = gate(z, wz, uz, h, bz, vmath::logistic_in_place);
    let r = gate(r, wr, ur, h, br, vmath::logistic_in_place);
    let rh = r.zip_into(rh, h, |r, h| r * h);
    let c = gate(c, wh, uh, &rh, bh, vmath::tanh_in_place);
    [z, r, rh, c]
}

/// The new GRU state `(1 - z)·h + z·c`, element by element as the graph
/// composes it: `(z·(−1) + 1)·h + z·c`.
#[expect(
    clippy::neg_multiply,
    reason = "`z * -1.0` is `Graph::scale(z, -1.0)` of the composition, spelled as it computes it"
)]
pub fn gru_blend(z: f64, h: f64, c: f64) -> f64 {
    (z * -1.0 + 1.0) * h + z * c
}

/// How many rows [`fold_rows`] folds side by side.
pub const FOLD_ROWS: usize = 8;

/// Per row of `block` — `cols` wide, at most [`FOLD_ROWS`] rows — the left
/// fold from `init` of `term(row, column, x)` over its elements in column
/// order, in the first elements of the result. Each row stays its own fold;
/// the rows of a full block are folded side by side, so their adds do not
/// wait on each other's.
#[inline]
pub fn fold_rows(
    block: &[f64],
    cols: usize,
    init: f64,
    term: impl Fn(usize, usize, f64) -> f64,
) -> [f64; FOLD_ROWS] {
    let mut acc = [init; FOLD_ROWS];
    if cols == 0 {
        return acc;
    }
    if block.len() == FOLD_ROWS * cols {
        let rows: [&[f64]; FOLD_ROWS] = std::array::from_fn(|r| &block[r * cols..(r + 1) * cols]);
        for c in 0..cols {
            for (r, (acc, row)) in acc.iter_mut().zip(&rows).enumerate() {
                *acc += term(r, c, row[c]);
            }
        }
    } else {
        for ((r, acc), row) in acc.iter_mut().enumerate().zip(block.chunks_exact(cols)) {
            *acc = (row.iter().enumerate()).fold(init, |a, (c, &x)| a + term(r, c, x));
        }
    }
    acc
}

/// Row-wise layer normalisation (the value of `Graph::layer_norm`) built in
/// `buf`, `f` applied to each element as it is written.
pub fn layer_norm_into(
    mut buf: Vec<f64>,
    x: &Array,
    gain: &Array,
    bias: &Array,
    f: impl Fn(f64) -> f64,
) -> Array {
    let d = x.cols;
    assert_eq!(
        (gain.data.len(), bias.data.len()),
        (d, d),
        "layer_norm width"
    );
    buf.clear();
    let mut write = |row: &[f64], (mu, sd): (f64, f64)| {
        let affine = row.iter().zip(&gain.data).zip(&bias.data);
        buf.extend(affine.map(|((&x, &g), &b)| f(g * ((x - mu) / sd) + b)));
    };
    let block = FOLD_ROWS * d.max(1);
    let mut blocks = x.data.chunks_exact(block);
    for block in &mut blocks {
        let moments = block_moments(block, d);
        for (row, moments) in block.chunks_exact(d).zip(moments) {
            write(row, moments);
        }
    }
    for row in blocks.remainder().chunks_exact(d.max(1)) {
        write(row, row_moments(row));
    }
    Array::from_vec(x.rows, d, buf)
}

/// [`row_moments`] of each of the [`FOLD_ROWS`] rows of `block` (`d` wide),
/// the rows folded side by side ([`fold_rows`]).
fn block_moments(block: &[f64], d: usize) -> [(f64, f64); FOLD_ROWS] {
    let n = d as f64;
    let mu = fold_rows(block, d, -0.0, |_, _, x| x).map(|s| s / n);
    let var = fold_rows(block, d, -0.0, |r, _, x| (x - mu[r]) * (x - mu[r]));
    std::array::from_fn(|r| (mu[r], (var[r] / n + LAYER_NORM_EPS).sqrt()))
}

/// Mean and `sqrt(variance + eps)` of one layer-norm row.
#[inline]
pub(crate) fn row_moments(row: &[f64]) -> (f64, f64) {
    let d = row.len() as f64;
    let mu = row.iter().sum::<f64>() / d;
    let var = row.iter().map(|&x| (x - mu) * (x - mu)).sum::<f64>() / d;
    (mu, (var + LAYER_NORM_EPS).sqrt())
}

const LAYER_NORM_EPS: f64 = 1e-5;

/// Leaky ReLU of one element (the value of `Graph::lrelu`).
pub fn leaky(x: f64, slope: f64) -> f64 {
    if x >= 0.0 {
        x
    } else {
        slope * x
    }
}

/// The logistic sigmoid of one element, `1 / (1 + e^-x)`: the definition
/// of [`crate::vmath::logistic_in_place`], so the value of `Graph::sigmoid`.
pub fn logistic(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use sage_util::prop::{forall, PropConfig};
    use sage_util::Rng;

    fn random_array(rng: &mut Rng, rows: usize, cols: usize) -> Array {
        // Mix in exact zeros so the skip-zero shortcut is exercised.
        let data = (0..rows * cols)
            .map(|_| {
                if rng.next_u64().is_multiple_of(8) {
                    0.0
                } else {
                    rng.range(-2.0, 2.0)
                }
            })
            .collect();
        Array::from_vec(rows, cols, data)
    }

    /// The scalar definition of the product, kept apart from the kernels as
    /// their oracle.
    fn reference_matmul(a: &Array, b: &Array) -> Array {
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let mut out = Array::zeros(m, n);
        for i in 0..m {
            for p in 0..k {
                let av = a.at(i, p);
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    *out.at_mut(i, j) += av * b.at(p, j);
                }
            }
        }
        out
    }

    /// Every kernel this CPU can run, not only the one [`isa`] picks.
    fn kernels() -> Vec<Isa> {
        let mut ks = vec![Isa::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                ks.push(Isa::Avx2);
            }
            if is_x86_feature_detected!("avx512f") {
                ks.push(Isa::Avx512);
            }
        }
        ks
    }

    /// `a * b`, or `aᵀ * b` read by stride, through one kernel of [`kernels`],
    /// into an output that holds garbage (no kernel may read it first).
    fn run(isa: Isa, a: &Array, transposed: bool, b: &Array) -> Array {
        let (m, strides) = if transposed {
            (a.cols, (1, a.cols))
        } else {
            (a.rows, (a.cols, 1))
        };
        let mut out = vec![f64::NAN; m * b.cols];
        assert_eq!(a.data.len(), m * b.rows);
        let (lhs, rhs) = (
            Strided {
                a: &a.data,
                strides,
            },
            Dense {
                b: &b.data,
                n: b.cols,
            },
        );
        // SAFETY: `kernels()` lists a SIMD kernel only after
        // `is_x86_feature_detected!` confirmed its feature; `from_vec` built
        // both arrays with data.len() == rows*cols, the assert above pins
        // a's m*k to b's k, and one segment ends at k.
        unsafe { run_kernel(isa, lhs, rhs, &mut out, (m, b.rows, b.cols), &[b.rows]) };
        Array::from_vec(m, b.cols, out)
    }

    fn first_difference(want: &Array, got: &Array) -> Option<String> {
        let n = want.cols;
        (want.iter().zip(got.iter()).enumerate())
            .find(|(_, (w, g))| w.to_bits() != g.to_bits())
            .map(|(i, (w, g))| format!("({}, {}): want {w:e}, got {g:e}", i / n, i % n))
    }

    /// The products one CRR step (default `NetConfig`, batch 16, unroll 8)
    /// and the serving forwards (one row, a 32-row chunk) really make, and
    /// the `nn.matmul_gflops` probe's two.
    const STEP_SHAPES: [(usize, usize, usize); 22] = [
        (16, 48, 48),
        (16, 69, 48),
        (16, 48, 32),
        (16, 32, 48),
        (16, 48, 3),
        (16, 3, 48),
        (16, 69, 64),
        (16, 64, 64),
        (16, 64, 41),
        (80, 64, 64),
        (80, 64, 41),
        (128, 70, 64),
        (128, 64, 64),
        (128, 64, 41),
        (128, 41, 64),
        (1, 69, 48),
        (1, 48, 48),
        (1, 48, 3),
        (32, 69, 48),
        (32, 48, 48),
        (1, 48, 144),
        (512, 48, 144),
    ];

    /// The folds of that step as `(din, dout, samples, ops, rows per
    /// sample)`: every policy weight is consumed once per unroll step, one
    /// row per sample (flat); each critic weight by one op over a sample's
    /// 8 rows (16 segments).
    const FOLD_SHAPES: [(usize, usize, usize, usize, usize); 8] = [
        (69, 48, 16, 8, 1),
        (48, 48, 16, 8, 1),
        (48, 32, 16, 8, 1),
        (32, 48, 16, 8, 1),
        (48, 3, 16, 8, 1),
        (70, 64, 16, 1, 8),
        (64, 64, 16, 1, 8),
        (64, 41, 16, 1, 8),
    ];

    /// Both layouts of one shape through every kernel, with zeros in `a`
    /// (every step tests its scalars) and without (the scan finds it dense).
    fn check_shape(rng: &mut Rng, (m, k, n): (usize, usize, usize)) -> Result<(), String> {
        for dense in [false, true] {
            let mut a = random_array(rng, m, k);
            if dense {
                a.data.iter_mut().for_each(|x| *x += 4.0);
            }
            let b = random_array(rng, k, n);
            let want = reference_matmul(&a, &b);
            let at = a.t();
            for isa in kernels() {
                for (lhs, transposed) in [(&a, false), (&at, true)] {
                    if let Some(d) = first_difference(&want, &run(isa, lhs, transposed, &b)) {
                        return Err(format!(
                            "{isa:?} {m}x{k}x{n} dense {dense} transposed {transposed}: {d}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn simd_matmul_bit_identical_to_array_matmul() {
        let mut rng = Rng::new(0x711E);
        for shape in STEP_SHAPES {
            check_shape(&mut rng, shape).unwrap();
        }
        forall(
            "every kernel == reference_matmul",
            PropConfig::default(),
            |rng| {
                let m = 1 + (rng.next_u64() % 19) as usize;
                let k = 1 + (rng.next_u64() % 80) as usize;
                let n = 1 + (rng.next_u64() % 80) as usize;
                check_shape(rng, (m, k, n))
            },
        );
        // The public entry points are the dispatched kernel.
        let (a, b) = (random_array(&mut rng, 7, 9), random_array(&mut rng, 9, 29));
        assert_bits_eq(&reference_matmul(&a, &b), &matmul(&a, &b));
        assert_bits_eq(
            &reference_matmul(&a, &b),
            &matmul_tn_into(Vec::new(), &a.t(), &b),
        );
    }

    /// Skip-zero is a semantic, not a shortcut: a `±0.0` at `a[i][p]` keeps
    /// row `p` of `b` out of output row `i` even when that row holds
    /// `NaN`/`±inf` (`0 * inf` would be `NaN`). Zero and non-zero rows share
    /// row tiles — the full 4-row tile, each leftover tile, the lone row —
    /// and `n` ends in a masked vector for both lane widths.
    #[test]
    fn a_zero_of_a_skips_a_poisoned_row_of_b_in_every_kernel() {
        let mut rng = Rng::new(0x5C1F);
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for (m, k, n) in [(4, 9, 27), (7, 5, 13), (6, 11, 50), (5, 3, 3), (1, 6, 21)] {
            let mut a = random_array(&mut rng, m, k);
            let mut b = random_array(&mut rng, k, n);
            // Rows 1 and 2 of `b` are poisoned in every column; even rows of
            // `a` skip both (one with each sign of zero), odd rows do not.
            for j in 0..n {
                *b.at_mut(1, j) = poison[j % 3];
                *b.at_mut(2, j) = poison[(j + 1) % 3];
            }
            for i in 0..m {
                for p in 0..k {
                    if *a.at_mut(i, p) == 0.0 {
                        *a.at_mut(i, p) = 0.5;
                    }
                }
                if i % 2 == 0 {
                    *a.at_mut(i, 1) = 0.0;
                    *a.at_mut(i, 2) = -0.0;
                }
            }
            let want = reference_matmul(&a, &b);
            let at = a.t();
            for isa in kernels() {
                for (lhs, transposed) in [(&a, false), (&at, true)] {
                    let got = run(isa, lhs, transposed, &b);
                    let what = format!("{isa:?} {m}x{k}x{n} transposed {transposed}");
                    for i in 0..m {
                        let row = &got.data[i * n..(i + 1) * n];
                        if i % 2 == 0 {
                            assert!(row.iter().all(|v| v.is_finite()), "{what}: row {i}");
                        } else {
                            assert!(row.iter().all(|v| !v.is_finite()), "{what}: row {i}");
                        }
                    }
                    // Finite rows bit for bit; NaN payloads are not pinned.
                    for (w, g) in want.iter().zip(got.iter()).filter(|(w, _)| w.is_finite()) {
                        assert_eq!(w.to_bits(), g.to_bits(), "{what}");
                    }
                }
            }
            // All of `a` zero: nothing is added, every element stays `+0.0`.
            let zeros = Array::from_vec(m, k, (0..m * k).map(|i| [0.0, -0.0][i % 2]).collect());
            for isa in kernels() {
                let got = run(isa, &zeros, false, &b);
                assert!(got.iter().all(|v| v.to_bits() == 0), "{isa:?} {m}x{k}x{n}");
            }
        }
    }

    fn assert_bits_eq(want: &Array, got: &Array) {
        assert_eq!(want.shape(), got.shape());
        let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(wb, gb);
    }

    /// The fused passes hold the bits of the graph ops they stand for: a
    /// product's bias and activation in its own buffer, a layer norm and its
    /// activation in one write.
    #[test]
    fn elementwise_ops_match_graph() {
        let mut rng = Rng::new(11);
        let x = random_array(&mut rng, 3, 7);
        let w = random_array(&mut rng, 7, 5);
        let bias = random_array(&mut rng, 1, 5);
        let (gain, shift) = (random_array(&mut rng, 1, 7), random_array(&mut rng, 1, 7));

        let mut g = Graph::new();
        let (xn, wn, bn) = (
            g.input(x.clone()),
            g.input(w.clone()),
            g.input(bias.clone()),
        );
        let (gn, sn) = (g.input(gain.clone()), g.input(shift.clone()));
        let y = g.affine(xn, wn, bn);
        assert_bits_eq(g.value(y), &affine_into(Vec::new(), &x, &w, &bias, |v| v));
        let pair = g.matmul(xn, wn);
        let pair = g.add_row(pair, bn);
        assert_bits_eq(g.value(pair), g.value(y));
        let act = g.lrelu(y, 0.01);
        assert_bits_eq(
            g.value(act),
            &affine_into(Vec::new(), &x, &w, &bias, |v| leaky(v, 0.01)),
        );
        let act = g.sigmoid(y);
        assert_bits_eq(
            g.value(act),
            &affine_into(Vec::new(), &x, &w, &bias, logistic),
        );
        let act = g.tanh(y);
        assert_bits_eq(
            g.value(act),
            &affine_into(Vec::new(), &x, &w, &bias, f64::tanh),
        );
        let n = g.layer_norm(xn, gn, sn);
        let plain = layer_norm_into(Vec::new(), &x, &gain, &shift, |v| v);
        assert_bits_eq(g.value(n), &plain);
        let act = g.lrelu(n, 0.01);
        let fused = layer_norm_into(Vec::new(), &x, &gain, &shift, |v| leaky(v, 0.01));
        assert_bits_eq(g.value(act), &fused);
    }

    /// The segments of a parameter's fold as `Graph::backward_rows` cuts
    /// them: `samples` samples ascending, within each the `ops` in order,
    /// each op holding `per` rows of the sample. Flat (one row per sample
    /// and op) is one segment.
    fn fold_ends(samples: usize, ops: usize, per: usize) -> Vec<usize> {
        if per == 1 {
            vec![samples * ops]
        } else {
            (1..=samples * ops).map(|s| s * per).collect()
        }
    }

    /// The fold as it was made before the row tables: the rows stacked in
    /// fold order and one `matmul_tn` over them (flat), or one per (sample,
    /// op) segment added in order into a zeroed sum (two-level).
    fn stacked_fold(xs: &[&[f64]], gs: &[&[f64]], ends: &[usize], (m, n): (usize, usize)) -> Array {
        let stack = |rows: &[&[f64]], cols: usize| Array::from_vec(rows.len(), cols, rows.concat());
        if ends.len() == 1 {
            return matmul_tn_into(Vec::new(), &stack(xs, m), &stack(gs, n));
        }
        let mut acc = Array::zeros(m, n);
        let mut from = 0;
        for &end in ends {
            let (x, g) = (stack(&xs[from..end], m), stack(&gs[from..end], n));
            acc.add_assign(&matmul_tn_into(Vec::new(), &x, &g));
            from = end;
        }
        acc
    }

    /// One fold shape (see [`FOLD_SHAPES`]) through [`fold_tn_into`] and
    /// every kernel against [`stacked_fold`], on rows with exact zeros of
    /// both signs and some rows of `g` poisoned with `NaN`/`±inf` under
    /// zeros of `x` (all of the row, or all but one element).
    fn check_fold(
        rng: &mut Rng,
        (din, dout, samples, ops, per): (usize, usize, usize, usize, usize),
    ) -> Result<(), String> {
        let k = samples * ops * per;
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let (mut xs, mut gs) = (Vec::new(), Vec::new());
        for _ in 0..k {
            let mut x = random_array(rng, 1, din).data;
            let mut g = random_array(rng, 1, dout).data;
            if rng.below(4) == 0 {
                g.iter_mut()
                    .enumerate()
                    .for_each(|(j, v)| *v = poison[j % 3]);
                x.iter_mut()
                    .enumerate()
                    .for_each(|(i, v)| *v = [0.0, -0.0][i % 2]);
                if rng.below(2) == 0 {
                    x[rng.below(din)] = 1.5;
                }
            }
            xs.push(x);
            gs.push(g);
        }
        let xs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        let gs: Vec<&[f64]> = gs.iter().map(Vec::as_slice).collect();
        let ends = fold_ends(samples, ops, per);
        let want = stacked_fold(&xs, &gs, &ends, (din, dout));
        // NaN payloads are not pinned; every other bit is.
        let same = |w: &f64, g: &f64| w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan());
        let shape = format!("{din}x{dout}, {samples} samples, {ops} ops, {per} rows");
        let public = fold_tn_into(vec![f64::NAN; 3], &xs, &gs, &ends, (din, dout));
        if !want.iter().zip(public.iter()).all(|(w, g)| same(w, g)) {
            return Err(format!("fold_tn_into: {shape}"));
        }
        for isa in kernels() {
            let mut out = vec![f64::NAN; din * dout];
            let (lhs, rhs) = (Columns { rows: &xs }, Rows { rows: &gs });
            // SAFETY: `kernels()` lists a SIMD kernel only after
            // `is_x86_feature_detected!` confirmed its feature; every row of
            // `xs` is `din` long and of `gs` `dout` long, and `fold_ends`
            // ascends to k.
            unsafe { run_kernel(isa, lhs, rhs, &mut out, (din, k, dout), &ends) };
            if !want.iter().zip(&out).all(|(w, g)| same(w, g)) {
                return Err(format!("{isa:?}: {shape}"));
            }
        }
        Ok(())
    }

    /// The row-table fold is the stacked fold bit for bit through every
    /// kernel, flat and two-level: the step's own folds, then random ones.
    #[test]
    fn the_row_table_fold_is_the_stacked_fold() {
        let mut rng = Rng::new(0xF01D);
        for shape in FOLD_SHAPES {
            check_fold(&mut rng, shape).unwrap();
        }
        forall(
            "fold_tn_into == stacked matmul_tn fold",
            PropConfig::new(200, 0xF01D),
            |rng| {
                let (din, dout) = (1 + rng.below(20), 1 + rng.below(70));
                let (samples, ops) = (1 + rng.below(6), 1 + rng.below(4));
                let per = [1, 1, 2, 3, 8][rng.below(5)];
                check_fold(rng, (din, dout, samples, ops, per))
            },
        );
    }
}
