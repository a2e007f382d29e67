//! Graph-free forward kernels: the serving runtime's forward pass and every
//! pass of the trainer that takes no gradient.
//!
//! [`crate::graph::Graph`] keeps what backward needs — ~60 nodes per policy
//! step on its tape — which is waste where no gradient is taken. The helpers
//! here compute the same forward math directly on [`Array`]s.
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
//! contributes nothing. The runtime-dispatched AVX-512F / AVX2 kernels make
//! those bits from one register tile (`tiled_kernel!`): R rows of `a` × V
//! vectors of output columns, R·V accumulators held in registers across the
//! whole `p` loop, each step loading its V vectors of `b` once for all R
//! rows. Lanes run across `j` and a lane is one output element's own fold, so
//! tiling changes which elements are computed together, never the order
//! inside one. Skip-zero is kept exactly: a step where none of the tile's R
//! scalars of `a` is zero updates all rows branch-free (one scan of `a`
//! settles that for every step of most products); any other step tests row
//! by row and leaves a zero row's accumulators alone — the scalar loop's
//! `continue`. The tile is 4 rows × 3 vectors (12 independent add chains);
//! leftover rows run as a 3- or 2-row tile, a lone row as 1 × 6 so B=1
//! inference keeps 6 chains. A band's last tile, when `n` is not a multiple
//! of the tile width, masks every load and store to the columns `< n`: that
//! is the column tail (there is no scalar loop), and lanes past `n` are
//! never read, written or faulted on.

#![allow(
    unsafe_code,
    reason = "the workspace denies `unsafe_code`; the SIMD kernels below are the one exception, encapsulated by `product` (see its SAFETY-BOUNDARY note) — `allow`, not `expect`: off x86_64 there is no unsafe block to fulfil it"
)]

use crate::array::Array;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// `(row, column)` strides of a left operand and `(m, k, n)` of a product.
type Strides = (usize, usize);
type Dims = (usize, usize, usize);

/// `out (m x n, zeroed) = a * b`, element `(i, p)` of `a` at `i*ars + p*acs`.
// SAFETY: a type; the one call through it, in `product`, states the
// obligations of the kernels that have any.
type KernelFn = unsafe fn(&[f64], Strides, &[f64], &mut [f64], Dims);

/// The widest kernel this CPU runs, detected once.
fn kernel() -> KernelFn {
    static KERNEL: OnceLock<KernelFn> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return matmul_avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return matmul_avx2;
            }
        }
        matmul_scalar
    })
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

/// `aᵀ * b` for `a (k x m)`, `b (k x n)`: the bits of `matmul(&a.t(), b)`
/// with `a` read by stride instead of copied.
pub fn matmul_tn(a: &Array, b: &Array) -> Array {
    matmul_tn_into(Vec::new(), a, b)
}

/// [`matmul_tn`] built in `buf`.
pub fn matmul_tn_into(buf: Vec<f64>, a: &Array, b: &Array) -> Array {
    assert_eq!(a.rows, b.rows, "matmul_tn inner dims");
    product(buf, &a.data, (1, a.cols), &b.data, (a.cols, b.rows, b.cols))
}

/// `a (m x k) * b[..k]` for `b (k' x n)`, `k <= k'`: the product with the
/// first `k` rows of `b` — every output element's fold over `b`'s rows
/// stopped after `k` terms, so a caller holding the terms of the other rows
/// continues it in order (`CriticNet::logits_infer` in `sage-core`).
pub fn matmul_prefix(a: &Array, b: &Array) -> Array {
    assert!(a.cols <= b.rows, "matmul_prefix inner dims");
    let (k, n) = (a.cols, b.cols);
    product(
        Vec::new(),
        &a.data,
        (k, 1),
        &b.data[..k * n],
        (a.rows, k, n),
    )
}

/// The `m x k` left operand is `a` read under `strides`, `b` is `k x n`; the
/// result takes `buf`'s allocation.
// SAFETY-BOUNDARY: all unsafe SIMD dispatch is encapsulated here — kernels
// run only after `is_x86_feature_detected!` confirmed the target feature,
// and the slice lengths they rely on are asserted below, so no caller
// obligation escapes this fn.
fn product(mut buf: Vec<f64>, a: &[f64], strides: Strides, b: &[f64], (m, k, n): Dims) -> Array {
    // `Array`'s fields are public, so its shape invariant is checked, not
    // assumed: with every caller's strides the largest index read is m*k - 1.
    assert_eq!(a.len(), m * k, "matmul lhs length");
    assert_eq!(b.len(), k * n, "matmul rhs length");
    buf.clear();
    buf.resize(m * n, 0.0);
    // SAFETY: `kernel()` returns a SIMD kernel only after
    // `is_x86_feature_detected!` confirmed its target feature on this CPU
    // (the scalar one is a safe fn); the slice-length preconditions (a = m*k
    // under `strides`, b = k*n, out = m*n, zeroed) are the two asserts and
    // the `resize` of the emptied `buf` above.
    unsafe { kernel()(a, strides, b, &mut buf, (m, k, n)) };
    Array::from_vec(m, n, buf)
}

/// The definition of the product (module docs); `out` arrives zeroed.
fn matmul_scalar(a: &[f64], (ars, acs): Strides, b: &[f64], out: &mut [f64], (m, k, n): Dims) {
    for i in 0..m {
        for p in 0..k {
            let av = a[i * ars + p * acs];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for j in 0..n {
                orow[j] += av * brow[j];
            }
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
        // (`kernel()` selects by `is_x86_feature_detected!`) and (2) the
        // slice lengths match the dimensions: a.len() == m*k, so that every
        // `a[i*ars + p*acs]` with i < m, p < k is in bounds under either
        // stride pair `product` passes, b.len() == k*n, out.len() == m*n
        // (asserted by `product`, re-asserted in debug builds here).
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        unsafe fn $name(a: &[f64], strides: Strides, b: &[f64], out: &mut [f64], (m, k, n): Dims) {
            // Rows `i..i+R` x columns `j..j + V*lanes` of the product (those
            // `< n` if `TAIL`); `dense` promises no element of `a` is zero.
            //
            // SAFETY: callers pass `a` at element (i, 0) and `out` at (i, 0)
            // of a band of R rows inside the matrices described above, and
            // j < n, with j + V*lanes <= n unless `TAIL`, so
            // `a.add(r*ars + p*acs)` reads element (i+r, p), in bounds.
            // Vector v of the tile covers columns j + v*lanes ..
            // j + (v+1)*lanes: without `TAIL` all of them lie inside row p of
            // `b` and row i+r of `out`; with it the vector's mask keeps the
            // lanes whose column is < n (none, if the vector starts at or
            // past n), masked-off lanes are not accessed (the masked moves
            // suppress both the access and its fault), and the pointers are
            // formed with `wrapping_add` because past the last row they may
            // point outside the allocation. All moves are the unaligned
            // forms, so f64 alignment from the slice type suffices.
            #[target_feature(enable = $feature)]
            unsafe fn tile<const R: usize, const V: usize, const TAIL: bool>(
                a: *const f64,
                (ars, acs): Strides,
                b: *const f64,
                out: *mut f64,
                (k, n, j): (usize, usize, usize),
                dense: bool,
            ) {
                let mut masks = [$mask_of(0); V];
                for v in 0..V {
                    masks[v] = $mask_of(n.saturating_sub(j + v * $lanes).min($lanes));
                }
                let mut acc = [[$zero(); V]; R];
                for p in 0..k {
                    let mut av = [0.0; R];
                    for r in 0..R {
                        av[r] = *a.add(r * ars + p * acs);
                    }
                    let mut bv = [$zero(); V];
                    for v in 0..V {
                        let from = b.wrapping_add(p * n + j + v * $lanes);
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
                for r in 0..R {
                    for v in 0..V {
                        let to = out.wrapping_add(r * n + j + v * $lanes);
                        if TAIL {
                            $store(to, masks[v], acc[r][v]);
                        } else {
                            $storeu(to, acc[r][v]);
                        }
                    }
                }
            }
            // A band of R rows: whole tiles, then the masked one.
            //
            // SAFETY: as `tile`, whose column conditions the loop establishes.
            #[target_feature(enable = $feature)]
            unsafe fn band<const R: usize, const V: usize>(
                a: *const f64,
                strides: Strides,
                b: *const f64,
                out: *mut f64,
                (k, n): (usize, usize),
                dense: bool,
            ) {
                let mut j = 0;
                while j + V * $lanes <= n {
                    tile::<R, V, false>(a, strides, b, out, (k, n, j), dense);
                    j += V * $lanes;
                }
                if j < n {
                    tile::<R, V, true>(a, strides, b, out, (k, n, j), dense);
                }
            }
            debug_assert_eq!(a.len(), m * k);
            debug_assert_eq!(b.len(), k * n);
            debug_assert_eq!(out.len(), m * n);
            // One vectorised scan buys most products a loop that skips the
            // zero test (`|`, not `||`: no early exit to branch on).
            let dense = !a.iter().fold(false, |z, &x| z | (x == 0.0));
            let mut i = 0;
            while i < m {
                let rows = (m - i).min(4);
                let (ap, bp) = (a.as_ptr().add(i * strides.0), b.as_ptr());
                let op = out.as_mut_ptr().add(i * n);
                match rows {
                    4 => band::<4, 3>(ap, strides, bp, op, (k, n), dense),
                    3 => band::<3, 3>(ap, strides, bp, op, (k, n), dense),
                    2 => band::<2, 3>(ap, strides, bp, op, (k, n), dense),
                    _ => band::<1, 6>(ap, strides, bp, op, (k, n), dense),
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

/// Broadcast-add a `[1,d]` bias row to every row of `x`, in place (the value
/// of `Graph::add_row`).
pub fn add_row(mut x: Array, bias: &Array) -> Array {
    assert_eq!(bias.rows, 1);
    assert_eq!(x.cols, bias.cols);
    for row in x.data.chunks_exact_mut(bias.cols.max(1)) {
        for (v, &b) in row.iter_mut().zip(&bias.data) {
            *v += b;
        }
    }
    x
}

/// Elementwise sum (mirrors `Graph::add`).
pub fn add(a: &Array, b: &Array) -> Array {
    a.zip(b, |x, y| x + y)
}

/// Elementwise product (mirrors `Graph::mul`).
pub fn mul(a: &Array, b: &Array) -> Array {
    a.zip(b, |x, y| x * y)
}

/// Scalar multiply (mirrors `Graph::scale`).
pub fn scale(a: &Array, k: f64) -> Array {
    a.map(|x| x * k)
}

/// Scalar offset (mirrors `Graph::add_const`).
pub fn add_const(a: &Array, k: f64) -> Array {
    a.map(|x| x + k)
}

/// Elementwise tanh (mirrors `Graph::tanh`).
pub fn tanh(a: &Array) -> Array {
    a.map(f64::tanh)
}

/// Elementwise logistic sigmoid (mirrors `Graph::sigmoid`).
pub fn sigmoid(a: &Array) -> Array {
    a.map(|x| 1.0 / (1.0 + (-x).exp()))
}

/// Leaky ReLU (mirrors `Graph::lrelu`).
pub fn lrelu(a: &Array, slope: f64) -> Array {
    a.map(|x| if x >= 0.0 { x } else { slope * x })
}

/// Row-wise layer normalisation (the value of `Graph::layer_norm`).
pub fn layer_norm(x: &Array, gain: &Array, bias: &Array) -> Array {
    layer_norm_into(Vec::new(), x, gain, bias)
}

/// [`layer_norm`] built in `buf`.
pub fn layer_norm_into(mut buf: Vec<f64>, x: &Array, gain: &Array, bias: &Array) -> Array {
    let d = x.cols;
    assert_eq!(
        (gain.data.len(), bias.data.len()),
        (d, d),
        "layer_norm width"
    );
    buf.clear();
    for row in x.row_slices() {
        let (mu, sd) = row_moments(row);
        let affine = row.iter().zip(&gain.data).zip(&bias.data);
        buf.extend(affine.map(|((&x, &g), &b)| g * ((x - mu) / sd) + b));
    }
    Array::from_vec(x.rows, d, buf)
}

/// Mean and `sqrt(variance + eps)` of one layer-norm row.
pub(crate) fn row_moments(row: &[f64]) -> (f64, f64) {
    let d = row.len() as f64;
    let mu = row.iter().sum::<f64>() / d;
    let var = row.iter().map(|&x| (x - mu) * (x - mu)).sum::<f64>() / d;
    (mu, (var + LAYER_NORM_EPS).sqrt())
}

const LAYER_NORM_EPS: f64 = 1e-5;

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

    /// Every kernel this CPU can run, not only the one [`kernel`] picks.
    fn kernels() -> Vec<(&'static str, KernelFn)> {
        let mut ks: Vec<(&'static str, KernelFn)> = vec![("scalar", matmul_scalar)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                ks.push(("avx2", matmul_avx2));
            }
            if is_x86_feature_detected!("avx512f") {
                ks.push(("avx512", matmul_avx512));
            }
        }
        ks
    }

    /// `a * b`, or `aᵀ * b` read by stride, through one kernel of [`kernels`].
    fn run(kernel: KernelFn, a: &Array, transposed: bool, b: &Array) -> Array {
        let (m, strides) = if transposed {
            (a.cols, (1, a.cols))
        } else {
            (a.rows, (a.cols, 1))
        };
        let mut out = Array::zeros(m, b.cols);
        assert_eq!(a.data.len(), m * b.rows);
        // SAFETY: `kernels()` lists a SIMD kernel only after
        // `is_x86_feature_detected!` confirmed its feature; `from_vec` and
        // `zeros` built all three arrays with data.len() == rows*cols, and
        // the assert above pins a's m*k to b's k.
        unsafe {
            kernel(
                &a.data,
                strides,
                &b.data,
                &mut out.data,
                (m, b.rows, b.cols),
            )
        };
        out
    }

    fn first_difference(want: &Array, got: &Array) -> Option<String> {
        let n = want.cols;
        (want.iter().zip(got.iter()).enumerate())
            .find(|(_, (w, g))| w.to_bits() != g.to_bits())
            .map(|(i, (w, g))| format!("({}, {}): want {w:e}, got {g:e}", i / n, i % n))
    }

    /// The products one CRR step and one serve tick really make.
    const STEP_SHAPES: [(usize, usize, usize); 14] = [
        (16, 48, 48),
        (16, 69, 48),
        (16, 48, 3),
        (16, 3, 48),
        (16, 48, 69),
        (1, 128, 48),
        (48, 128, 48),
        (69, 128, 48),
        (70, 8, 64),
        (64, 8, 41),
        (128, 64, 70),
        (640, 70, 64),
        (1, 48, 144),
        (512, 48, 144),
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
            for (name, kernel) in kernels() {
                for (lhs, transposed) in [(&a, false), (&at, true)] {
                    if let Some(d) = first_difference(&want, &run(kernel, lhs, transposed, &b)) {
                        return Err(format!(
                            "{name} {m}x{k}x{n} dense {dense} transposed {transposed}: {d}"
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
        assert_bits_eq(&reference_matmul(&a, &b), &matmul_tn(&a.t(), &b));
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
            for (name, kernel) in kernels() {
                for (lhs, transposed) in [(&a, false), (&at, true)] {
                    let got = run(kernel, lhs, transposed, &b);
                    let what = format!("{name} {m}x{k}x{n} transposed {transposed}");
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
            for (name, kernel) in kernels() {
                let got = run(kernel, &zeros, false, &b);
                assert!(got.iter().all(|v| v.to_bits() == 0), "{name} {m}x{k}x{n}");
            }
        }
    }

    fn assert_bits_eq(want: &Array, got: &Array) {
        assert_eq!(want.shape(), got.shape());
        let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(wb, gb);
    }

    #[test]
    fn elementwise_ops_match_graph() {
        let mut rng = Rng::new(11);
        let x = random_array(&mut rng, 3, 7);
        let y = random_array(&mut rng, 3, 7);
        let bias = random_array(&mut rng, 1, 7);
        let gain = random_array(&mut rng, 1, 7);

        let mut g = Graph::new();
        let xn = g.input(x.clone());
        let yn = g.input(y.clone());
        let bn = g.input(bias.clone());
        let gn = g.input(gain.clone());

        let node = g.add(xn, yn);
        assert_bits_eq(g.value(node), &add(&x, &y));
        let node = g.mul(xn, yn);
        assert_bits_eq(g.value(node), &mul(&x, &y));
        let node = g.add_row(xn, bn);
        assert_bits_eq(g.value(node), &add_row(x.clone(), &bias));
        let node = g.scale(xn, -1.7);
        assert_bits_eq(g.value(node), &scale(&x, -1.7));
        let node = g.add_const(xn, 0.3);
        assert_bits_eq(g.value(node), &add_const(&x, 0.3));
        let node = g.tanh(xn);
        assert_bits_eq(g.value(node), &tanh(&x));
        let node = g.sigmoid(xn);
        assert_bits_eq(g.value(node), &sigmoid(&x));
        let node = g.lrelu(xn, 0.01);
        assert_bits_eq(g.value(node), &lrelu(&x, 0.01));
        let node = g.layer_norm(xn, gn, bn);
        assert_bits_eq(g.value(node), &layer_norm(&x, &gain, &bias));
    }
}
