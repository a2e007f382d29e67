//! Graph-free forward kernels: the serving runtime's forward pass and every
//! pass of the trainer that takes no gradient.
//!
//! [`crate::graph::Graph`] keeps what backward needs — a copy of every
//! parameter matrix and ~60 nodes per policy step on its tape — which is
//! waste where no gradient is taken. The helpers here compute the same
//! forward math directly on [`Array`]s.
//!
//! **Bit-identity contract**: every op mirrors its `graph.rs` counterpart
//! element-for-element, in the same evaluation order. All ops are
//! row-independent, so a batched forward over B rows equals B single-row
//! graph forwards bit-for-bit. The matmul has a runtime-dispatched SIMD
//! path (AVX-512F / AVX2) that preserves scalar semantics: separate
//! multiply and add per element (no FMA — fusing would change rounding),
//! vector lanes spread across output columns `j`, the inner `p` loop kept
//! sequential, and the same skip-zero shortcut as the scalar definition it
//! is tested against (`tests::reference_matmul`). The graph's own products —
//! forward, activation gradients and the ordered parameter-gradient
//! reduction of `Graph::backward_rows` — run on this kernel too.

// The workspace denies `unsafe_code`; the SIMD kernels below are the one
// exception, encapsulated by `matmul` (see its SAFETY-BOUNDARY note).
#![allow(unsafe_code)]

use crate::array::Array;
use std::sync::OnceLock;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

fn kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Kernel::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
        }
        Kernel::Scalar
    })
}

/// `a (m x k) * b (k x n)`: every output element accumulates over `k` in
/// increasing order from `+0.0`, separate multiply and add, skipping exact
/// zeros of `a` — the same bits from every kernel.
// SAFETY-BOUNDARY: all unsafe SIMD dispatch is encapsulated here — kernels
// run only after `is_x86_feature_detected!` confirmed the target feature,
// and slice lengths are pinned by Array's rows*cols invariant, so no caller
// obligation escapes this fn.
pub fn matmul(a: &Array, b: &Array) -> Array {
    assert_eq!(a.cols, b.rows, "matmul inner dims");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut out = Array::zeros(m, n);
    match kernel() {
        // SAFETY: `kernel()` returned Avx512/Avx2 only after
        // `is_x86_feature_detected!` confirmed the target feature on this
        // CPU, satisfying each kernel's #[target_feature] precondition;
        // the slice-length preconditions (a = m*k, b = k*n, out = m*n)
        // hold by Array's invariant (data.len() == rows*cols) together
        // with the dimension checks above, and are re-asserted by the
        // debug_assert!s at each kernel entry.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => unsafe { matmul_avx512(&a.data, &b.data, &mut out.data, m, k, n) },
        // SAFETY: as above — feature presence checked at dispatch,
        // slice lengths guaranteed by Array's shape invariant.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { matmul_avx2(&a.data, &b.data, &mut out.data, m, k, n) },
        Kernel::Scalar => matmul_scalar(&a.data, &b.data, &mut out.data, m, k, n),
    }
    out
}

fn matmul_scalar(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
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

// The SIMD kernels tile output columns into register-resident accumulator
// blocks (4 vectors, then 1 vector, then a scalar tail). Keeping the
// accumulators in registers across the whole `p` loop removes the
// store-to-load forwarding chain a read-modify-write output row would
// create — which is the difference between ~1.3x and ~4x over scalar on
// these small matrices. Every output element still accumulates over `p` in
// increasing order from 0.0 with separate mul/add and the skip-zero
// shortcut, so results stay bit-identical to the scalar loop.

// SAFETY: callers must ensure (1) the CPU supports AVX-512F (enforced by
// the `kernel()` dispatch via `is_x86_feature_detected!`) and (2) the
// slice lengths match the dimensions: a.len() == m*k, b.len() == k*n,
// out.len() == m*n. Every pointer formed below stays in bounds under (2):
// `arow.add(p)` reads a[i*k + p] with i < m, p < k; `bp.add(q)` reads
// b[p*n + j + q] with j + q < n (each unrolled block loads at offsets
// j..j+32 only while j + 32 <= n); `orow.add(j)` writes out[i*n + j] with
// j < n. All loads/stores use the unaligned intrinsics (`loadu`/`storeu`),
// so no alignment precondition beyond f64's natural alignment (guaranteed
// by the slice type) is required.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn matmul_avx512(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), m * k, "matmul_avx512: lhs length");
    debug_assert_eq!(b.len(), k * n, "matmul_avx512: rhs length");
    debug_assert_eq!(out.len(), m * n, "matmul_avx512: out length");
    for i in 0..m {
        let arow = a.as_ptr().add(i * k);
        let orow = out.as_mut_ptr().add(i * n);
        let mut j = 0usize;
        while j + 32 <= n {
            let mut acc0 = _mm512_setzero_pd();
            let mut acc1 = _mm512_setzero_pd();
            let mut acc2 = _mm512_setzero_pd();
            let mut acc3 = _mm512_setzero_pd();
            for p in 0..k {
                let av = *arow.add(p);
                if av == 0.0 {
                    continue;
                }
                let vs = _mm512_set1_pd(av);
                let bp = b.as_ptr().add(p * n + j);
                acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(vs, _mm512_loadu_pd(bp)));
                acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(vs, _mm512_loadu_pd(bp.add(8))));
                acc2 = _mm512_add_pd(acc2, _mm512_mul_pd(vs, _mm512_loadu_pd(bp.add(16))));
                acc3 = _mm512_add_pd(acc3, _mm512_mul_pd(vs, _mm512_loadu_pd(bp.add(24))));
            }
            _mm512_storeu_pd(orow.add(j), acc0);
            _mm512_storeu_pd(orow.add(j + 8), acc1);
            _mm512_storeu_pd(orow.add(j + 16), acc2);
            _mm512_storeu_pd(orow.add(j + 24), acc3);
            j += 32;
        }
        while j + 8 <= n {
            let mut acc = _mm512_setzero_pd();
            for p in 0..k {
                let av = *arow.add(p);
                if av == 0.0 {
                    continue;
                }
                let vs = _mm512_set1_pd(av);
                acc = _mm512_add_pd(
                    acc,
                    _mm512_mul_pd(vs, _mm512_loadu_pd(b.as_ptr().add(p * n + j))),
                );
            }
            _mm512_storeu_pd(orow.add(j), acc);
            j += 8;
        }
        while j < n {
            let mut s = 0.0;
            for p in 0..k {
                let av = *arow.add(p);
                if av == 0.0 {
                    continue;
                }
                s += av * *b.as_ptr().add(p * n + j);
            }
            *orow.add(j) = s;
            j += 1;
        }
    }
}

// SAFETY: callers must ensure (1) the CPU supports AVX2 (enforced by the
// `kernel()` dispatch via `is_x86_feature_detected!`) and (2) the slice
// lengths match the dimensions: a.len() == m*k, b.len() == k*n,
// out.len() == m*n. In-bounds reasoning mirrors `matmul_avx512` with
// 4-lane vectors: the unrolled block touches b[p*n + j .. p*n + j + 16]
// only while j + 16 <= n, the single-vector loop while j + 4 <= n, and
// the scalar tail while j < n. Unaligned intrinsics throughout, so
// f64-alignment from the slice type suffices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_avx2(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), m * k, "matmul_avx2: lhs length");
    debug_assert_eq!(b.len(), k * n, "matmul_avx2: rhs length");
    debug_assert_eq!(out.len(), m * n, "matmul_avx2: out length");
    for i in 0..m {
        let arow = a.as_ptr().add(i * k);
        let orow = out.as_mut_ptr().add(i * n);
        let mut j = 0usize;
        while j + 16 <= n {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            let mut acc2 = _mm256_setzero_pd();
            let mut acc3 = _mm256_setzero_pd();
            for p in 0..k {
                let av = *arow.add(p);
                if av == 0.0 {
                    continue;
                }
                let vs = _mm256_set1_pd(av);
                let bp = b.as_ptr().add(p * n + j);
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(vs, _mm256_loadu_pd(bp)));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(vs, _mm256_loadu_pd(bp.add(4))));
                acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(vs, _mm256_loadu_pd(bp.add(8))));
                acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(vs, _mm256_loadu_pd(bp.add(12))));
            }
            _mm256_storeu_pd(orow.add(j), acc0);
            _mm256_storeu_pd(orow.add(j + 4), acc1);
            _mm256_storeu_pd(orow.add(j + 8), acc2);
            _mm256_storeu_pd(orow.add(j + 12), acc3);
            j += 16;
        }
        while j + 4 <= n {
            let mut acc = _mm256_setzero_pd();
            for p in 0..k {
                let av = *arow.add(p);
                if av == 0.0 {
                    continue;
                }
                let vs = _mm256_set1_pd(av);
                acc = _mm256_add_pd(
                    acc,
                    _mm256_mul_pd(vs, _mm256_loadu_pd(b.as_ptr().add(p * n + j))),
                );
            }
            _mm256_storeu_pd(orow.add(j), acc);
            j += 4;
        }
        while j < n {
            let mut s = 0.0;
            for p in 0..k {
                let av = *arow.add(p);
                if av == 0.0 {
                    continue;
                }
                s += av * *b.as_ptr().add(p * n + j);
            }
            *orow.add(j) = s;
            j += 1;
        }
    }
}

/// Broadcast-add a `[1,d]` bias row to every row (mirrors `Graph::add_row`).
pub fn add_row(x: &Array, bias: &Array) -> Array {
    assert_eq!(bias.rows, 1);
    assert_eq!(x.cols, bias.cols);
    let mut out = x.clone();
    for r in 0..out.rows {
        for c in 0..out.cols {
            *out.at_mut(r, c) += bias.at(0, c);
        }
    }
    out
}

/// `[a | b]` column-wise (the value of `Graph::concat_cols`).
pub fn concat_cols(a: &Array, b: &Array) -> Array {
    assert_eq!(a.rows, b.rows);
    let mut out = Array::zeros(a.rows, a.cols + b.cols);
    for r in 0..a.rows {
        for c in 0..a.cols {
            *out.at_mut(r, c) = a.at(r, c);
        }
        for c in 0..b.cols {
            *out.at_mut(r, a.cols + c) = b.at(r, c);
        }
    }
    out
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

/// Row-wise layer normalisation (mirrors `Graph::layer_norm`).
pub fn layer_norm(x: &Array, gain: &Array, bias: &Array) -> Array {
    let eps = 1e-5;
    let d = x.cols;
    let mut out = Array::zeros(x.rows, d);
    for r in 0..x.rows {
        let row = &x.data[r * d..(r + 1) * d];
        let mu = row.iter().sum::<f64>() / d as f64;
        let var = row.iter().map(|&x| (x - mu) * (x - mu)).sum::<f64>() / d as f64;
        let sd = (var + eps).sqrt();
        for (c, &x) in row.iter().enumerate() {
            let xhat = (x - mu) / sd;
            *out.at_mut(r, c) = gain.at(0, c) * xhat + bias.at(0, c);
        }
    }
    out
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

    #[test]
    fn simd_matmul_bit_identical_to_array_matmul() {
        forall(
            "infer::matmul == reference_matmul",
            PropConfig::default(),
            |rng| {
                let m = 1 + (rng.next_u64() % 12) as usize;
                let k = 1 + (rng.next_u64() % 20) as usize;
                let n = 1 + (rng.next_u64() % 20) as usize;
                let a = random_array(rng, m, k);
                let b = random_array(rng, k, n);
                let got = matmul(&a, &b);
                let want = reference_matmul(&a, &b);
                for (g, w) in got.iter().zip(want.iter()) {
                    if g.to_bits() != w.to_bits() {
                        return Err(format!("{g} != {w} at {m}x{k}x{n}"));
                    }
                }
                Ok(())
            },
        );
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
        assert_bits_eq(g.value(node), &add_row(&x, &bias));
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
