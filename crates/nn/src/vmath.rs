//! Slice kernels for the policy's activations — `exp`, `tanh` and the
//! logistic sigmoid — with libm's bits, 8 lanes at a time.
//!
//! **Whose bits.** The bit contract (DESIGN.md) pins every activation to what
//! `f64::exp`, `f64::tanh` and [`crate::infer::logistic`] return from glibc
//! 2.36 on an x86_64 host with FMA and AVX2. There `exp` is the `__exp_fma`
//! ifunc variant: Arm's optimized-routines `exp` (Copyright (c) 2018 Arm
//! Ltd.; MIT OR Apache-2.0 WITH LLVM-exception) compiled with FMA
//! contraction. `tanh` is fdlibm's `s_tanh.c`, which calls `__expm1_fma`:
//! fdlibm's `s_expm1.c` compiled the same way. The AVX-512 kernels below transcribe
//! those routines operation for operation — the same constants, the same
//! 256-entry `exp` table (H[k] the double nearest 2^(k/128) and T[k] the
//! double nearest 2^(k/128)/H[k] − 1, stored as glibc stores them), and
//! exactly the fused and unfused operations the compiled variants execute —
//! with every branch outcome computed as a lane mask and the outcomes
//! blended. A lane outside a routine's main range calls libm for itself:
//! for `exp` a top-12-bit exponent outside `0x3c9..=0x407` (|x| < 2⁻⁵⁴,
//! |x| ≥ 512, NaN, ±inf), for `expm1` a high word of |x| at or above
//! `0x4043687a` (|x| ≥ 56·ln2, NaN, ±inf) or below `0x3c900000`
//! (|x| < 2⁻⁵⁴), which for `tanh` is |x| ≥ 56·ln2/2, |x| < 2⁻⁵⁵ and ±0.
//! A host without AVX-512F calls libm for every element. A host whose libm
//! differs gets different bits from libm itself and fails this module's
//! tests, as it already fails the goldens.
//!
//! The fdlibm routines carry Sun's notice:
//!
//! > Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//! >
//! > Developed at SunPro, a Sun Microsystems, Inc. business.
//! > Permission to use, copy, modify, and distribute this
//! > software is freely granted, provided that this notice
//! > is preserved.
//!
//! Every entry point runs inside `infer`'s SAFETY-BOUNDARY: the AVX-512
//! kernel is chosen only after `is_x86_feature_detected!("avx512f")`
//! (`infer::isa`), and its loads, stores and gathers stay inside the slice
//! it is handed and the 256-element table.

#![allow(
    unsafe_code,
    reason = "the workspace denies `unsafe_code`; the AVX-512 kernels below are its other exception, entered only through the dispatch in `run` (see `infer`'s SAFETY-BOUNDARY note) — `allow`, not `expect`: off x86_64 there is no unsafe block to fulfil it"
)]

use crate::infer::{isa, logistic, Isa};

/// `e^x` of every element, in place: `f64::exp`'s bits.
pub fn exp_in_place(v: &mut [f64]) {
    run(isa(), Func::Exp, v);
}

/// `tanh(x)` of every element, in place: `f64::tanh`'s bits.
pub fn tanh_in_place(v: &mut [f64]) {
    run(isa(), Func::Tanh, v);
}

/// `1 / (1 + e^-x)` of every element, in place: [`logistic`]'s bits.
pub fn logistic_in_place(v: &mut [f64]) {
    run(isa(), Func::Logistic, v);
}

/// A function the kernels compute.
#[derive(Clone, Copy, Debug)]
enum Func {
    Exp,
    Tanh,
    Logistic,
    /// `tanh`'s inner routine, run alone only by the tests.
    #[cfg(test)]
    Expm1,
}

impl Func {
    /// The element through libm: the definition of the kernels' bits.
    fn libm(self, x: f64) -> f64 {
        match self {
            Func::Exp => x.exp(),
            Func::Tanh => x.tanh(),
            Func::Logistic => logistic(x),
            #[cfg(test)]
            Func::Expm1 => x.exp_m1(),
        }
    }
}

/// `f` of every element of `v` on `isa`'s kernel, in place.
fn run(isa: Isa, f: Func, v: &mut [f64]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa` names AVX-512 only after `is_x86_feature_detected!`
        // confirmed `avx512f` on this CPU (`infer::isa`, or the tests'
        // `kernels`).
        Isa::Avx512 => unsafe { avx512::apply(f, v) },
        _ => v.iter_mut().for_each(|x| *x = f.libm(*x)),
    }
}

/// The compiled variants' constants, by their bits.
mod consts {
    /// `exp`: N/ln2, −ln2/N in two parts, the rounding shift 0x1.8p52 and
    /// the polynomial's C2..C5 (N = 128).
    pub const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
    pub const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
    pub const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
    pub const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
    pub const C2: f64 = f64::from_bits(0x3fdf_ffff_ffff_fdbd);
    pub const C3: f64 = f64::from_bits(0x3fc5_5555_5555_543c);
    pub const C4: f64 = f64::from_bits(0x3fa5_5555_cf17_2b91);
    pub const C5: f64 = f64::from_bits(0x3f81_1111_67a4_d017);

    /// `expm1`: ln2 in two parts, 1/ln2 and the scaled coefficients Q1..Q5.
    pub const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    pub const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    pub const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
    pub const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
    pub const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
    pub const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
    pub const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
    pub const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);

    /// `exp`'s table: `TAB[2k]` is the bits of T[k], `TAB[2k + 1]` those of
    /// H[k] minus `k << 45` (module docs).
    #[rustfmt::skip]
    pub static TAB: [u64; 256] = [
        0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
        0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
        0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
        0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
        0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
        0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
        0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
        0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
        0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
        0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
        0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
        0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
        0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
        0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
        0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
        0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
        0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
        0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
        0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
        0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
        0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
        0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
        0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
        0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
        0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
        0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
        0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
        0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
        0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
        0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
        0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
        0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
        0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
        0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
        0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
        0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
        0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
        0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
        0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
        0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
        0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
        0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
        0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
        0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
        0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
        0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
        0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
        0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
        0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
        0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
        0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
        0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
        0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
        0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
        0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
        0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
        0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
        0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
        0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
        0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
        0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
        0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
        0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
        0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
    ];
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::consts::*;
    use super::Func;
    use std::arch::x86_64::*;

    /// `f` of every element of `v`, 8 lanes at a time; a tail of fewer than
    /// 8 elements runs as one masked vector, whose dead lanes are neither
    /// read nor written.
    #[target_feature(enable = "avx512f")]
    pub(super) fn apply(f: Func, v: &mut [f64]) {
        match f {
            Func::Exp => each(v, f, |x| exp(x)),
            Func::Tanh => each(v, f, |x| tanh(x)),
            Func::Logistic => each(v, f, |x| {
                let (e, special) = exp(neg(x));
                (_mm512_div_pd(one(), _mm512_add_pd(one(), e)), special)
            }),
            #[cfg(test)]
            Func::Expm1 => each(v, f, |x| expm1(x)),
        }
    }

    /// The loop of [`apply`] over a lane kernel, which returns its result
    /// and the mask of lanes outside its main range; those take
    /// `f.libm(x)`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn each(v: &mut [f64], f: Func, lanes: impl Fn(__m512d) -> (__m512d, __mmask8)) {
        let mut blocks = v.chunks_exact_mut(8);
        for block in &mut blocks {
            // SAFETY: `block` is 8 elements long; the moves are unaligned.
            let x = unsafe { _mm512_loadu_pd(block.as_ptr()) };
            let (y, special) = lanes(x);
            // SAFETY: as the load.
            unsafe { _mm512_storeu_pd(block.as_mut_ptr(), y) };
            patch(block, x, special, f);
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            let live = ((1u32 << tail.len()) - 1) as __mmask8;
            // SAFETY: `live` covers the tail's `len() < 8` elements only;
            // the masked moves do not touch memory under a dead lane.
            let x = unsafe { _mm512_maskz_loadu_pd(live, tail.as_ptr()) };
            let (y, special) = lanes(x);
            // SAFETY: as the load.
            unsafe { _mm512_mask_storeu_pd(tail.as_mut_ptr(), live, y) };
            patch(tail, x, special & live, f);
        }
    }

    /// Element `i` of `block` becomes `f.libm(x[i])` for each lane `i` set
    /// in `special`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn patch(block: &mut [f64], x: __m512d, mut special: __mmask8, f: Func) {
        if special == 0 {
            return;
        }
        let mut xs = [0.0; 8];
        // SAFETY: `xs` holds 8 elements; the store is unaligned.
        unsafe { _mm512_storeu_pd(xs.as_mut_ptr(), x) };
        while special != 0 {
            let i = special.trailing_zeros() as usize;
            block[i] = f.libm(xs[i]);
            special &= special - 1;
        }
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn splat(x: f64) -> __m512d {
        _mm512_set1_pd(x)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn int(x: i64) -> __m512i {
        _mm512_set1_epi64(x)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn one() -> __m512d {
        _mm512_set1_pd(1.0)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn bits(x: __m512d) -> __m512i {
        _mm512_castpd_si512(x)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn float(x: __m512i) -> __m512d {
        _mm512_castsi512_pd(x)
    }

    /// `-x`: the sign bit flipped, as `-x` compiles.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn neg(x: __m512d) -> __m512d {
        float(_mm512_xor_si512(bits(x), int(i64::MIN)))
    }

    /// `__exp_fma`'s main path. The special lanes are those whose top 12
    /// bits `abstop` (sign cleared) lie outside `0x3c9..=0x407`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn exp(x: __m512d) -> (__m512d, __mmask8) {
        let abstop = _mm512_and_si512(_mm512_srli_epi64::<52>(bits(x)), int(0x7ff));
        let special = _mm512_cmpgt_epu64_mask(_mm512_sub_epi64(abstop, int(0x3c9)), int(0x3e));
        // x = k ln2/N + r, with the integer k in the low bits of `kd`'s
        // pattern until the shift is taken off again.
        let kd = _mm512_fmadd_pd(x, splat(INV_LN2_N), splat(SHIFT));
        let ki = bits(kd);
        let kd = _mm512_sub_pd(kd, splat(SHIFT));
        let r = _mm512_fmadd_pd(kd, splat(NEG_LN2_HI_N), x);
        let r = _mm512_fmadd_pd(kd, splat(NEG_LN2_LO_N), r);
        let idx = _mm512_slli_epi64::<1>(_mm512_and_si512(ki, int(0x7f)));
        let table = TAB.as_ptr();
        // SAFETY: `idx` is even and at most 254, so both gathers read
        // elements 0..=255 of the 256-element table.
        let (tail, sbits) = unsafe {
            (
                _mm512_i64gather_pd::<8>(idx, table.cast()),
                _mm512_i64gather_epi64::<8>(_mm512_add_epi64(idx, int(1)), table.cast()),
            )
        };
        // 2^(k/N) ~= scale * (1 + tail); exp(x) ~= scale + scale * tmp.
        let scale = float(_mm512_add_epi64(sbits, _mm512_slli_epi64::<45>(ki)));
        let r2 = _mm512_mul_pd(r, r);
        let lo = _mm512_fmadd_pd(r, splat(C3), splat(C2));
        let hi = _mm512_fmadd_pd(r, splat(C5), splat(C4));
        let tmp = _mm512_fmadd_pd(lo, r2, _mm512_add_pd(r, tail));
        let tmp = _mm512_fmadd_pd(_mm512_mul_pd(r2, r2), hi, tmp);
        (_mm512_fmadd_pd(scale, tmp, scale), special)
    }

    /// `__expm1_fma`'s main path: the high word `hx` of |x| in
    /// `0x3c900000..=0x40436879`. The reduction is by k = 0 up to
    /// `hx = 0x3fd62e42`, by k = ±1 up to `0x3ff0a2b1`, and by
    /// `k = (int)(x/ln2 ± 0.5)` beyond; the result's formula is chosen by k.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn expm1(x: __m512d) -> (__m512d, __mmask8) {
        let xb = bits(x);
        let hx = _mm512_and_si512(_mm512_srli_epi64::<32>(xb), int(0x7fff_ffff));
        let special = _mm512_cmpgt_epu64_mask(hx, int(0x4043_6879))
            | _mm512_cmplt_epu64_mask(hx, int(0x3c90_0000));
        let negative = _mm512_cmplt_epi64_mask(xb, int(0));
        let reduced = _mm512_cmpgt_epu64_mask(hx, int(0x3fd6_2e42));
        let by_one = _mm512_cmple_epu64_mask(hx, int(0x3ff0_a2b1));

        // |x| beyond 1.5 ln2: t = k, hi = x - t ln2_hi (fused), lo = t ln2_lo.
        let half = _mm512_mask_blend_pd(negative, splat(0.5), splat(-0.5));
        let k32 = _mm512_cvttpd_epi32(_mm512_add_pd(half, _mm512_mul_pd(x, splat(INV_LN2))));
        let t = _mm512_cvtepi32_pd(k32);
        let hi = _mm512_fnmadd_pd(t, splat(LN2_HI), x);
        let lo = _mm512_mul_pd(t, splat(LN2_LO));
        let k = _mm512_cvtepi32_epi64(k32);
        // |x| up to 1.5 ln2: k = ±1.
        let hi = _mm512_mask_blend_pd(
            by_one,
            hi,
            _mm512_mask_blend_pd(
                negative,
                _mm512_sub_pd(x, splat(LN2_HI)),
                _mm512_add_pd(x, splat(LN2_HI)),
            ),
        );
        let lo = _mm512_mask_blend_pd(
            by_one,
            lo,
            _mm512_mask_blend_pd(negative, splat(LN2_LO), splat(-LN2_LO)),
        );
        let k = _mm512_mask_blend_epi64(
            by_one,
            k,
            _mm512_mask_blend_epi64(negative, int(1), int(-1)),
        );
        // Up to 0.5 ln2: k = 0 and x itself.
        let k = _mm512_maskz_mov_epi64(reduced, k);
        let xr = _mm512_sub_pd(hi, lo);
        let c = _mm512_sub_pd(_mm512_sub_pd(hi, xr), lo);
        let x = _mm512_mask_blend_pd(reduced, x, xr);

        // The primary range.
        let hfx = _mm512_mul_pd(x, splat(0.5));
        let hxs = _mm512_mul_pd(x, hfx);
        let r1 = _mm512_fmadd_pd(hxs, splat(Q1), one());
        let h2 = _mm512_mul_pd(hxs, hxs);
        let r2 = _mm512_fmadd_pd(hxs, splat(Q3), splat(Q2));
        let h4 = _mm512_mul_pd(h2, h2);
        let r3 = _mm512_fmadd_pd(hxs, splat(Q5), splat(Q4));
        let r1 = _mm512_fmadd_pd(h4, r3, _mm512_fmadd_pd(h2, r2, r1));
        let t = _mm512_fnmadd_pd(r1, hfx, splat(3.0));
        let e = _mm512_div_pd(_mm512_sub_pd(r1, t), _mm512_fnmadd_pd(x, t, splat(6.0)));
        let e = _mm512_mul_pd(e, hxs);

        // k = 0: x - (x e - hxs).
        let at_zero = _mm512_sub_pd(x, _mm512_fmsub_pd(e, x, hxs));
        // Otherwise e = (x (e - c) - c) - hxs, and y is scaled by 2^k.
        let e = _mm512_sub_pd(_mm512_fmsub_pd(_mm512_sub_pd(e, c), x, c), hxs);
        let scaled = |y: __m512d| float(_mm512_add_epi64(bits(y), _mm512_slli_epi64::<52>(k)));
        // 2 <= k <= 19: y = (1 - 2^-k) - (e - x).
        let t = _mm512_slli_epi64::<32>(_mm512_sub_epi64(
            int(0x3ff0_0000),
            _mm512_srlv_epi64(int(0x20_0000), k),
        ));
        let mut y = scaled(_mm512_sub_pd(float(t), _mm512_sub_pd(e, x)));
        // 20 <= k <= 56: y = (x - (e + 2^-k)) + 1.
        let t = float(_mm512_slli_epi64::<52>(_mm512_sub_epi64(int(0x3ff), k)));
        let big = _mm512_add_pd(_mm512_sub_pd(x, _mm512_add_pd(e, t)), one());
        y = _mm512_mask_blend_pd(_mm512_cmpgt_epi64_mask(k, int(19)), y, scaled(big));
        // k <= -2: y = (1 - (e - x)) 2^k - 1.
        let low = _mm512_sub_pd(scaled(_mm512_sub_pd(one(), _mm512_sub_pd(e, x))), one());
        y = _mm512_mask_blend_pd(_mm512_cmplt_epi64_mask(k, int(-1)), y, low);
        // k = 1: -2 (e - (x + 0.5)) below x = -0.25, 1 + 2 (x - e) from it.
        let below = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, splat(-0.25));
        let plus_one = _mm512_mask_blend_pd(
            below,
            _mm512_fmadd_pd(_mm512_sub_pd(x, e), splat(2.0), one()),
            _mm512_mul_pd(_mm512_sub_pd(e, _mm512_add_pd(x, splat(0.5))), splat(-2.0)),
        );
        y = _mm512_mask_blend_pd(_mm512_cmpeq_epi64_mask(k, int(1)), y, plus_one);
        // k = -1: 0.5 (x - e) - 0.5.
        let minus_one = _mm512_fmadd_pd(splat(0.5), _mm512_sub_pd(x, e), splat(-0.5));
        y = _mm512_mask_blend_pd(_mm512_cmpeq_epi64_mask(k, int(-1)), y, minus_one);
        y = _mm512_mask_blend_pd(_mm512_cmpeq_epi64_mask(k, int(0)), y, at_zero);
        (y, special)
    }

    /// fdlibm's `tanh` around the lane-wise [`expm1`]: for |x| >= 1,
    /// `1 - 2/(expm1(2|x|) + 2)`, below it `-t/(t + 2)` for
    /// `t = expm1(-2|x|)`, with x's sign. Its special lanes are `expm1`'s
    /// on that argument.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn tanh(x: __m512d) -> (__m512d, __mmask8) {
        let sign = _mm512_and_si512(bits(x), int(i64::MIN));
        let ax = float(_mm512_andnot_si512(int(i64::MIN), bits(x)));
        let from_one = _mm512_cmpgt_epu64_mask(_mm512_srli_epi64::<32>(bits(ax)), int(0x3fef_ffff));
        let arg = _mm512_mask_blend_pd(
            from_one,
            _mm512_mul_pd(ax, splat(-2.0)),
            _mm512_add_pd(ax, ax),
        );
        let (t, special) = expm1(arg);
        // One division serves both branches: only its numerator differs.
        let two = splat(2.0);
        let q = _mm512_div_pd(
            _mm512_mask_blend_pd(from_one, neg(t), two),
            _mm512_add_pd(t, two),
        );
        let z = _mm512_mask_blend_pd(from_one, q, _mm512_sub_pd(one(), q));
        (float(_mm512_xor_si512(bits(z), sign)), special)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_util::Rng;

    /// Inputs per class of a sweep.
    const SWEEP: usize = 10_000_000;

    /// Every kernel this CPU runs: libm itself, and AVX-512 where present.
    fn kernels() -> Vec<Isa> {
        let mut ks = vec![Isa::Scalar];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            ks.push(Isa::Avx512);
        }
        ks
    }

    /// Equal bits, or both NaN: NaN payloads are not pinned.
    fn same(want: f64, got: f64) -> bool {
        want.to_bits() == got.to_bits() || (want.is_nan() && got.is_nan())
    }

    /// `f` of every element of `xs` through every kernel, against libm.
    fn check(f: Func, xs: &[f64]) -> Result<(), String> {
        let want: Vec<f64> = xs.iter().map(|&x| f.libm(x)).collect();
        for isa in kernels() {
            let mut got = xs.to_vec();
            run(isa, f, &mut got);
            if let Some(i) = (0..xs.len()).find(|&i| !same(want[i], got[i])) {
                return Err(format!(
                    "{isa:?} {f:?}({:e} = {:#018x}): libm {:e}, kernel {:e} (length {})",
                    xs[i],
                    xs[i].to_bits(),
                    want[i],
                    got[i],
                    xs.len()
                ));
            }
        }
        Ok(())
    }

    /// [`SWEEP`] inputs drawn by `draw`, checked in slices of 4096.
    fn sweep(f: Func, seed: u64, draw: impl Fn(&mut Rng) -> f64) {
        let mut rng = Rng::new(seed);
        let mut xs = vec![0.0; 4096];
        for _ in 0..SWEEP / xs.len() + 1 {
            xs.iter_mut().for_each(|x| *x = draw(&mut rng));
            check(f, &xs).unwrap();
        }
    }

    /// The four input classes of a sweep: every bit pattern, the range an
    /// activation sees, the range around the branch points, and the tiny.
    fn sweeps(f: Func) {
        sweep(f, 1, |rng| f64::from_bits(rng.next_u64()));
        sweep(f, 2, |rng| rng.range(-30.0, 30.0));
        sweep(f, 3, |rng| rng.range(-2.0, 2.0));
        sweep(f, 4, |rng| rng.range(-1e-6, 1e-6));
    }

    #[test]
    fn exp_is_libm_on_every_class() {
        sweeps(Func::Exp);
    }

    #[test]
    fn expm1_is_libm_on_every_class() {
        sweeps(Func::Expm1);
    }

    #[test]
    fn tanh_is_libm_on_every_class() {
        sweeps(Func::Tanh);
    }

    #[test]
    fn logistic_is_libm_on_every_class() {
        sweeps(Func::Logistic);
    }

    /// Bit patterns within 2 ulps of `bits`, with both signs.
    fn around(bits: u64, out: &mut Vec<f64>) {
        for b in bits - 2..=bits + 2 {
            out.extend([f64::from_bits(b), -f64::from_bits(b)]);
        }
    }

    /// Every branch bound of the routines, ±2 ulps, and the special values.
    fn bounds() -> Vec<f64> {
        let mut xs = Vec::new();
        // `exp`: the first and last pattern of each top-12-bit exponent at
        // the main range's edges.
        for top in [0x3c8, 0x3c9, 0x407, 0x408, 0x409] {
            around(top << 52, &mut xs);
            around(((top + 1) << 52) - 1, &mut xs);
        }
        // `expm1`'s high-word comparisons (|x| < 2^-54, 0.5 ln2, 1.5 ln2,
        // 56 ln2, the overflow threshold) and `tanh`'s (2^-55, 1, 22), at
        // each word's first and last pattern.
        for word in [
            0x3c8f_ffff,
            0x3fd6_2e42,
            0x3ff0_a2b1,
            0x4043_6879,
            0x4086_2e41,
            0x3c7f_ffff,
            0x3fef_ffff,
            0x4035_ffff,
        ] {
            for w in [word, word + 1] {
                around(w << 32, &mut xs);
                around((w << 32) | 0xffff_ffff, &mut xs);
            }
        }
        // `expm1`'s k = (int)(x/ln2 ± 0.5) switches at (k ± 0.5) ln2.
        for k in [-2.0, -1.0, 0.0, 1.0, 2.0, 19.0, 20.0, 56.0, 57.0] {
            for edge in [k - 0.5, k + 0.5] {
                let x: f64 = edge / consts::INV_LN2;
                if x != 0.0 {
                    around(x.abs().to_bits(), &mut xs);
                }
            }
        }
        let subnormal = |b: u64| f64::from_bits(b);
        xs.extend([
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_dead_beef_0000),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            subnormal(1),
            subnormal(0x000f_ffff_ffff_ffff),
            subnormal(0x0000_0123_4567_89ab),
            -subnormal(1),
            -subnormal(0x000f_ffff_ffff_ffff),
        ]);
        // `tanh` reaches `expm1`'s bounds at half their argument.
        let halves: Vec<f64> = xs.iter().map(|x| x / 2.0).collect();
        xs.extend(halves);
        xs
    }

    #[test]
    fn every_branch_bound_and_special_value_is_libm() {
        let xs = bounds();
        for f in [Func::Exp, Func::Expm1, Func::Tanh, Func::Logistic] {
            check(f, &xs).unwrap();
        }
    }

    /// Slices of every length up to two blocks and a tail, the special
    /// lanes mixed in anywhere: the masked tail reads and writes its own
    /// elements only, and a patched lane lands where it came from.
    #[test]
    fn every_tail_length_is_libm() {
        let mut rng = Rng::new(0x7A11);
        let specials = bounds();
        for f in [Func::Exp, Func::Expm1, Func::Tanh, Func::Logistic] {
            for len in 0..=17 {
                for _ in 0..200 {
                    let xs: Vec<f64> = (0..len)
                        .map(|_| match rng.below(3) {
                            0 => *rng.choose(&specials),
                            _ => rng.range(-30.0, 30.0),
                        })
                        .collect();
                    check(f, &xs).unwrap();
                }
            }
        }
    }

    /// The public entry points are the dispatched kernels.
    #[test]
    fn entry_points_are_libm() {
        let xs: Vec<f64> = (0..37).map(|i| (i as f64 - 18.0) * 0.7).collect();
        let (mut e, mut t, mut l) = (xs.clone(), xs.clone(), xs.clone());
        exp_in_place(&mut e);
        tanh_in_place(&mut t);
        logistic_in_place(&mut l);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(e[i].to_bits(), x.exp().to_bits());
            assert_eq!(t[i].to_bits(), x.tanh().to_bits());
            assert_eq!(l[i].to_bits(), logistic(x).to_bits());
        }
    }
}
