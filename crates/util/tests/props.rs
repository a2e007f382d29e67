//! Property-style tests for the statistics primitives, driven
//! by the workspace's own deterministic RNG (no external property-testing
//! framework: the build must work offline).

use sage_util::prop::ensure;
use sage_util::{forall, mean, percentile, stddev, PropConfig, Rng};

/// Random vector of `len` elements in `[lo, hi)`.
fn vec_in(rng: &mut Rng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.range(lo, hi)).collect()
}

#[test]
fn percentile_within_min_max() {
    let mut rng = Rng::new(0xA11CE);
    for _ in 0..200 {
        let len = 1 + rng.below(199);
        let xs = vec_in(&mut rng, len, -1e6, 1e6);
        let p = rng.range(0.0, 100.0);
        let v = percentile(&xs, p);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            v >= lo - 1e-9 && v <= hi + 1e-9,
            "p{p} of {len} elems out of range"
        );
    }
}

#[test]
fn percentile_is_monotone() {
    let mut rng = Rng::new(0xB0B);
    for _ in 0..200 {
        let len = 2 + rng.below(98);
        let xs = vec_in(&mut rng, len, -1e3, 1e3);
        let p25 = percentile(&xs, 25.0);
        let p50 = percentile(&xs, 50.0);
        let p75 = percentile(&xs, 75.0);
        assert!(p25 <= p50 + 1e-12 && p50 <= p75 + 1e-12);
    }
}

/// The sort-based percentile `sage_util::percentile` replaced, kept as the
/// oracle: selection must give the same bits.
fn percentile_by_sorting(xs: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let f = rank - lo as f64;
        v[lo] * (1.0 - f) + v[hi] * f
    }
}

#[test]
fn percentile_selection_has_the_bits_of_sorting() {
    forall("percentile: select == sort", PropConfig::default(), |rng| {
        let len = match rng.below(4) {
            0 => 1,
            1 => 2,
            _ => 1 + rng.below(300),
        };
        // A small value alphabet half the time, so duplicates are common.
        let distinct = if rng.chance(0.5) { 1 + rng.below(6) } else { 0 };
        let xs: Vec<f64> = (0..len)
            .map(|_| match distinct {
                0 => rng.range(-1e3, 1e3),
                k => rng.below(k) as f64 * 0.37 - 1.0,
            })
            .collect();
        for p in [0.0, 50.0, 95.0, 100.0, rng.range(0.0, 100.0)] {
            let (got, want) = (percentile(&xs, p), percentile_by_sorting(&xs, p));
            ensure(got.to_bits() == want.to_bits(), || {
                format!("p{p} of {len} values: select {got:?} != sort {want:?}")
            })?;
        }
        Ok(())
    });
}

/// Stream-split independence: streams split from the same master are
/// deterministic, distinct across stream ids, and uncorrelated (no collisions
/// in a short prefix, which for 64-bit outputs has negligible false-failure
/// probability).
#[test]
fn prop_rng_stream_split_independence() {
    forall("rng stream split", PropConfig::new(60, 0x57EA), |rng| {
        let master = rng.next_u64();
        let a_id = rng.below(1000) as u64;
        let b_id = a_id + 1 + rng.below(1000) as u64;
        let mut a = Rng::stream(master, a_id);
        let mut a2 = Rng::stream(master, a_id);
        let mut b = Rng::stream(master, b_id);
        let mut collisions = 0;
        for _ in 0..64 {
            let x = a.next_u64();
            ensure(x == a2.next_u64(), || {
                "same (master, stream) must replay identically".into()
            })?;
            if x == b.next_u64() {
                collisions += 1;
            }
        }
        ensure(collisions == 0, || {
            format!("streams {a_id} and {b_id} of {master:#x} collided {collisions} times")
        })
    });
}

/// Numerical identities: Var(x) = E[x^2] - E[x]^2 (population form;
/// `stddev` reports the sample form, so Bessel's factor (n-1)/n bridges
/// them), mean/stddev shift-invariance, and percentile endpoints hitting
/// min/max.
#[test]
fn prop_stats_numerical_identities() {
    forall("stats identities", PropConfig::new(120, 0x57A7), |rng| {
        let n = 2 + rng.below(198);
        let xs: Vec<f64> = (0..n).map(|_| rng.range(-1e3, 1e3)).collect();
        let m = mean(&xs);
        let ex2 = xs.iter().map(|x| x * x).sum::<f64>() / n as f64;
        let pop_var = stddev(&xs).powi(2) * (n - 1) as f64 / n as f64;
        ensure(
            (pop_var - (ex2 - m * m)).abs() < 1e-6 * (1.0 + ex2.abs()),
            || format!("E[x^2]-E[x]^2 = {} but variance = {pop_var}", ex2 - m * m),
        )?;
        // Shift invariance: adding a constant moves the mean, not the spread.
        let c = rng.range(-500.0, 500.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        ensure((mean(&shifted) - (m + c)).abs() < 1e-6, || {
            "mean not shift-equivariant".into()
        })?;
        ensure((stddev(&shifted) - stddev(&xs)).abs() < 1e-6, || {
            "stddev not shift-invariant".into()
        })?;
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        ensure(percentile(&xs, 0.0) == lo, || "p0 != min".into())?;
        ensure(percentile(&xs, 100.0) == hi, || "p100 != max".into())
    });
}

#[test]
fn rng_below_in_range() {
    let mut seeder = Rng::new(0xF00);
    for _ in 0..50 {
        let mut r = Rng::new(seeder.next_u64());
        let n = 1 + seeder.below(999);
        for _ in 0..50 {
            assert!(r.below(n) < n);
        }
    }
}

#[test]
fn rng_range_in_bounds() {
    let mut seeder = Rng::new(0xBEEF);
    for _ in 0..50 {
        let mut r = Rng::new(seeder.next_u64());
        let lo = -seeder.range(0.0, 1e6) - 1.0;
        let hi = seeder.range(1.0, 1e6);
        for _ in 0..50 {
            let x = r.range(lo, hi);
            assert!(x >= lo && x < hi);
        }
    }
}

// Negative control for `clippy.toml`, checked by the clippy stage of
// `scripts/check.sh`, not by a test: each expectation must keep firing.
#[expect(
    clippy::disallowed_types,
    reason = "negative control: unfulfilled the day clippy.toml stops banning HashMap"
)]
type _BannedMap = std::collections::HashMap<u8, u8>;
#[expect(
    clippy::disallowed_methods,
    reason = "negative control: unfulfilled the day clippy.toml stops banning std::env::var"
)]
fn _banned_env_read() -> bool {
    std::env::var("SAGE_THREADS").is_ok()
}
