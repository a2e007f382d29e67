//! Property tests for the log-linear histogram's bucketing: every `u64` has
//! a bucket, the index is monotone in the value, and a value lies inside its
//! bucket's bounds.

use sage_obs::hist::{bucket_bounds, bucket_index, NUM_BUCKETS};
use sage_util::prop::{ensure, forall, PropConfig};
use sage_util::Rng;

/// Draw a u64 spread across magnitudes (uniform draws almost never produce
/// small values, which is where the unit buckets live).
fn arb_value(rng: &mut Rng) -> u64 {
    let bits = rng.below(64) as u32;
    if bits == 0 {
        0
    } else {
        rng.next_u64() >> (64 - bits)
    }
}

#[test]
fn bucket_index_is_monotone_and_total() {
    forall("bucket monotonicity", PropConfig::default(), |rng| {
        let a = arb_value(rng);
        let b = arb_value(rng);
        let (lo, hi) = (a.min(b), a.max(b));
        let (bl, bh) = (bucket_index(lo), bucket_index(hi));
        ensure(bl <= bh, || format!("index({lo})={bl} > index({hi})={bh}"))?;
        ensure(bh < NUM_BUCKETS, || {
            format!("index({hi})={bh} out of range")
        })
    });
}

#[test]
fn bucket_bounds_contain_their_values() {
    forall("bounds contain value", PropConfig::default(), |rng| {
        let v = arb_value(rng);
        let i = bucket_index(v);
        let (lo, hi) = bucket_bounds(i);
        ensure(lo <= v && v <= hi, || {
            format!("value {v} outside bucket {i} bounds [{lo}, {hi}]")
        })
    });
}
