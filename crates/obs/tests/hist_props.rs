//! Property tests for the log-linear histogram: bucketing totality and
//! monotonicity, merge associativity/commutativity, and conservation of
//! count/sum/buckets under arbitrary partitioning — the algebraic facts the
//! determinism contract leans on (any merge order, any thread count, same
//! snapshot).

use sage_obs::hist::{bucket_bounds, bucket_index, HistSnapshot, NUM_BUCKETS};
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

fn arb_values(rng: &mut Rng, max_len: usize) -> Vec<u64> {
    let n = rng.below(max_len + 1);
    (0..n).map(|_| arb_value(rng)).collect()
}

fn observe_all(values: &[u64]) -> HistSnapshot {
    let mut h = HistSnapshot::new();
    for &v in values {
        h.observe(v);
    }
    h
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

#[test]
fn merge_is_commutative() {
    forall("merge commutativity", PropConfig::default(), |rng| {
        let xs = arb_values(rng, 64);
        let ys = arb_values(rng, 64);
        let (a, b) = (observe_all(&xs), observe_all(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        ensure(ab == ba, || "a+b != b+a".to_string())
    });
}

#[test]
fn merge_is_associative() {
    forall("merge associativity", PropConfig::default(), |rng| {
        let (a, b, c) = (
            observe_all(&arb_values(rng, 48)),
            observe_all(&arb_values(rng, 48)),
            observe_all(&arb_values(rng, 48)),
        );
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        ensure(left == right, || "(a+b)+c != a+(b+c)".to_string())
    });
}

#[test]
fn merge_conserves_count_and_sum_under_partition() {
    forall("partition conservation", PropConfig::default(), |rng| {
        let values = arb_values(rng, 128);
        let whole = observe_all(&values);
        // Split into a random number of contiguous parts, observe each part
        // into its own snapshot, merge in order: must equal the whole.
        let mut merged = HistSnapshot::new();
        let mut rest = &values[..];
        while !rest.is_empty() {
            let take = 1 + rng.below(rest.len());
            merged.merge(&observe_all(&rest[..take]));
            rest = &rest[take..];
        }
        ensure(merged == whole, || {
            format!(
                "partition merge diverged: count {} vs {}, sum {} vs {}",
                merged.count, whole.count, merged.sum, whole.sum
            )
        })?;
        let bucket_total: u64 = whole.buckets.iter().sum();
        ensure(bucket_total == whole.count, || {
            format!("bucket total {bucket_total} != count {}", whole.count)
        })
    });
}

#[test]
fn percentiles_stay_within_observed_range() {
    forall("percentile bounds", PropConfig::default(), |rng| {
        let values = arb_values(rng, 64);
        if values.is_empty() {
            return Ok(());
        }
        let h = observe_all(&values);
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let q = h.percentile(p);
            ensure(h.min <= q && q <= h.max, || {
                format!("p{p} = {q} outside [{}, {}]", h.min, h.max)
            })?;
        }
        Ok(())
    });
}

/// The registry histogram's `merge` of a locally tallied snapshot is the
/// per-run fold of the packet taps: it must leave exactly what observing
/// the same values one by one leaves. (Nothing in this binary touches the
/// kill switch, so obs is at its default: on.)
#[test]
fn registry_merge_equals_observing_one_by_one() {
    let observed = sage_obs::histogram("test.hist_props.observed");
    let merged = sage_obs::histogram("test.hist_props.merged");
    forall("registry merge == observe", PropConfig::default(), |rng| {
        // Both histograms accumulate across cases: every prefix must agree.
        let values = arb_values(rng, 96);
        for &v in &values {
            observed.observe(v);
        }
        merged.merge(&observe_all(&values));
        ensure(merged.snapshot() == observed.snapshot(), || {
            format!("merge of {} values diverged from observe", values.len())
        })
    });
    assert!(observed.snapshot().count > 0);
}
