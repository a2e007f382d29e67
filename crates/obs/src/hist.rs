//! Log-linear histogram bucketing.
//!
//! Each power-of-two range ("octave") is split into [`SUB`] equal linear
//! sub-buckets (HdrHistogram-style), so relative resolution is bounded by
//! `1/SUB` everywhere while the whole `u64` range fits in [`NUM_BUCKETS`]
//! slots. Everything here is integer arithmetic.

/// log2 of the number of sub-buckets per octave.
pub const SUB_BITS: u32 = 2;

/// Sub-buckets per octave (values `0..SUB` get exact unit buckets).
pub const SUB: u64 = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` range.
pub const NUM_BUCKETS: usize = 63 * SUB as usize;

/// Bucket index of a value. Monotone in `v` and total over `u64`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64;
    let base = (msb - 1) * SUB;
    let offset = (v >> (msb - SUB_BITS as u64)) & (SUB - 1);
    (base + offset) as usize
}

/// Inclusive `(lo, hi)` value bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i);
    }
    let msb = i / SUB + 1;
    let sub = i % SUB;
    let width = 1u64 << (msb - SUB_BITS as u64);
    let lo = (1u64 << msb) + sub * width;
    (lo, lo.wrapping_add(width - 1))
}

/// A plain (non-atomic) copy of a [`crate::metrics::Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    /// Wrapping sum of observed values.
    pub sum: u64,
    /// `u64::MAX` when empty.
    pub min: u64,
    /// `0` when empty.
    pub max: u64,
    pub buckets: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_below_sub() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bounds_partition_the_u64_range() {
        // Every bucket's hi + 1 is the next bucket's lo (exhaustive, no gaps).
        for i in 0..NUM_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo_next, "gap between bucket {i} and {}", i + 1);
        }
        assert_eq!(bucket_bounds(0).0, 0);
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn index_and_bounds_agree_at_edges() {
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
        }
    }
}
