//! Order statistics used by the ledger: medians, quartiles, tail
//! percentiles that the sample count supports, and dispersion.

/// Ascending copy of `xs`; non-finite values sort last.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; `NaN` for an empty slice so a missing sample set can never read
/// as a measured zero.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) gives them — the rule the benchmark's acceptance
/// spread is defined by. Fewer than two samples have no quartiles: both
/// collapse onto the only value (or `NaN`).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Nearest-rank percentile, `p` in `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    // `p * n / 100`, in this order, is exact whenever the rank is a whole number.
    let rank = (p * v.len() as f64 / 100.0).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99 / p95 / p90 / p75 / p50 that still has at least ten
/// samples beyond it, as `(percent, value)`: a tail read off fewer samples
/// is one slow tick, not a percentile.
pub fn supported_tail(xs: &[f64]) -> (f64, f64) {
    for p in [99usize, 95, 90, 75] {
        // Integer arithmetic: `1.0 - 0.9` is not 0.1 in floating point.
        if xs.len() * (100 - p) >= 1000 {
            return (p as f64, percentile(xs, p as f64));
        }
    }
    (50.0, median(xs))
}

/// Coefficient of variation (sample standard deviation over mean).
pub fn cv(xs: &[f64]) -> f64 {
    sage_util::stddev(xs) / sage_util::mean(xs)
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let n = |k: usize| -> Vec<f64> { (1..=k).map(|x| x as f64).collect() };
        // 1000 samples: exactly ten lie beyond p99.
        assert_eq!(supported_tail(&n(1000)), (99.0, 990.0));
        // 999 samples: 9.99 beyond p99, so fall back to p95.
        assert_eq!(supported_tail(&n(999)).0, 95.0);
        assert_eq!(supported_tail(&n(200)).0, 95.0);
        assert_eq!(supported_tail(&n(199)).0, 90.0);
        assert_eq!(supported_tail(&n(99)).0, 75.0);
        assert_eq!(supported_tail(&n(39)), (50.0, 20.0));
    }

    #[test]
    fn dispersion_helpers() {
        assert_eq!(min(&[2.0, 1.0, 3.0]), 1.0);
        assert_eq!(max(&[2.0, 1.0, 3.0]), 3.0);
        assert_eq!(cv(&[5.0, 5.0, 5.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 2f64.sqrt() / 2.0).abs() < 1e-12);
    }
}
