//! Small statistics helpers: batch summaries, chunk-mean downsampling and
//! exponentially weighted moving averages.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation; 0.0 for fewer than two elements.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Linear-interpolated percentile, `p` in `[0, 100]`. 0.0 for an empty slice.
/// Selects the two order statistics it needs instead of sorting; for NaN-free
/// input the result has the bits the sort-based formula gives.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
    let mut v: Vec<f64> = xs.to_vec();
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (_, &mut at_lo, above) = v.select_nth_unstable_by(lo, cmp);
    if lo == hi {
        at_lo
    } else {
        // `hi == lo + 1`: the next order statistic is the least of the rest.
        let at_hi = above.iter().copied().min_by(cmp).unwrap_or(at_lo);
        let f = rank - lo as f64;
        at_lo * (1.0 - f) + at_hi * f
    }
}

/// Downsample `xs` to at most `n` points by chunk means (ramp-up curve
/// shape, not raw decimation). Deterministic: accumulation is in index
/// order. Returns `xs` as-is (widened) when it already fits.
pub fn downsample_mean(xs: &[f32], n: usize) -> Vec<f64> {
    if n == 0 || xs.is_empty() {
        return Vec::new();
    }
    if xs.len() <= n {
        return xs.iter().map(|&x| x as f64).collect();
    }
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let lo = k * xs.len() / n;
        let hi = ((k + 1) * xs.len() / n).max(lo + 1);
        let sum: f64 = xs[lo..hi].iter().map(|&x| x as f64).sum();
        out.push(sum / (hi - lo) as f64);
    }
    out
}

/// Exponentially weighted moving average with a fixed smoothing factor.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` is the weight of each new sample, in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Feed a sample, returning the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any sample has been seen.
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// Current average or the provided default.
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.138_089_935).abs() < 1e-6);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile(&xs, 0.0) - 10.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 40.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn downsample_mean_preserves_shape() {
        let xs: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let d = downsample_mean(&xs, 4);
        assert_eq!(d.len(), 4);
        // Chunk means of an increasing ramp are increasing.
        assert!(d.windows(2).all(|w| w[0] < w[1]));
        assert!((d[0] - 12.0).abs() < 0.51, "first chunk mean {}", d[0]);
        // Short inputs pass through.
        assert_eq!(downsample_mean(&[1.0, 2.0], 8), vec![1.0, 2.0]);
        assert!(downsample_mean(&[], 8).is_empty());
        assert!(downsample_mean(&xs, 0).is_empty());
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.25);
        for _ in 0..200 {
            e.update(3.0);
        }
        assert!((e.get().unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_first_sample_is_exact() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.update(7.5), 7.5);
    }
}
