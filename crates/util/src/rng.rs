//! A small, fast, deterministic PRNG (xoshiro256++) with the handful of
//! distributions the workspace needs.

/// xoshiro256++ pseudo-random generator.
///
/// Passes BigCrush; not cryptographically secure (which is fine: we only need
/// reproducible simulation noise and weight initialisation).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the last Box-Muller draw.
    spare_normal: Option<f64>,
}

#[inline]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

/// splitmix64, used to expand a single seed into the xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Seed of stream `stream` split statelessly from `master`. No generator
    /// state is consumed, so the mapping `(master, stream) -> seed` is a pure
    /// function: parallel workers can derive their streams from a task index
    /// in any order and still agree with a serial run. Two splitmix64 rounds
    /// decorrelate even adjacent stream ids.
    pub fn stream_seed(master: u64, stream: u64) -> u64 {
        let mut sm = master ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let a = splitmix64(&mut sm);
        splitmix64(&mut sm) ^ a.rotate_left(29)
    }

    /// Independent generator for stream `stream` of `master` (see
    /// [`Rng::stream_seed`]).
    pub fn stream(master: u64, stream: u64) -> Rng {
        Rng::new(Self::stream_seed(master, stream))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = rotl(s[0].wrapping_add(s[3]), 23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        result
    }

    /// Uniform in `[0, 1)`, 53-bit precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // Lemire's multiply-shift rejection-free variant is overkill; modulo
        // bias at n << 2^64 is negligible for simulation purposes, but we use
        // the widening-multiply trick anyway since it is branch-free.
        let x = self.next_u64() as u128;
        ((x * n as u128) >> 64) as usize
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal via Box-Muller (with spare caching).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u1 = self.uniform();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2 = self.uniform();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = std::f64::consts::TAU * u2;
            self.spare_normal = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// Normal with mean `mu` and standard deviation `sigma`.
    #[inline]
    pub fn normal_with(&mut self, mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.normal()
    }

    /// Exponential with rate `lambda` (mean `1/lambda`).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0);
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / lambda
    }

    /// Pick a uniformly random element of `xs`.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// Fisher-Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample an index from unnormalised non-negative weights.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return self.below(weights.len());
        }
        let mut target = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut r = Rng::new(3);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.uniform()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(11);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn below_covers_all_buckets() {
        let mut r = Rng::new(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::new(13);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn weighted_prefers_heavy_bucket() {
        let mut r = Rng::new(17);
        let w = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(19);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
