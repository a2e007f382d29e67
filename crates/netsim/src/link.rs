//! Bottleneck link models: constant, step, and trace-driven rates.
//!
//! The Policy Collector (paper §4.1) varies link capacity across environments
//! and uses *step* scenarios (capacity multiplied by m ∈ {¼, ½, 2, 4} mid-run)
//! and *trace-driven* cellular scenarios (§6.1). A link serves one packet at a
//! time; service time integrates the instantaneous rate profile.

use crate::time::{Nanos, SECONDS};
use sage_util::Rng;

/// Time-varying service rate of the bottleneck link.
#[derive(Debug, Clone)]
pub enum LinkModel {
    /// Fixed capacity in Mbit/s.
    Constant { mbps: f64 },
    /// Capacity switches from `before_mbps` to `after_mbps` at time `at`.
    Step {
        before_mbps: f64,
        after_mbps: f64,
        at: Nanos,
    },
    /// A repeating trace: rate `mbps[k]` applies during the k-th interval of
    /// length `interval`. Wraps around at the end (like Mahimahi trace replay).
    Trace {
        interval: Nanos,
        mbps: Vec<f64>,
        repeat: bool,
    },
}

impl LinkModel {
    /// Instantaneous rate in bits per second at time `t`.
    pub fn rate_bps(&self, t: Nanos) -> f64 {
        match self {
            LinkModel::Constant { mbps } => mbps * 1e6,
            LinkModel::Step {
                before_mbps,
                after_mbps,
                at,
            } => {
                if t < *at {
                    before_mbps * 1e6
                } else {
                    after_mbps * 1e6
                }
            }
            LinkModel::Trace {
                interval,
                mbps,
                repeat,
            } => {
                if mbps.is_empty() {
                    return 0.0;
                }
                let idx = (t / interval) as usize;
                let idx = if *repeat {
                    idx % mbps.len()
                } else {
                    idx.min(mbps.len() - 1)
                };
                mbps[idx] * 1e6
            }
        }
    }

    /// End of the rate segment containing `t` (None when the rate never
    /// changes after `t`).
    fn segment_end(&self, t: Nanos) -> Option<Nanos> {
        match self {
            LinkModel::Constant { .. } => None,
            LinkModel::Step { at, .. } => {
                if t < *at {
                    Some(*at)
                } else {
                    None
                }
            }
            LinkModel::Trace {
                interval,
                mbps,
                repeat,
            } => {
                if mbps.is_empty() {
                    return None;
                }
                let next = (t / interval + 1) * interval;
                if !*repeat && (t / interval) as usize >= mbps.len() - 1 {
                    None
                } else {
                    Some(next)
                }
            }
        }
    }

    /// Time at which a transmission of `bits` beginning at `start` completes,
    /// integrating the rate profile across segment boundaries. Returns
    /// `Nanos::MAX` if the remaining profile can never serve the bits (zero
    /// rate forever).
    pub fn finish_time(&self, start: Nanos, bits: f64) -> Nanos {
        if let Some(service) = self.constant_service(bits) {
            return start.saturating_add(service);
        }
        let mut t = start;
        let mut remaining = bits;
        // Walk at most a bounded number of segments to guard against
        // pathological zero-rate traces.
        for _ in 0..1_000_000 {
            let rate = self.rate_bps(t);
            let seg_end = self.segment_end(t);
            match seg_end {
                None => return t.saturating_add(service_nanos(rate, remaining)),
                Some(end) => {
                    if rate > 0.0 {
                        let seg_secs = (end - t) as f64 / SECONDS as f64;
                        let capacity = rate * seg_secs;
                        if capacity >= remaining {
                            return t + service_nanos(rate, remaining);
                        }
                        remaining -= capacity;
                    }
                    t = end;
                }
            }
        }
        Nanos::MAX
    }

    /// On a `Constant` link, the service time of `bits` whenever it starts
    /// (`Nanos::MAX` at a rate of zero: never served); `None` for the other
    /// models, whose service time depends on the start.
    pub(crate) fn constant_service(&self, bits: f64) -> Option<Nanos> {
        match self {
            LinkModel::Constant { mbps } => Some(service_nanos(mbps * 1e6, bits)),
            _ => None,
        }
    }

    /// Mean rate in Mbit/s over `[0, duration)` (useful for fair-share
    /// computations on variable links).
    pub fn mean_mbps(&self, duration: Nanos) -> f64 {
        match self {
            LinkModel::Constant { mbps } => *mbps,
            _ => {
                // Integrate numerically at 1 ms resolution.
                let step = crate::time::MILLIS;
                let n = (duration / step).max(1);
                let mut total = 0.0;
                for i in 0..n {
                    total += self.rate_bps(i * step);
                }
                total / n as f64 / 1e6
            }
        }
    }
}

/// Nanoseconds to serve `bits` at `rate` bit/s, rounded up to a whole ns;
/// `Nanos::MAX` when the rate is not positive.
fn service_nanos(rate: f64, bits: f64) -> Nanos {
    if rate <= 0.0 {
        return Nanos::MAX;
    }
    ceil_nanos(bits / rate * SECONDS as f64)
}

/// `x.ceil() as Nanos`, exactly, in integer arithmetic: the baseline x86-64
/// target has no rounding instruction, so `f64::ceil` is a libm call, and
/// this runs once per packet service. The saturating cast truncates toward
/// zero (NaN and negatives to 0, 2^64 and beyond to `Nanos::MAX`); a positive
/// fraction left over adds one. Below 2^53 the truncation converts back
/// exactly, and from there on every `f64` is an integer.
fn ceil_nanos(x: f64) -> Nanos {
    let t = x as Nanos;
    t.saturating_add(Nanos::from((t as f64) < x))
}

/// Generate a synthetic cellular trace (the stand-in for the 23 real cellular
/// traces of Orca used in §6.1): a geometric random walk with mean-reversion,
/// clamped to `[min_mbps, max_mbps]`, one sample per 100 ms.
pub fn cellular_trace(
    rng: &mut Rng,
    duration: Nanos,
    mean_mbps: f64,
    volatility: f64,
    min_mbps: f64,
    max_mbps: f64,
) -> LinkModel {
    let interval = 100 * crate::time::MILLIS;
    let n = (duration / interval + 1).max(2) as usize;
    let mut rate = mean_mbps;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // Mean-reverting multiplicative walk: keeps rates positive and bursty,
        // matching the on-off capacity swings of LTE traces.
        let shock = (volatility * rng.normal()).exp();
        let reversion = (mean_mbps / rate).powf(0.1);
        rate = (rate * shock * reversion).clamp(min_mbps, max_mbps);
        out.push(rate);
    }
    LinkModel::Trace {
        interval,
        mbps: out,
        repeat: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MILLIS, SECONDS};

    #[test]
    fn constant_service_time() {
        let l = LinkModel::Constant { mbps: 12.0 };
        // 1500 bytes = 12000 bits at 12 Mbps -> 1 ms.
        assert_eq!(l.finish_time(0, 12_000.0), MILLIS);
        assert_eq!(l.finish_time(5 * MILLIS, 12_000.0), 6 * MILLIS);
    }

    #[test]
    fn step_rate_switches() {
        let l = LinkModel::Step {
            before_mbps: 24.0,
            after_mbps: 96.0,
            at: SECONDS,
        };
        assert_eq!(l.rate_bps(0), 24e6);
        assert_eq!(l.rate_bps(SECONDS), 96e6);
    }

    #[test]
    fn ceil_nanos_is_the_float_ceiling_cast() {
        let check = |x: f64| {
            sage_util::prop::ensure(ceil_nanos(x) == x.ceil() as Nanos, || {
                format!(
                    "{x:e} ({:#x}): {} != {}",
                    x.to_bits(),
                    ceil_nanos(x),
                    x.ceil() as Nanos
                )
            })
        };
        let p52 = (1u64 << 52) as f64;
        let p53 = (1u64 << 53) as f64;
        let p64 = 2f64.powi(64);
        let mut edges = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            0.5,
            1.0,
            -0.5,
            -1.0,
            p64,
            p64 * 2.0,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for base in [p52, p53, p64] {
            for d in -4i64..=4 {
                edges.push(f64::from_bits((base.to_bits() as i64 + d) as u64));
            }
            edges.extend([base - 1.0, base + 1.0, base - 0.5, base + 0.5]);
        }
        for x in edges {
            if let Err(e) = check(x) {
                panic!("{e}");
            }
        }
        sage_util::forall(
            "ceil_nanos",
            sage_util::PropConfig::new(4096, 0xCE11),
            |rng| {
                let x = match rng.below(4) {
                    // Any bit pattern: every exponent, NaNs and subnormals too.
                    0 => f64::from_bits(rng.next_u64()),
                    // Service times: nanoseconds of one packet up to a long stall.
                    1 => rng.range(0.0, 1e10),
                    2 => rng.range(p52, p53 * 2.0),
                    _ => rng.range(-10.0, 10.0),
                };
                check(x)
            },
        );
    }

    #[test]
    fn finish_time_crosses_step_boundary() {
        // 10 Mbps then 20 Mbps at t=1ms. Start at 0 with 30_000 bits:
        // first ms serves 10_000 bits, remaining 20_000 at 20 Mbps = 1 ms.
        let l = LinkModel::Step {
            before_mbps: 10.0,
            after_mbps: 20.0,
            at: MILLIS,
        };
        assert_eq!(l.finish_time(0, 30_000.0), 2 * MILLIS);
    }

    #[test]
    fn trace_repeats() {
        let l = LinkModel::Trace {
            interval: MILLIS,
            mbps: vec![1.0, 2.0],
            repeat: true,
        };
        assert_eq!(l.rate_bps(0), 1e6);
        assert_eq!(l.rate_bps(MILLIS), 2e6);
        assert_eq!(l.rate_bps(2 * MILLIS), 1e6);
    }

    #[test]
    fn trace_non_repeat_holds_last() {
        let l = LinkModel::Trace {
            interval: MILLIS,
            mbps: vec![1.0, 2.0],
            repeat: false,
        };
        assert_eq!(l.rate_bps(10 * MILLIS), 2e6);
    }

    #[test]
    fn zero_rate_forever_is_unreachable() {
        let l = LinkModel::Constant { mbps: 0.0 };
        assert_eq!(l.finish_time(0, 1.0), Nanos::MAX);
    }

    #[test]
    fn cellular_trace_bounds_hold() {
        let mut rng = sage_util::Rng::new(1);
        let l = cellular_trace(&mut rng, 10 * SECONDS, 12.0, 0.4, 1.0, 96.0);
        if let LinkModel::Trace { mbps, .. } = &l {
            assert!(mbps.iter().all(|&m| (1.0..=96.0).contains(&m)));
            assert!(mbps.len() > 50);
        } else {
            panic!("expected trace");
        }
    }

    #[test]
    fn mean_mbps_of_constant() {
        let l = LinkModel::Constant { mbps: 48.0 };
        assert_eq!(l.mean_mbps(SECONDS), 48.0);
    }

    #[test]
    fn mean_mbps_of_step_averages() {
        let l = LinkModel::Step {
            before_mbps: 10.0,
            after_mbps: 30.0,
            at: SECONDS,
        };
        let m = l.mean_mbps(2 * SECONDS);
        assert!((m - 20.0).abs() < 0.5, "mean {m}");
    }
}
