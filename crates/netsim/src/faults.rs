//! Adversarial network-condition injection.
//!
//! Real Internet paths misbehave in ways the clean bottleneck model never
//! shows: losses arrive in bursts (Gilbert–Elliott), links black out and
//! flap, packets are corrupted, duplicated or reordered by parallel paths,
//! delay spikes ride on WiFi retries, and ACKs get compressed by cross
//! traffic. The paper's robustness claims (Sage holding up under "unseen"
//! conditions) need an emulation layer that can produce those conditions
//! deterministically so runs remain replayable.
//!
//! [`FaultPlan`] is a declarative description of the faults; a
//! [`FaultInjector`] is the per-run stateful instance. The injector owns a
//! dedicated RNG stream forked from the run seed, so identical seeds produce
//! bit-identical fault sequences and adding faults does not perturb the
//! other random streams (AQM, ACK jitter) of the simulation.

use crate::time::Nanos;
use sage_util::Rng;

/// Two-state Gilbert–Elliott burst-loss process, consulted once per packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(good -> bad) per packet.
    pub p_enter_bad: f64,
    /// P(bad -> good) per packet.
    pub p_leave_bad: f64,
    /// Loss probability while in the good state (usually ~0).
    pub loss_good: f64,
    /// Loss probability while in the bad state (high: a loss burst).
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A mild default burst process: ~0.4% stationary bad-state occupancy,
    /// bursts of mean length 5 packets.
    pub fn mild() -> Self {
        GilbertElliott {
            p_enter_bad: 0.001,
            p_leave_bad: 0.2,
            loss_good: 0.0,
            loss_bad: 0.5,
        }
    }

    /// A harsh process: long bursts losing most packets.
    pub fn harsh() -> Self {
        GilbertElliott {
            p_enter_bad: 0.005,
            p_leave_bad: 0.05,
            loss_good: 0.0,
            loss_bad: 0.8,
        }
    }
}

/// Random link flapping: alternating up/down periods with exponential
/// durations (memoryless outages — the blackout grid of Set III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapPlan {
    /// Mean up-time between outages, seconds.
    pub up_mean_s: f64,
    /// Mean outage duration, seconds.
    pub down_mean_s: f64,
}

/// Declarative fault configuration for one run. `FaultPlan::default()` (and
/// [`FaultPlan::none`]) injects nothing and adds no per-packet overhead
/// beyond one boolean check.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Bursty forward-path loss.
    pub burst_loss: Option<GilbertElliott>,
    /// Per-packet corruption probability. A corrupted packet fails its
    /// checksum at the receiver: for the transport it is a loss, but it is
    /// counted separately.
    pub corrupt_prob: f64,
    /// Probability a packet is deflected onto a "slow path" and arrives
    /// out of order.
    pub reorder_prob: f64,
    /// Extra one-way delay applied to reordered packets, drawn uniformly
    /// from `[reorder_delay_min, reorder_delay_max]`.
    pub reorder_delay_min: Nanos,
    pub reorder_delay_max: Nanos,
    /// Per-packet duplication probability (the copy trails by a few us).
    pub duplicate_prob: f64,
    /// Explicit blackout windows `[start, end)`: every packet (data and ACK)
    /// crossing the path during a window is dropped.
    pub blackouts: Vec<(Nanos, Nanos)>,
    /// Random link flapping, on top of any explicit windows.
    pub flaps: Option<FlapPlan>,
    /// Probability of a delay jitter spike on a forward packet.
    pub jitter_spike_prob: f64,
    /// Maximum extra delay of a jitter spike (uniform in `[0, max]`).
    pub jitter_spike_max: Nanos,
    /// ACK compression: hold ACKs and release them in batches every
    /// `ack_compression` nanoseconds (0 disables).
    pub ack_compression: Nanos,
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no fault mechanism is configured (fast path).
    pub fn is_none(&self) -> bool {
        self.burst_loss.is_none()
            && self.corrupt_prob == 0.0
            && self.reorder_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.blackouts.is_empty()
            && self.flaps.is_none()
            && self.jitter_spike_prob == 0.0
            && self.ack_compression == 0
    }
}

/// The injector's decision for one forward-path packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardVerdict {
    /// Lost on the link: burst loss, a blackout or flap, or corruption
    /// (`FaultStats` counts each cause).
    Drop,
    Deliver {
        /// Extra one-way delay (reordering deflection or jitter spike).
        extra_delay: Nanos,
        /// Deliver a second copy (trailing the first by `dup_gap`).
        duplicate: bool,
        /// Gap between the original and the duplicate.
        dup_gap: Nanos,
    },
}

impl ForwardVerdict {
    pub const CLEAN: ForwardVerdict = ForwardVerdict::Deliver {
        extra_delay: 0,
        duplicate: false,
        dup_gap: 0,
    };
}

/// Counters of everything the injector did, for per-run fault reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub dropped_burst: u64,
    pub dropped_blackout: u64,
    pub corrupted: u64,
    pub duplicated: u64,
    pub reordered: u64,
    pub jitter_spikes: u64,
    pub acks_dropped: u64,
    pub acks_compressed: u64,
}

impl FaultStats {
    /// Total forward-path packets the injector removed.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_burst + self.dropped_blackout + self.corrupted
    }
}

/// Per-run stateful fault injector. Owns its RNG stream: two injectors built
/// from the same plan and seed produce identical verdict sequences.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    active: bool,
    /// Gilbert–Elliott state: currently in the bad (bursty) state?
    ge_bad: bool,
    /// Flap process: link currently down, and when the next transition fires.
    flap_down: bool,
    flap_next: Nanos,
    pub stats: FaultStats,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xFA01_7D31);
        let (flap_down, flap_next) = match plan.flaps {
            // The link starts up; first outage after an exponential up-time.
            Some(f) => (
                false,
                secs_to_nanos(rng.exponential(1.0 / f.up_mean_s.max(1e-9))),
            ),
            None => (false, Nanos::MAX),
        };
        let active = !plan.is_none();
        FaultInjector {
            plan,
            rng,
            active,
            ge_bad: false,
            flap_down,
            flap_next,
            stats: FaultStats::default(),
        }
    }

    /// Advance the flap process and report whether the link is down at `now`
    /// (explicit blackout windows included).
    pub fn link_down(&mut self, now: Nanos) -> bool {
        if self
            .plan
            .blackouts
            .iter()
            .any(|&(s, e)| now >= s && now < e)
        {
            return true;
        }
        if let Some(f) = self.plan.flaps {
            while now >= self.flap_next {
                self.flap_down = !self.flap_down;
                let mean = if self.flap_down {
                    f.down_mean_s
                } else {
                    f.up_mean_s
                };
                let dur = secs_to_nanos(self.rng.exponential(1.0 / mean.max(1e-9)));
                self.flap_next = self.flap_next.saturating_add(dur.max(1));
            }
            return self.flap_down;
        }
        false
    }

    /// Decide the fate of one forward-path (data) packet crossing at `now`.
    /// Inline, so that an injector with nothing to inject costs its caller a
    /// flag test and no call.
    #[inline]
    pub fn on_forward(&mut self, now: Nanos) -> ForwardVerdict {
        if !self.active {
            return ForwardVerdict::CLEAN;
        }
        self.forward_verdict(now)
    }

    fn forward_verdict(&mut self, now: Nanos) -> ForwardVerdict {
        if self.link_down(now) {
            self.stats.dropped_blackout += 1;
            return ForwardVerdict::Drop;
        }
        if let Some(ge) = self.plan.burst_loss {
            // Transition first, then draw loss from the (possibly new) state.
            if self.ge_bad {
                if self.rng.chance(ge.p_leave_bad) {
                    self.ge_bad = false;
                }
            } else if self.rng.chance(ge.p_enter_bad) {
                self.ge_bad = true;
            }
            let p = if self.ge_bad {
                ge.loss_bad
            } else {
                ge.loss_good
            };
            if p > 0.0 && self.rng.chance(p) {
                self.stats.dropped_burst += 1;
                return ForwardVerdict::Drop;
            }
        }
        if self.plan.corrupt_prob > 0.0 && self.rng.chance(self.plan.corrupt_prob) {
            self.stats.corrupted += 1;
            return ForwardVerdict::Drop;
        }
        let mut extra: Nanos = 0;
        if self.plan.reorder_prob > 0.0 && self.rng.chance(self.plan.reorder_prob) {
            let lo = self.plan.reorder_delay_min;
            let hi = self.plan.reorder_delay_max.max(lo + 1);
            extra = extra.saturating_add(lo + self.rng.next_u64() % (hi - lo));
            self.stats.reordered += 1;
        }
        if self.plan.jitter_spike_prob > 0.0 && self.rng.chance(self.plan.jitter_spike_prob) {
            extra = extra
                .saturating_add((self.rng.uniform() * self.plan.jitter_spike_max as f64) as Nanos);
            self.stats.jitter_spikes += 1;
        }
        let duplicate = self.plan.duplicate_prob > 0.0 && self.rng.chance(self.plan.duplicate_prob);
        let dup_gap = if duplicate {
            self.stats.duplicated += 1;
            1_000 + self.rng.next_u64() % 100_000 // 1-101 us behind the original
        } else {
            0
        };
        ForwardVerdict::Deliver {
            extra_delay: extra,
            duplicate,
            dup_gap,
        }
    }

    /// Decide the release time of an ACK generated at `now` whose nominal
    /// arrival would be `nominal`. `None` means the ACK is lost (blackout).
    /// Inline like [`Self::on_forward`].
    #[inline]
    pub fn on_ack(&mut self, now: Nanos, nominal: Nanos) -> Option<Nanos> {
        if !self.active {
            return Some(nominal);
        }
        self.ack_release(now, nominal)
    }

    fn ack_release(&mut self, now: Nanos, nominal: Nanos) -> Option<Nanos> {
        if self.link_down(now) {
            self.stats.acks_dropped += 1;
            return None;
        }
        if self.plan.ack_compression > 0 {
            // Cross traffic holds ACKs and releases them in batches at the
            // next compression-interval boundary after the nominal arrival.
            let q = self.plan.ack_compression;
            let batched = nominal.div_ceil(q) * q;
            if batched > nominal {
                self.stats.acks_compressed += 1;
            }
            return Some(batched);
        }
        Some(nominal)
    }
}

fn secs_to_nanos(s: f64) -> Nanos {
    (s.max(0.0) * 1e9) as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 7);
        for t in 0..1000u64 {
            assert_eq!(inj.on_forward(t * 1000), ForwardVerdict::CLEAN);
            assert_eq!(inj.on_ack(t * 1000, t * 1000 + 5), Some(t * 1000 + 5));
        }
        assert_eq!(inj.stats, FaultStats::default());
    }

    #[test]
    fn same_seed_same_verdicts() {
        let plan = FaultPlan {
            burst_loss: Some(GilbertElliott::mild()),
            corrupt_prob: 0.01,
            reorder_prob: 0.02,
            reorder_delay_min: 1_000_000,
            reorder_delay_max: 5_000_000,
            duplicate_prob: 0.01,
            jitter_spike_prob: 0.005,
            jitter_spike_max: 20_000_000,
            ack_compression: 500_000,
            flaps: Some(FlapPlan {
                up_mean_s: 1.0,
                down_mean_s: 0.1,
            }),
            ..FaultPlan::default()
        };
        let mut a = FaultInjector::new(plan.clone(), 42);
        let mut b = FaultInjector::new(plan, 42);
        for t in 0..20_000u64 {
            let now = t * 50_000;
            assert_eq!(a.on_forward(now), b.on_forward(now));
            assert_eq!(a.on_ack(now, now + 123), b.on_ack(now, now + 123));
        }
        assert_eq!(a.stats, b.stats);
        assert!(
            a.stats.total_dropped() > 0,
            "plan should have dropped something"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let plan = FaultPlan {
            corrupt_prob: 0.1,
            ..FaultPlan::default()
        };
        let mut a = FaultInjector::new(plan.clone(), 1);
        let mut b = FaultInjector::new(plan, 2);
        let mut diverged = false;
        for t in 0..2000u64 {
            if a.on_forward(t) != b.on_forward(t) {
                diverged = true;
                break;
            }
        }
        assert!(diverged);
    }

    #[test]
    fn ge_burst_losses_cluster() {
        // With long bad periods and lossless good periods, losses must come
        // in runs: the number of isolated losses should be far below the
        // number of losses inside a burst.
        let plan = FaultPlan {
            burst_loss: Some(GilbertElliott {
                p_enter_bad: 0.002,
                p_leave_bad: 0.05,
                loss_good: 0.0,
                loss_bad: 0.9,
            }),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 9);
        let outcomes: Vec<bool> = (0..200_000u64)
            .map(|t| matches!(inj.on_forward(t), ForwardVerdict::Drop))
            .collect();
        let total: usize = outcomes.iter().filter(|&&l| l).count();
        assert!(
            total > 100,
            "expected bursts to produce losses, got {total}"
        );
        // Adjacency: a clustered process has many loss->loss transitions.
        let pairs = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        assert!(
            pairs as f64 > total as f64 * 0.3,
            "losses not clustered: {pairs} adjacent of {total}"
        );
    }

    #[test]
    fn blackout_window_drops_everything() {
        let plan = FaultPlan {
            blackouts: vec![(1_000, 2_000)],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 3);
        assert_eq!(inj.on_forward(999), ForwardVerdict::CLEAN);
        assert_eq!(inj.on_forward(1_000), ForwardVerdict::Drop);
        assert_eq!(inj.on_forward(1_999), ForwardVerdict::Drop);
        assert_eq!(inj.on_forward(2_000), ForwardVerdict::CLEAN);
        assert_eq!(inj.on_ack(1_500, 1_600), None);
        assert_eq!(inj.stats.dropped_blackout, 2);
        assert_eq!(inj.stats.acks_dropped, 1);
    }

    #[test]
    fn flaps_alternate_and_are_deterministic() {
        let plan = FaultPlan {
            flaps: Some(FlapPlan {
                up_mean_s: 0.1,
                down_mean_s: 0.05,
            }),
            ..FaultPlan::default()
        };
        let mut a = FaultInjector::new(plan.clone(), 11);
        let mut b = FaultInjector::new(plan, 11);
        let sa: Vec<bool> = (0..10_000u64).map(|t| a.link_down(t * 100_000)).collect();
        let sb: Vec<bool> = (0..10_000u64).map(|t| b.link_down(t * 100_000)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&d| d), "flaps never brought the link down");
        assert!(sa.iter().any(|&d| !d), "link never up");
        // The state function of time is monotone-queried here, so runs of
        // down-time must terminate (the link comes back).
        assert!(!sa[sa.len() - 1] || sa.iter().filter(|&&d| !d).count() > 100);
    }

    #[test]
    fn ack_compression_quantises_release_times() {
        let plan = FaultPlan {
            ack_compression: 1_000_000,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 5);
        for t in (0..100u64).map(|i| i * 333_333) {
            let rel = inj.on_ack(t, t + 10_000).unwrap();
            assert_eq!(rel % 1_000_000, 0, "release {rel} not on a batch boundary");
            assert!(rel >= t + 10_000);
        }
        assert!(inj.stats.acks_compressed > 50);
    }

    #[test]
    fn duplication_and_reordering_counted() {
        let plan = FaultPlan {
            duplicate_prob: 0.5,
            reorder_prob: 0.5,
            reorder_delay_min: 1_000,
            reorder_delay_max: 2_000,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 13);
        let mut dups = 0;
        let mut reord = 0;
        for t in 0..1000u64 {
            if let ForwardVerdict::Deliver {
                extra_delay,
                duplicate,
                dup_gap,
            } = inj.on_forward(t)
            {
                if duplicate {
                    dups += 1;
                    assert!(dup_gap >= 1_000);
                }
                if extra_delay > 0 {
                    reord += 1;
                    assert!((1_000..2_000).contains(&extra_delay));
                }
            }
        }
        assert!(dups > 300 && dups < 700, "duplication rate off: {dups}");
        assert!(reord > 300 && reord < 700, "reorder rate off: {reord}");
        assert_eq!(inj.stats.duplicated, dups);
        assert_eq!(inj.stats.reordered, reord);
    }
}
