//! Property-style tests for the General Representation unit, driven by the
//! workspace's own deterministic RNG (no external property-testing framework:
//! the build must work offline).

use sage_gr::{
    reward_friendliness, reward_power, FeatureMask, GrConfig, GrUnit, RewardParams, STATE_DIM,
};
use sage_transport::cc::CaState;
use sage_transport::sim::TickRecord;
use sage_transport::SocketView;
use sage_util::prop::ensure;
use sage_util::{forall, PropConfig, Rng};

fn view(now: u64, srtt: f64, rate: f64, cwnd: f64) -> SocketView {
    SocketView {
        now,
        mss: 1500,
        srtt,
        rttvar: srtt / 10.0,
        latest_rtt: srtt,
        prev_rtt: srtt,
        min_rtt: srtt * 0.8,
        inflight_pkts: cwnd,
        inflight_bytes: (cwnd * 1500.0) as u64,
        delivery_rate_bps: rate,
        prev_delivery_rate_bps: rate,
        max_delivery_rate_bps: rate * 1.1,
        prev_max_delivery_rate_bps: rate * 1.1,
        ca_state: CaState::Open,
        delivered_bytes_total: now / 100,
        sent_bytes_total: now / 90,
        lost_bytes_total: 0,
        lost_pkts_total: 0,
        cwnd_pkts: cwnd,
        ssthresh_pkts: f64::INFINITY,
    }
}

#[test]
fn state_always_finite_and_sized() {
    let mut rng = Rng::new(0xBB44);
    for _ in 0..50 {
        let srtt = rng.range(0.001, 1.0);
        let rate = rng.range(0.0, 2e8);
        let n = 1 + rng.below(49);
        let cwnds: Vec<f64> = (0..n).map(|_| rng.range(2.0, 1000.0)).collect();
        let mut gr = GrUnit::new(GrConfig::default(), RewardParams::default());
        for (i, &c) in cwnds.iter().enumerate() {
            let now = (i as u64 + 1) * 10_000_000;
            let v = view(now, srtt, rate, c);
            let t = TickRecord {
                now,
                goodput_bps: rate,
                mean_owd: srtt / 2.0,
                lost_bytes_delta: 0,
                cwnd_pkts: c,
            };
            let step = gr.on_tick(&v, &t);
            assert_eq!(step.state.len(), STATE_DIM);
            assert!(step.state.iter().all(|x| x.is_finite()));
            assert!(step.action.is_finite() && step.action > 0.0);
            assert!(step.reward_power.is_finite() && step.reward_power >= 0.0);
        }
    }
}

#[test]
fn friendliness_bounded_and_peaked() {
    let mut rng = Rng::new(0xCC55);
    for _ in 0..200 {
        let r = rng.range(0.0, 1e8);
        let fr = rng.range(1e3, 1e8);
        let v = reward_friendliness(r, fr);
        assert!((0.0..=1.0).contains(&v));
        assert!(v <= reward_friendliness(fr, fr) + 1e-12);
    }
}

#[test]
fn power_monotone_in_rate() {
    let mut rng = Rng::new(0xDD66);
    for _ in 0..200 {
        let r1 = rng.range(0.0, 5e7);
        let extra = rng.range(1.0, 5e7);
        let d = rng.range(0.001, 0.5);
        let p = RewardParams::for_capacity(100.0);
        let low = reward_power(&p, r1, 0.0, d, 0.04);
        let high = reward_power(&p, r1 + extra, 0.0, d, 0.04);
        assert!(high >= low);
    }
}

#[test]
fn masks_are_sorted_unique_subsets() {
    for mask in [
        FeatureMask::Full,
        FeatureMask::NoMinMax,
        FeatureMask::NoRttVar,
        FeatureMask::NoLossInflight,
    ] {
        let idx = mask.indices();
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.iter().all(|&i| i < STATE_DIM));
        assert_eq!(idx.len(), mask.dim());
    }
}

/// `GrUnit` fed `srtts` and `rttvars` tick by tick; `check(tick, state)`
/// after each.
fn drive(
    cfg: GrConfig,
    srtts: &[f64],
    rttvars: &[f64],
    mut check: impl FnMut(usize, &[f64]) -> Result<(), String>,
) -> Result<(), String> {
    let mut gr = GrUnit::new(cfg, RewardParams::default());
    for (i, (&srtt, &rttvar)) in srtts.iter().zip(rttvars).enumerate() {
        let now = (i as u64 + 1) * 10_000_000;
        let mut v = view(now, 0.05, 1e7, 10.0);
        v.srtt = srtt;
        v.rttvar = rttvar;
        let t = TickRecord {
            now,
            goodput_bps: 1e7,
            mean_owd: 0.025,
            lost_bytes_delta: 0,
            cwnd_pkts: 10.0,
        };
        check(i, &gr.on_tick(&v, &t).state)?;
    }
    Ok(())
}

/// First state index of the srtt (rows 5-13) and rttvar (rows 32-40)
/// window groups: avg/min/max of Small, Medium, Large.
const RTT_GROUP: usize = 4;
const RTT_VAR_GROUP: usize = 31;

fn windows(cfg: GrConfig) -> [usize; 3] {
    [cfg.small, cfg.medium, cfg.large]
}

fn random_windows(rng: &mut Rng) -> GrConfig {
    GrConfig {
        small: 1 + rng.below(19),
        medium: 1 + rng.below(19),
        large: 1 + rng.below(19),
    }
}

/// Every window of the one history ring reads avg/min/max of exactly the
/// last `min(ticks, window)` samples, for two signals sharing the ring.
#[test]
fn ring_window_matches_naive() {
    let mut rng = Rng::new(0xD00D);
    for _ in 0..50 {
        let cfg = random_windows(&mut rng);
        let len = 1 + rng.below(99);
        let srtts: Vec<f64> = (0..len).map(|_| rng.range(-1e3, 1e3)).collect();
        let rttvars: Vec<f64> = (0..len).map(|_| rng.range(0.0, 1e3)).collect();
        drive(cfg, &srtts, &rttvars, |i, state| {
            for (group, xs) in [(RTT_GROUP, &srtts), (RTT_VAR_GROUP, &rttvars)] {
                for (k, &w) in windows(cfg).iter().enumerate() {
                    let live = &xs[(i + 1).saturating_sub(w)..=i];
                    let naive_mean = live.iter().sum::<f64>() / live.len() as f64;
                    let naive_min = live.iter().cloned().fold(f64::INFINITY, f64::min);
                    let naive_max = live.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let got = &state[group + 3 * k..group + 3 * k + 3];
                    assert!((got[0] - naive_mean).abs() < 1e-6, "{cfg:?} tick {i}");
                    assert!((got[1] - naive_min).abs() < 1e-12, "{cfg:?} tick {i}");
                    assert!((got[2] - naive_max).abs() < 1e-12, "{cfg:?} tick {i}");
                }
            }
            Ok(())
        })
        .unwrap();
    }
}

/// FIFO/capacity invariant of the one history ring: on a strictly
/// monotone stream, each window's min and max are its oldest and newest
/// live samples — the one `min(ticks, window)` back and the last pushed —
/// so no window holds a sample too many, too few, or out of order.
#[test]
fn prop_ring_window_is_fifo_with_bounded_capacity() {
    forall("ring FIFO/capacity", PropConfig::new(150, 0x51D0), |rng| {
        let cfg = random_windows(rng);
        let n = 1 + rng.below(120);
        let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
        let mut x = rng.range(-1e6, 1e6);
        let xs: Vec<f64> = (0..n)
            .map(|_| {
                x += sign * rng.range(1.0, 1e3);
                x
            })
            .collect();
        drive(cfg, &xs, &xs, |i, state| {
            for (k, &w) in windows(cfg).iter().enumerate() {
                let (oldest, newest) = (xs[(i + 1).saturating_sub(w)], xs[i]);
                let (lo, hi) = if sign > 0.0 {
                    (oldest, newest)
                } else {
                    (newest, oldest)
                };
                for group in [RTT_GROUP, RTT_VAR_GROUP] {
                    let got = &state[group + 3 * k..group + 3 * k + 3];
                    ensure(got[1] == lo && got[2] == hi, || {
                        format!("{cfg:?} tick {i} window {w}: min/max {got:?}, want {lo}/{hi}")
                    })?;
                }
            }
            Ok(())
        })
    });
}
