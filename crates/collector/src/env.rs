//! Environment grids.
//!
//! Set I (Appendix C.1): single-flow *flat* scenarios over
//! BW x minRTT x buffer, plus *step* scenarios where capacity changes by
//! m in {1/4, 1/2, 2, 4} mid-run (capped below 200 Mbit/s as in the paper).
//! Set II (Appendix C.2): one competing TCP Cubic flow arriving first,
//! buffer in [1, 16] x BDP.

use sage_netsim::aqm::AqmKind;
use sage_netsim::faults::FaultPlan;
use sage_netsim::internet::bdp_bytes;
use sage_netsim::link::LinkModel;
use sage_netsim::time::{from_secs, Nanos};
use sage_netsim::topology::Topology;
use sage_util::Rng;

/// Which evaluation set an environment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetKind {
    /// Single-flow throughput/delay scenarios.
    SetI,
    /// TCP-friendliness scenarios (vs Cubic).
    SetII,
}

/// One fully specified network environment.
#[derive(Debug, Clone)]
pub struct EnvSpec {
    pub id: String,
    pub set: SetKind,
    pub link: LinkModel,
    pub rtt_ms: f64,
    pub buffer_bytes: u64,
    pub aqm: AqmKind,
    pub random_loss: f64,
    pub duration: Nanos,
    /// Number of competing Cubic flows (Set II; they start before the flow
    /// under test).
    pub competing_cubic: usize,
    /// When the flow under test starts.
    pub test_flow_start: Nanos,
    /// Mean capacity (Mbit/s), for reward normalisation and fair share.
    pub capacity_mbps: f64,
    pub seed: u64,
    /// Adversarial fault injection (Set III); empty for Set I/II.
    pub faults: FaultPlan,
    /// Hops downstream of the bottleneck (multi-bottleneck scenarios);
    /// empty for the classic single-bottleneck grids.
    pub topology: Topology,
    /// Total flows of the scheme under test sharing the bottleneck
    /// (intra-scheme fairness scenarios, Fig. 18); `1` is the classic single
    /// test flow. Additional flows join staggered by
    /// [`EnvSpec::self_stagger`] after `test_flow_start`; [`crate::rollout`]
    /// builds one controller per flow from its factory.
    pub self_flows: usize,
    /// Start-time stagger between successive self flows.
    pub self_stagger: Nanos,
}

impl EnvSpec {
    /// The one way to build an environment: a Set I path of `secs` seconds
    /// carrying the flow under test alone from t = 0 — tail-drop, no random
    /// loss, no faults, one hop, no competing Cubic, one self flow. Every
    /// builder starts here and overrides the fields it changes with
    /// struct-update syntax.
    pub fn single_flow(
        id: impl Into<String>,
        link: LinkModel,
        rtt_ms: f64,
        buffer_bytes: u64,
        secs: f64,
        capacity_mbps: f64,
        seed: u64,
    ) -> EnvSpec {
        EnvSpec {
            id: id.into(),
            set: SetKind::SetI,
            link,
            rtt_ms,
            buffer_bytes,
            aqm: AqmKind::TailDrop,
            random_loss: 0.0,
            duration: from_secs(secs),
            competing_cubic: 0,
            test_flow_start: 0,
            capacity_mbps,
            seed,
            faults: FaultPlan::default(),
            topology: Topology::single(),
            self_flows: 1,
            self_stagger: 0,
        }
    }

    /// Ideal fair share of the flow under test, bits/s.
    pub fn fair_share_bps(&self) -> f64 {
        self.capacity_mbps * 1e6 / (self.competing_cubic + 1) as f64
    }
}

/// `qs` x the bandwidth-delay product in bytes, the BDP floored at 3 000.
fn buffer(mbps: f64, rtt_ms: f64, qs: f64) -> u64 {
    (bdp_bytes(mbps, rtt_ms).max(3000) as f64 * qs) as u64
}

/// The grid axes of Appendix C (Set I): BW in `[12, 192]` Mbit/s,
/// minRTT in `[10, 160]` ms, buffer in `[1/2, 16]` x BDP.
pub const BW_GRID: [f64; 5] = [12.0, 24.0, 48.0, 96.0, 192.0];
pub const RTT_GRID: [f64; 5] = [10.0, 20.0, 40.0, 80.0, 160.0];
pub const QS_GRID_SET1: [f64; 6] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
pub const QS_GRID_SET2: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];
pub const STEP_M: [f64; 4] = [0.25, 0.5, 2.0, 4.0];

/// Set I flat scenarios: the full 5 x 5 x 6 grid (150 environments).
pub fn set1_flat_grid(duration_secs: f64) -> Vec<EnvSpec> {
    let mut out = Vec::new();
    for &bw in &BW_GRID {
        for &rtt in &RTT_GRID {
            for &qs in &QS_GRID_SET1 {
                out.push(EnvSpec::single_flow(
                    format!("s1-flat-bw{bw:.0}-rtt{rtt:.0}-q{qs}"),
                    LinkModel::Constant { mbps: bw },
                    rtt,
                    buffer(bw, rtt, qs),
                    duration_secs,
                    bw,
                    1,
                ))
            }
        }
    }
    out
}

/// Set I step scenarios: capacity multiplied by m mid-run, staying below
/// 200 Mbit/s (the paper's Mahimahi-overhead cap).
pub fn set1_step_grid(duration_secs: f64) -> Vec<EnvSpec> {
    let mut out = Vec::new();
    for &bw in &BW_GRID {
        for &m in &STEP_M {
            let after = bw * m;
            if !(3.0..=200.0).contains(&after) {
                continue;
            }
            for &rtt in &[20.0, 40.0, 80.0] {
                for &qs in &[1.0, 4.0] {
                    let mean = (bw + after) / 2.0;
                    let link = LinkModel::Step {
                        before_mbps: bw,
                        after_mbps: after,
                        at: from_secs(duration_secs / 2.0),
                    };
                    out.push(EnvSpec::single_flow(
                        format!("s1-step-bw{bw:.0}x{m}-rtt{rtt:.0}-q{qs}"),
                        link,
                        rtt,
                        buffer(bw.max(after), rtt, qs),
                        duration_secs,
                        mean,
                        1,
                    ))
                }
            }
        }
    }
    out
}

/// Set II scenarios: one Cubic competitor arrives first; buffer >= 1 BDP so
/// the bottleneck "can absorb more than one flow".
pub fn set2_grid(duration_secs: f64) -> Vec<EnvSpec> {
    let mut out = Vec::new();
    for &bw in &BW_GRID {
        for &rtt in &RTT_GRID {
            for &qs in &QS_GRID_SET2 {
                out.push(EnvSpec {
                    set: SetKind::SetII,
                    competing_cubic: 1,
                    test_flow_start: from_secs(1.0),
                    ..EnvSpec::single_flow(
                        format!("s2-bw{bw:.0}-rtt{rtt:.0}-q{qs}"),
                        LinkModel::Constant { mbps: bw },
                        rtt,
                        buffer(bw, rtt, qs),
                        duration_secs,
                        bw,
                        2,
                    )
                })
            }
        }
    }
    out
}

/// A seeded subsample of both sets, sized for the machine at hand (the full
/// paper-scale pool is >1000 environments; pass larger counts to approach it).
pub fn training_envs(n_set1: usize, n_set2: usize, duration_secs: f64, seed: u64) -> Vec<EnvSpec> {
    let mut rng = Rng::new(seed);
    let mut s1 = set1_flat_grid(duration_secs);
    s1.extend(set1_step_grid(duration_secs));
    let mut s2 = set2_grid(duration_secs);
    rng.shuffle(&mut s1);
    rng.shuffle(&mut s2);
    s1.truncate(n_set1);
    s2.truncate(n_set2);
    s1.extend(s2);
    s1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_sizes_match_axes() {
        assert_eq!(set1_flat_grid(10.0).len(), 5 * 5 * 6);
        assert_eq!(set2_grid(10.0).len(), 5 * 5 * 5);
        // Steps: bw x m combos capped below 200 and above 3 Mbit/s.
        let steps = set1_step_grid(10.0);
        assert!(steps.iter().all(|e| {
            if let LinkModel::Step {
                after_mbps,
                before_mbps,
                ..
            } = e.link
            {
                (3.0..=200.0).contains(&after_mbps) && before_mbps <= 200.0
            } else {
                false
            }
        }));
        assert!(steps.len() > 50);
    }

    #[test]
    fn set2_buffers_at_least_one_bdp() {
        for e in set2_grid(10.0) {
            assert!(
                e.buffer_bytes >= bdp_bytes(e.capacity_mbps, e.rtt_ms),
                "{}",
                e.id
            );
            assert_eq!(e.competing_cubic, 1);
            assert!(e.test_flow_start > 0);
        }
    }

    #[test]
    fn fair_share_divides_capacity() {
        let e = &set2_grid(10.0)[0];
        assert!((e.fair_share_bps() - e.capacity_mbps * 1e6 / 2.0).abs() < 1.0);
    }

    #[test]
    fn subsample_is_deterministic_and_sized() {
        let a = training_envs(10, 5, 10.0, 42);
        let b = training_envs(10, 5, 10.0, 42);
        assert_eq!(a.len(), 15);
        assert_eq!(
            a.iter().map(|e| e.id.clone()).collect::<Vec<_>>(),
            b.iter().map(|e| e.id.clone()).collect::<Vec<_>>()
        );
        assert_eq!(a.iter().filter(|e| e.set == SetKind::SetII).count(), 5);
    }

    #[test]
    fn unique_ids() {
        let mut ids: Vec<String> = set1_flat_grid(10.0)
            .into_iter()
            .chain(set1_step_grid(10.0))
            .chain(set2_grid(10.0))
            .map(|e| e.id)
            .collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate environment ids");
    }
}
