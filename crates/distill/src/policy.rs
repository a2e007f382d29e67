//! The distilled tree deployed as a `CongestionControl` implementation.
//!
//! [`SymbolicPolicy`] runs the same Execution block as the neural policy it
//! distils ([`sage_gr::CwndActor`]: observe the GR state, enforce a
//! cwnd-ratio action) with a tree walk over the *raw* (unstandardised) state
//! vector where the GRU+GMM forward pass would be. There is no sampling
//! mode: the tree was fitted to the mixture mean, so the policy is
//! deterministic by construction and needs no RNG.

use crate::tree::SymbolicModel;
use sage_gr::{CwndActor, GrConfig};
use sage_netsim::time::Nanos;
use sage_transport::{AckEvent, CongestionControl, SocketView};
use std::sync::Arc;

/// A fitted symbolic tree executing as a congestion controller.
pub struct SymbolicPolicy {
    tree: Arc<SymbolicModel>,
    actor: CwndActor,
    name: &'static str,
}

impl SymbolicPolicy {
    pub fn new(tree: Arc<SymbolicModel>, gr_cfg: GrConfig) -> Self {
        SymbolicPolicy {
            tree,
            actor: CwndActor::new(gr_cfg),
            name: crate::SYMBOLIC_SCHEME,
        }
    }

    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// The fitted tree backing this policy.
    pub fn tree(&self) -> &SymbolicModel {
        &self.tree
    }
}

impl CongestionControl for SymbolicPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_ack(&mut self, _ack: &AckEvent, _sock: &SocketView) {
        // Acts on the monitor clock, like the policy it distils.
    }

    fn on_congestion_event(&mut self, _now: Nanos, _sock: &SocketView) {
        // Loss reaches the tree through the state vector.
    }

    fn on_rto(&mut self, _now: Nanos, _sock: &SocketView) {
        self.actor.on_rto();
    }

    fn on_tick(&mut self, now: Nanos, sock: &SocketView) {
        let state = self.actor.observe(now, sock);
        // The tree emits the mixture mean in scaled action units.
        self.actor.apply(self.tree.predict(&state));
    }

    fn cwnd_pkts(&self) -> f64 {
        self.actor.cwnd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::tree::TreeConfig;
    use sage_gr::action::MAX_CWND;
    use sage_gr::STATE_DIM;
    use sage_netsim::link::LinkModel;
    use sage_netsim::time::from_secs;
    use sage_transport::sim::NullMonitor;
    use sage_transport::{FlowConfig, SimConfig, Simulation, MIN_CWND};
    use sage_util::Rng;

    /// A tree over the full state dim with mild targets, so the policy
    /// behaves like a near-neutral controller.
    fn tiny_tree(seed: u64) -> Arc<SymbolicModel> {
        let mut rng = Rng::new(seed);
        let mut ds = Dataset::new(STATE_DIM);
        for _ in 0..400 {
            let x: Vec<f64> = (0..STATE_DIM).map(|_| rng.uniform()).collect();
            let y = if x[0] <= 0.5 { 0.8 } else { -0.4 };
            ds.push(&x, y);
        }
        Arc::new(SymbolicModel::fit(
            &ds,
            &TreeConfig {
                max_depth: 4,
                min_leaf: 16,
                ..TreeConfig::default()
            },
        ))
    }

    #[test]
    fn symbolic_policy_survives_a_simulation() {
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps: 12.0 },
            100_000,
            20.0,
            from_secs(3.0),
        );
        let cca = SymbolicPolicy::new(tiny_tree(1), GrConfig::default());
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(cca))]);
        let stats = sim.run(&mut NullMonitor).remove(0);
        assert!(stats.delivered_bytes > 0);
    }

    #[test]
    fn symbolic_policy_is_reproducible() {
        let run = || {
            let cfg = SimConfig::new(
                LinkModel::Constant { mbps: 12.0 },
                100_000,
                20.0,
                from_secs(2.0),
            );
            let cca = SymbolicPolicy::new(tiny_tree(9), GrConfig::default());
            let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(cca))]);
            sim.run(&mut NullMonitor).remove(0).delivered_bytes
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cwnd_stays_within_bounds_and_rto_halves() {
        let tree = tiny_tree(2);
        let mut p = SymbolicPolicy::new(tree, GrConfig::default());
        let view = SocketView {
            now: 0,
            mss: 1500,
            srtt: 0.04,
            rttvar: 0.005,
            latest_rtt: 0.04,
            prev_rtt: 0.04,
            min_rtt: 0.03,
            inflight_pkts: 10.0,
            inflight_bytes: 15_000,
            delivery_rate_bps: 10_000_000.0,
            prev_delivery_rate_bps: 10_000_000.0,
            max_delivery_rate_bps: 12_000_000.0,
            prev_max_delivery_rate_bps: 12_000_000.0,
            ca_state: sage_transport::CaState::Open,
            delivered_bytes_total: 100_000,
            sent_bytes_total: 120_000,
            lost_bytes_total: 0,
            lost_pkts_total: 0,
            cwnd_pkts: 10.0,
            ssthresh_pkts: f64::INFINITY,
        };
        for i in 1..200u64 {
            p.on_tick(i * 10_000_000, &view);
            assert!(p.cwnd_pkts() >= MIN_CWND && p.cwnd_pkts() <= MAX_CWND);
        }
        let before = p.cwnd_pkts();
        p.on_rto(0, &view);
        assert!((p.cwnd_pkts() - (before * 0.5).max(MIN_CWND)).abs() < 1e-12);
    }
}
