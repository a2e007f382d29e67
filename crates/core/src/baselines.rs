//! Stand-ins for the remaining ML-league members of §6.2.
//!
//! * [`OracleCc`] — an oracle controller that knows the environment's true
//!   BDP and pins cwnd to it; Indigo-like models are behavioral clones of
//!   oracle trajectories (`Indigo`: Set I only; `Indigov2`: Set I + II).
//! * [`HybridPolicy`] — an Orca-like hybrid: Cubic runs underneath and a
//!   learned policy applies a periodic multiplicative correction
//!   `cwnd <- cubic_cwnd * 2^u`, u in [-1, 1].

use crate::model::SageModel;
use crate::policy::ActionMode;
use sage_gr::{log_ratio, CwndActor, GrConfig};
use sage_heuristics::cubic::Cubic;
use sage_netsim::time::Nanos;
use sage_nn::Array;
use sage_transport::{AckEvent, CongestionControl, SocketView, MIN_CWND};
use sage_util::Rng;
use std::sync::Arc;

/// An oracle that knows the true bottleneck BDP and tracks it (the perfect
/// state-action mapping Indigo imitates; see §6.2/§A).
pub struct OracleCc {
    /// True BDP in packets (capacity x minRTT / MSS), provided by the
    /// environment constructor.
    pub bdp_pkts: f64,
    cwnd: f64,
}

impl OracleCc {
    pub fn new(capacity_mbps: f64, rtt_ms: f64) -> Self {
        let bdp = capacity_mbps * 1e6 / 8.0 * rtt_ms / 1e3 / 1500.0;
        OracleCc {
            bdp_pkts: bdp.max(MIN_CWND),
            cwnd: MIN_CWND * 2.0,
        }
    }
}

impl CongestionControl for OracleCc {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn on_ack(&mut self, _ack: &AckEvent, _sock: &SocketView) {}

    fn on_congestion_event(&mut self, _now: Nanos, _sock: &SocketView) {}

    fn on_rto(&mut self, _now: Nanos, _sock: &SocketView) {
        self.cwnd = MIN_CWND;
    }

    fn on_tick(&mut self, _now: Nanos, _sock: &SocketView) {
        // Approach the known BDP multiplicatively (bounded per-tick move so
        // trajectories contain realistic cwnd ratios to clone).
        let target = self.bdp_pkts * 1.1; // slight queue to keep the pipe full
        let ratio = (target / self.cwnd).clamp(0.8, 1.25);
        self.cwnd = (self.cwnd * ratio).max(MIN_CWND);
    }

    fn cwnd_pkts(&self) -> f64 {
        self.cwnd
    }
}

/// Orca-like hybrid controller: Cubic underneath, a learned periodic
/// multiplier on top.
pub struct HybridPolicy {
    model: Arc<SageModel>,
    cubic: Cubic,
    /// Observation half of the Execution block; the enforced window is
    /// Cubic's times the multiplier, so `apply` is never called.
    actor: CwndActor,
    hidden: Array,
    /// Learned multiplier applied to Cubic's window.
    multiplier: f64,
    /// Apply the learned action every `period` ticks (Orca acts on a slower
    /// timescale than the underlying scheme).
    period: u32,
    tick_count: u32,
    rng: Rng,
    mode: ActionMode,
    name: &'static str,
}

impl HybridPolicy {
    pub fn new(model: Arc<SageModel>, gr_cfg: GrConfig, seed: u64, mode: ActionMode) -> Self {
        let hidden = Array::zeros(1, model.cfg.hidden_dim());
        HybridPolicy {
            model,
            cubic: Cubic::new(),
            actor: CwndActor::new(gr_cfg),
            hidden,
            multiplier: 1.0,
            period: 5,
            tick_count: 0,
            rng: Rng::new(seed ^ 0x04CA),
            mode,
            name: "orca-like",
        }
    }

    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }
}

impl CongestionControl for HybridPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_ack(&mut self, ack: &AckEvent, sock: &SocketView) {
        self.cubic.on_ack(ack, sock);
    }

    fn on_congestion_event(&mut self, now: Nanos, sock: &SocketView) {
        self.cubic.on_congestion_event(now, sock);
    }

    fn on_rto(&mut self, now: Nanos, sock: &SocketView) {
        self.cubic.on_rto(now, sock);
        self.multiplier = 1.0;
    }

    fn on_tick(&mut self, now: Nanos, sock: &SocketView) {
        self.tick_count += 1;
        self.actor.set_cwnd(self.cwnd_pkts());
        let step = self.actor.observe(now, sock);
        if !self.tick_count.is_multiple_of(self.period) {
            return;
        }
        let mix = self.model.step_one(&step.state, &mut self.hidden);
        let u = log_ratio(match self.mode {
            ActionMode::Sample => mix.sample(&mut self.rng),
            ActionMode::Deterministic => mix.dominant_mean(),
        })
        .clamp(-1.0, 1.0);
        // Orca: cwnd = cubic_cwnd * 2^u with u in [-1, 1].
        self.multiplier = 2f64.powf(u);
    }

    fn cwnd_pkts(&self) -> f64 {
        (self.cubic.cwnd_pkts() * self.multiplier).max(MIN_CWND)
    }

    fn ssthresh_pkts(&self) -> f64 {
        self.cubic.ssthresh_pkts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetConfig;
    use sage_gr::STATE_DIM;
    use sage_netsim::link::LinkModel;
    use sage_netsim::time::from_secs;
    use sage_transport::sim::NullMonitor;
    use sage_transport::{FlowConfig, SimConfig, Simulation};

    #[test]
    fn oracle_tracks_bdp() {
        let mut o = OracleCc::new(48.0, 40.0); // BDP = 160 packets
        let v = crate::crr::tests_support::dummy_view(10.0);
        for i in 1..200 {
            o.on_tick(i * 10_000_000, &v);
        }
        assert!(
            (o.cwnd_pkts() - 176.0).abs() < 5.0,
            "cwnd {}",
            o.cwnd_pkts()
        );
    }

    #[test]
    fn oracle_achieves_high_utilisation_low_delay() {
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps: 24.0 },
            960_000,
            40.0,
            from_secs(10.0),
        );
        let cca = OracleCc::new(24.0, 40.0);
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(cca))]);
        let s = sim.run(&mut NullMonitor).remove(0);
        assert!(s.avg_goodput_mbps > 20.0, "thr {}", s.avg_goodput_mbps);
        assert!(s.avg_owd_ms < 40.0, "owd {}", s.avg_owd_ms);
    }

    #[test]
    fn hybrid_falls_back_to_cubic_scale() {
        let cfg = NetConfig {
            enc1: 8,
            gru: 8,
            enc2: 8,
            fc: 8,
            residual_blocks: 1,
            critic_hidden: 8,
            ..NetConfig::default()
        };
        let model = Arc::new(SageModel::new(
            cfg,
            vec![0.0; STATE_DIM],
            vec![1.0; STATE_DIM],
            1,
        ));
        let mut h = HybridPolicy::new(model, GrConfig::default(), 1, ActionMode::Deterministic);
        let v = crate::crr::tests_support::dummy_view(10.0);
        for i in 1..50 {
            h.on_tick(i * 10_000_000, &v);
        }
        // Multiplier bounded in [1/2, 2]: window within a factor 2 of Cubic.
        let ratio = h.cwnd_pkts() / h.cubic.cwnd_pkts();
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
    }
}
