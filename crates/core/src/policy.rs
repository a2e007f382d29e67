//! A trained [`SageModel`] deployed as a `CongestionControl` implementation:
//! every monitor interval the Execution block ([`sage_gr::action`]) observes
//! the GR state, the model's B=1 inference path ([`SageModel::step_one`])
//! turns it into a mixture, and the actor enforces the chosen cwnd ratio.

use crate::model::SageModel;
use sage_gr::{CwndActor, GrConfig, STATE_DIM};
use sage_netsim::time::Nanos;
use sage_nn::Array;
use sage_transport::{AckEvent, CongestionControl, SocketView};
use sage_util::Rng;
use std::sync::Arc;

pub use sage_gr::action::MAX_CWND;

/// How the policy turns its mixture into an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionMode {
    /// Sample from the mixture (the paper's deployment).
    Sample,
    /// Use the full mixture mean (deterministic, graded evaluation).
    Deterministic,
}

/// A learned policy executing as a congestion controller.
pub struct SagePolicy {
    model: Arc<SageModel>,
    actor: CwndActor,
    /// Recurrent state `[1, hidden_dim]`, carried across ticks.
    hidden: Array,
    rng: Rng,
    mode: ActionMode,
    name: &'static str,
}

impl SagePolicy {
    pub fn new(model: Arc<SageModel>, gr_cfg: GrConfig, seed: u64, mode: ActionMode) -> Self {
        let hidden = Array::zeros(1, model.cfg.hidden_dim());
        SagePolicy {
            model,
            actor: CwndActor::new(gr_cfg),
            hidden,
            rng: Rng::new(seed ^ 0x5A6E),
            mode,
            name: "sage",
        }
    }

    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// One monitor interval: observe, infer, enforce. Returns the state the
    /// policy saw and the raw (scaled-unit) action it chose, so distillation
    /// can harvest exactly the deployed pipeline; `on_tick` discards both.
    pub fn act(&mut self, now: Nanos, sock: &SocketView) -> ([f64; STATE_DIM], f64) {
        let state = self.actor.observe(now, sock);
        let mix = self.model.step_one(&state, &mut self.hidden);
        let raw = match self.mode {
            ActionMode::Sample => mix.sample(0, &mut self.rng),
            ActionMode::Deterministic => mix.mean(0),
        };
        self.actor.apply(raw);
        (state, raw)
    }
}

impl CongestionControl for SagePolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_ack(&mut self, _ack: &AckEvent, _sock: &SocketView) {
        // Sage acts on the monitor clock, not per-ACK.
    }

    fn on_congestion_event(&mut self, _now: Nanos, _sock: &SocketView) {
        // Loss information reaches the policy through the state vector.
    }

    fn on_rto(&mut self, _now: Nanos, _sock: &SocketView) {
        self.actor.on_rto();
    }

    fn on_tick(&mut self, now: Nanos, sock: &SocketView) {
        self.act(now, sock);
    }

    fn cwnd_pkts(&self) -> f64 {
        self.actor.cwnd()
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
    use sage_transport::{FlowConfig, SimConfig, Simulation, MIN_CWND};

    fn tiny_model() -> Arc<SageModel> {
        let cfg = NetConfig {
            enc1: 8,
            gru: 8,
            enc2: 8,
            fc: 8,
            residual_blocks: 1,
            critic_hidden: 8,
            ..NetConfig::default()
        };
        Arc::new(SageModel::new(
            cfg,
            vec![0.0; STATE_DIM],
            vec![1.0; STATE_DIM],
            3,
        ))
    }

    #[test]
    fn untrained_policy_survives_a_simulation() {
        let model = tiny_model();
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps: 12.0 },
            100_000,
            20.0,
            from_secs(3.0),
        );
        let cca = SagePolicy::new(model, GrConfig::default(), 1, ActionMode::Sample);
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(cca))]);
        let stats = sim.run(&mut NullMonitor).remove(0);
        // An untrained GMM stays near ratio 1 on average: the flow must at
        // least make progress and not crash.
        assert!(stats.delivered_bytes > 0);
    }

    #[test]
    fn deterministic_mode_is_reproducible() {
        let model = tiny_model();
        let run = |model: Arc<SageModel>| {
            let cfg = SimConfig::new(
                LinkModel::Constant { mbps: 12.0 },
                100_000,
                20.0,
                from_secs(2.0),
            );
            let cca = SagePolicy::new(model, GrConfig::default(), 9, ActionMode::Deterministic);
            let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(cca))]);
            sim.run(&mut NullMonitor).remove(0).delivered_bytes
        };
        assert_eq!(run(model.clone()), run(model));
    }

    /// One loop over every enforcement path: the policy in both action
    /// modes, and the bare actor fed saturating raw actions.
    #[test]
    fn cwnd_stays_within_bounds() {
        let model = tiny_model();
        let mut sample = SagePolicy::new(model.clone(), GrConfig::default(), 2, ActionMode::Sample);
        let mut mean = SagePolicy::new(model, GrConfig::default(), 2, ActionMode::Deterministic);
        let mut actor = CwndActor::new(GrConfig::default());
        let view = crate::crr::tests_support::dummy_view(10.0);
        for i in 1..200u64 {
            let now = i * 10_000_000;
            sample.on_tick(now, &view);
            mean.on_tick(now, &view);
            actor.observe(now, &view);
            actor.apply(if i % 3 == 0 { f64::MIN } else { f64::MAX });
            for cwnd in [sample.cwnd_pkts(), mean.cwnd_pkts(), actor.cwnd()] {
                assert!((MIN_CWND..=MAX_CWND).contains(&cwnd), "tick {i}: {cwnd}");
            }
        }
    }
}
