//! End-to-end many-flow serving: bridge the runtime into the emulator.
//!
//! [`run_many_flow`] takes a [`ManyFlowScenario`] (N learned + M heuristic
//! cross-traffic flows on one shared bottleneck), wires every learned flow
//! through a [`RemoteCwnd`] shell, and drives the whole population from one
//! [`ServeRuntime`] via the simulator's batched-tick hook: each monitor
//! tick the runtime receives the pre-action views of every active learned
//! flow, serves them in one batch, and writes the decided windows back into
//! the shared cwnd cells.

use crate::runtime::{ServeRuntime, ServeStats};
use crate::table::FlowKey;
use sage_core::model::SageModel;
use sage_gr::GrConfig;
use sage_netsim::time::Nanos;
use sage_netsim::ManyFlowScenario;
use sage_transport::sim::NullMonitor;
use sage_transport::{
    BatchCc, BatchObs, FlowConfig, FlowStats, SharedCwnd, SimConfig, Simulation, SocketView,
};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::runtime::ServeConfig;

/// Cross-traffic schemes, assigned round-robin to the M heuristic flows.
const CROSS_SCHEMES: [&str; 4] = ["cubic", "bbr2", "newreno", "vegas"];

/// Outcome of one many-flow serving run.
pub struct ManyFlowReport {
    /// Per-flow transport stats, learned flows first (scenario order).
    pub stats: Vec<FlowStats>,
    pub n_learned: usize,
    /// Serving-state digest after the run (deterministic).
    pub digest: u64,
    pub serve: ServeStats,
}

impl ManyFlowReport {
    /// Mean goodputs of the learned flows, Mbit/s, flow order.
    pub fn learned_goodputs(&self) -> Vec<f64> {
        self.stats[..self.n_learned]
            .iter()
            .map(|s| s.avg_goodput_mbps)
            .collect()
    }
}

struct ServeBridge {
    runtime: ServeRuntime,
    cells: Vec<SharedCwnd>,
    interval: Nanos,
}

impl BatchCc for ServeBridge {
    fn on_batch_tick(&mut self, now: Nanos, obs: &[BatchObs]) {
        let now_tick = now / self.interval;
        let mut views: BTreeMap<FlowKey, SocketView> = BTreeMap::new();
        for o in obs {
            let key = o.flow_idx as FlowKey;
            if !self.runtime.contains(key) {
                // Lazy admission: a flow joins the table on its first
                // observed tick, acting every monitor interval.
                self.runtime.admit(key, now_tick, 1);
            }
            views.insert(key, o.view);
        }
        let actions = self
            .runtime
            .on_tick(now_tick, &mut |k| views.get(&k).copied());
        for a in actions {
            self.cells[a.key as usize].set(a.cwnd);
        }
    }
}

/// Run a shared-bottleneck scenario with all learned flows served by one
/// batched runtime. Deterministic for a fixed (scenario, model, config).
///
/// # Panics
///
/// Panics if a `CROSS_SCHEMES` entry is missing from the registry — the
/// table is static, so an unknown entry is a programming error.
pub fn run_many_flow(
    sc: &ManyFlowScenario,
    model: Arc<SageModel>,
    gr_cfg: GrConfig,
    serve_cfg: ServeConfig,
) -> ManyFlowReport {
    let mut sim_cfg = SimConfig::new(
        sc.link(),
        sc.buffer_bytes(),
        ManyFlowScenario::RTT_MS,
        sc.duration(),
    );
    sim_cfg.seed = sc.seed;
    let interval = sage_transport::MONITOR_INTERVAL;
    let starts = sc.start_times();

    let mut flows = Vec::with_capacity(sc.total_flows());
    let mut cells = Vec::with_capacity(sc.n_learned);
    for &start in starts.iter().take(sc.n_learned) {
        let (shell, cell) = sage_transport::RemoteCwnd::new("sage-serve");
        flows.push(FlowConfig::starting_at(Box::new(shell), start).batched());
        cells.push(cell);
    }
    for j in 0..sc.m_cross {
        let name = CROSS_SCHEMES[j % CROSS_SCHEMES.len()];
        #[expect(
            clippy::panic,
            reason = "CROSS_SCHEMES is a static table of registry names; an unknown entry is a programming error"
        )]
        let cca = sage_heuristics::build(name, sc.seed ^ (j as u64 + 1))
            .unwrap_or_else(|| panic!("unknown cross scheme {name}"));
        flows.push(FlowConfig::starting_at(cca, starts[sc.n_learned + j]));
    }

    let mut bridge = ServeBridge {
        runtime: ServeRuntime::new(model, gr_cfg, serve_cfg),
        cells,
        interval,
    };
    let mut sim = Simulation::new(sim_cfg, flows);
    let stats = sim.run_batched(&mut NullMonitor, &mut bridge);
    ManyFlowReport {
        stats,
        n_learned: sc.n_learned,
        digest: bridge.runtime.digest(),
        serve: bridge.runtime.stats,
    }
}
