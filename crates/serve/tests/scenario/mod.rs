//! The fixed-seed 64-flow shared-bottleneck serving scenario, built once for
//! `serve_golden` (the golden pin) and `obs_differential` (metrics off vs on).

use sage_core::model::{NetConfig, SageModel};
use sage_gr::{GrConfig, STATE_DIM};
use sage_netsim::ManyFlowScenario;
use sage_serve::{run_many_flow, ServeConfig, ServeMode};
use std::fmt::Write as _;
use std::sync::Arc;

/// Counters the scenario's bottleneck folds in when it drops.
pub const COUNTERS: [&str; 2] = ["netsim.pkts_enqueued", "netsim.pkts_delivered"];

/// Runs the scenario: its report as the golden's lines, and what the run
/// added to each of [`COUNTERS`].
pub fn run() -> (String, [u64; 2]) {
    let counters = COUNTERS.map(sage_obs::counter);
    let before = counters.each_ref().map(|c| c.value());
    let mut sc = ManyFlowScenario::shared_bottleneck(64, 4, 42);
    sc.secs = 3.0; // smoke-sized: ~300 monitor ticks
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
        7,
    ));
    let report = run_many_flow(
        &sc,
        model,
        GrConfig::default(),
        ServeConfig {
            mode: ServeMode::Batched,
            threads: 0, // resolve from SAGE_THREADS: check.sh varies it
            ..ServeConfig::default()
        },
    );
    let added = std::array::from_fn(|i| counters[i].value() - before[i]);
    let mut out = String::new();
    writeln!(out, "digest {:016x}", report.digest).unwrap();
    writeln!(out, "flows {}", report.stats.len()).unwrap();
    writeln!(out, "nn_actions {}", report.serve.nn_actions).unwrap();
    writeln!(out, "fallback_actions {}", report.serve.fallback_actions).unwrap();
    writeln!(out, "admitted {}", report.serve.admitted).unwrap();
    let delivered: u64 = report.stats.iter().map(|s| s.delivered_bytes).sum();
    writeln!(out, "delivered_bytes {delivered}").unwrap();
    (out, added)
}
