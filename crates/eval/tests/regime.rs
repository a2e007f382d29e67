//! The *regime* gate: a controller that works spends its ticks
//! between the window floor and a small multiple of the path's BDP. An
//! average hides the failure this looks for — a window that sits on
//! `MIN_CWND` and then on `MAX_CWND` averages to "some throughput, some
//! loss" — so the gate counts ticks: over 25 s of `s1-flat-bw48-rtt40-q4`,
//! fewer than 5 % at `MIN_CWND` and none above 8 × BDP.
//!
//! The first two seconds are not counted. The roadmap states the gate over
//! the whole cell, and a healthy heuristic does not meet it there: cubic's
//! slow start doubles past the 5 × BDP the path and its buffer hold to 1 593
//! packets (10 × BDP; 8 ticks above 8 ×) before the loss is detected, and the
//! RTO that follows holds it on the floor for 45 ticks. Start-up overshoot is
//! not the failure the gate is for.

use sage_collector::{rollout, set1_flat_grid};
use sage_core::SageModel;
use sage_eval::runner::Contender;
use sage_gr::GrConfig;
use sage_transport::{MIN_CWND, MSS};
use std::sync::Arc;

const SECS: f64 = 25.0;
const WARMUP_TICKS: usize = 200;

/// Run `contender` alone through the cell and hold its window after the
/// warm-up — the `TickRecord::cwnd_pkts` the rollout's monitor records — to
/// the gate.
fn assert_regime(contender: &Contender) {
    let env = set1_flat_grid(SECS)
        .into_iter()
        .find(|e| e.id == "s1-flat-bw48-rtt40-q4")
        .expect("grid scenario");
    let bdp_pkts = env.capacity_mbps * 1e6 / 8.0 * env.rtt_ms / 1e3 / MSS as f64;
    let name = contender.name();
    let cca = contender.build(&env, 5);
    let traj = rollout(&env, name, cca, contender.gr_cfg(), 5).traj;
    let ticks = traj.len() - WARMUP_TICKS;
    assert!(ticks >= 2000, "{name}: only {ticks} ticks");
    let cwnd = &traj.cwnd[WARMUP_TICKS..];
    let at_floor = cwnd.iter().filter(|&&w| w as f64 <= MIN_CWND).count();
    let above = cwnd.iter().filter(|&&w| w as f64 > 8.0 * bdp_pkts).count();
    assert!(
        at_floor * 20 < ticks && above == 0,
        "{name}: of {ticks} ticks, {at_floor} at MIN_CWND and {above} above 8 x BDP"
    );
}

/// The probe on controllers known to work: a loss-based and a delay-based
/// heuristic both stay inside the regime.
#[test]
fn heuristics_stay_between_the_floor_and_eight_bdp() {
    assert_regime(&Contender::Heuristic("cubic"));
    assert_regime(&Contender::Heuristic("vegas"));
}

/// The committed `artifacts/sage.model`, deployed as `eval::runner` deploys
/// it (`ActionMode::Deterministic`), stays inside the regime too (measured:
/// 0 of the 2 300 counted ticks at `MIN_CWND`, 0 above 8 × BDP).
#[test]
fn learned_policy_stays_between_the_floor_and_eight_bdp() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/sage.model");
    let model = Arc::new(SageModel::load_file(&path).expect("committed sage.model"));
    let sage = Contender::Model {
        name: "sage",
        model,
        gr_cfg: GrConfig::default(),
    };
    assert_regime(&sage);
}
