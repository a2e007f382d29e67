//! The unified evaluation matrix: every scenario family (Set I/II grids,
//! Set III faults, synthetic Internet paths, pinned Set IV adversarial
//! genomes, multi-bottleneck topologies, intra-scheme fairness) x every
//! roster scheme x seeds, executed as one declarative `MatrixSpec` through
//! the deterministic worker pool. Emits a single atomic
//! `artifacts/results/EVAL_matrix.json` with per-cell metrics and
//! per-scenario scheme rankings — byte-identical at every `SAGE_THREADS`
//! (`crates/eval/tests/matrix_differential.rs`).

use sage_bench::{default_gr, model_path, print_table, write_report, SEED};
use sage_core::SageModel;
use sage_eval::matrix::{
    matrix_json, rankings, run_matrix, scenario_fairness, scenarios_adversarial, scenarios_fault,
    scenarios_internet, scenarios_multihop, scenarios_set12, MatrixSpec,
};
use sage_eval::runner::Contender;
use sage_eval::set3::summarise;
use std::sync::Arc;

/// Rollout seconds of the non-fairness families: long enough for
/// slow-ramping learned policies to leave the startup phase (the full figs
/// run 15 s).
const SECS: f64 = 12.0;

fn main() {
    // Fixed family order: Set I/II, faults, internet, adversarial, multihop,
    // fairness.
    let mut scenarios = scenarios_set12(6, 3, SECS, SEED);
    scenarios.extend(scenarios_fault(None, SECS));
    scenarios.extend(scenarios_internet(2, SECS, SEED));
    scenarios.extend(scenarios_adversarial(SECS));
    scenarios.extend(scenarios_multihop(SECS));
    scenarios.push(scenario_fairness(4, 24.0, 5.0));
    // High contention: 64 self-flows pile onto the same bottleneck with a
    // near-simultaneous start.
    scenarios.push(scenario_fairness(64, 12.0, 0.05));
    let mut schemes: Vec<Contender> = [
        "cubic", "bbr2", "vegas", "westwood", "yeah", "copa", "illinois", "newreno",
    ]
    .map(Contender::Heuristic)
    .to_vec();
    match SageModel::load_file(&model_path("sage")) {
        Ok(model) => schemes.push(Contender::Model {
            name: "sage",
            model: Arc::new(model),
            gr_cfg: default_gr(),
        }),
        Err(e) => sage_obs::obs_warn!("no learned policy in the roster ({e}); heuristics only"),
    }
    // The distilled symbolic policy joins the roster whenever a fitted tree
    // resolves (installed, $SAGE_TREE, or the committed artifacts/sage.tree)
    // so the matrix tracks its rank next to the NN policy per PR.
    if sage_distill::resolve().is_some() {
        schemes.push(Contender::Heuristic("sage-sym"));
    } else {
        sage_obs::obs_warn!("no distilled tree found; sage-sym not in the roster");
    }
    let spec = MatrixSpec {
        schemes,
        scenarios,
        seeds: vec![SEED],
        alpha: 2.0,
        threads: 0,
    };
    let total = spec.schemes.len() * spec.scenarios.len() * spec.seeds.len();
    println!(
        "eval_matrix: {} schemes x {} scenarios x {} seeds = {} cells",
        spec.schemes.len(),
        spec.scenarios.len(),
        spec.seeds.len(),
        total
    );
    let report = run_matrix(&spec, |d, t| {
        if d % 25 == 0 || d == t {
            sage_obs::obs_info!("  {d}/{t}");
        }
    });

    let ranks = rankings(&report.cells);
    let rows: Vec<Vec<String>> = ranks
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.family.name().to_string(),
                r.order.join(" > "),
            ]
        })
        .collect();
    print_table(
        "Evaluation matrix: per-scenario scheme rankings (best first)",
        &["scenario", "family", "ranking"],
        &rows,
    );

    // Set III: the fault family's cells, each scheme judged against its own
    // `s3-clean` cell.
    let rows: Vec<Vec<String>> = summarise(&report.cells)
        .iter()
        .map(|s| {
            vec![
                s.scheme.clone(),
                format!("{}/{}", s.survived, s.scenarios),
                format!("{:.1}%", s.mean_degradation_pct),
                format!("{:.1}%", s.worst_degradation_pct),
                format!("{:.2}%", s.mean_retx_overhead_pct),
                s.restarts.to_string(),
            ]
        })
        .collect();
    print_table(
        "Set III summary (most robust first)",
        &[
            "scheme",
            "survived",
            "mean degr",
            "worst degr",
            "mean retx",
            "restarts",
        ],
        &rows,
    );

    let dead: Vec<String> = report
        .cells
        .iter()
        .filter(|c| !c.survived)
        .map(|c| format!("{}/{}", c.scheme, c.scenario))
        .collect();
    if !dead.is_empty() {
        println!("non-surviving cells: {dead:?}");
    }

    let path = write_report("EVAL_matrix.json", &matrix_json(&spec, &report));
    println!("report: {} (digest {:016x})", path.display(), report.digest);
    sage_obs::flush_trace();
}
