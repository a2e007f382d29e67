//! Symbolic distillation pipeline + fidelity report: harvest a state/action
//! dataset from the trained policy over matrix scenarios, fit the CART-style
//! regression tree, save it as `artifacts/sage.tree`, then measure how
//! faithful the distilled policy is — held-out action agreement (clean-link
//! and off-distribution) and the league rank delta of `sage-sym` vs `sage`
//! over a mini evaluation matrix. Emits an atomic
//! `artifacts/results/DISTILL_report.json` with no wall-clock fields, so the
//! report is byte-identical at every `SAGE_THREADS` (harvest, fit and matrix
//! are each pinned in-process at 1/2/4 threads). Exits non-zero when a
//! fidelity gate fails.

use sage_bench::{artifacts_dir, default_gr, model_path, print_table, write_report, SEED};
use sage_core::SageModel;
use sage_distill::{SymbolicModel, TreeConfig};
use sage_eval::matrix::{
    rankings, run_matrix, scenario_fairness, scenarios_adversarial, scenarios_fault,
    scenarios_internet, scenarios_multihop, scenarios_set12, MatrixSpec, ScenarioSpec,
};
use sage_eval::runner::Contender;
use sage_eval::{agreement, harvest, rank_delta, Agreement, AGREE_TOL_LR};
use sage_util::Json;
use std::sync::Arc;

/// Master seeds for the harvest streams. Train and held-out must not share
/// any `Rng::stream_seed` stream, and the held-out *scenarios* are also
/// subsampled under a shifted grid seed so the tree is scored on links it
/// never saw during fitting.
const TRAIN_SEED: u64 = SEED ^ 0xD157_1111;
const HELD_SEED: u64 = SEED ^ 0xD157_2222;

/// Harvest scale: Set I / Set II scenario counts, Internet paths per
/// profile, rollout seconds.
const SET1: usize = 6;
const SET2: usize = 3;
const INET: usize = 1;
const SECS: f64 = 8.0;
/// Mini-league rollout seconds.
const LEAGUE_SECS: f64 = 6.0;
/// Gates: held-out clean-link agreement floor, mean |rank delta| ceiling.
const MIN_AGREE: f64 = 0.85;
const MAX_RANK: f64 = 1.0;

fn agreement_json(a: &Agreement) -> Json {
    Json::obj(vec![
        ("rows", Json::Num(a.rows as f64)),
        ("agree_rate", Json::Num(a.agree_rate)),
        ("mean_abs_lr", Json::Num(a.mean_abs_lr)),
        ("max_abs_lr", Json::Num(a.max_abs_lr)),
    ])
}

fn main() {
    let model = match SageModel::load_file(&model_path("sage")) {
        Ok(m) => Arc::new(m),
        Err(e) => {
            // No trained artifact in this checkout: nothing to distill.
            // Mirror eval_matrix's heuristics-only grace rather than failing
            // environments that never ran the training pipeline.
            sage_obs::obs_warn!("no trained policy to distill ({e}); skipping");
            return;
        }
    };
    let gr_cfg = default_gr();
    let cfg = TreeConfig::default();

    // Stage 1: harvest the training dataset from the deployed policy.
    let mut train_scen = scenarios_set12(SET1, SET2, SECS, SEED);
    train_scen.extend(scenarios_fault(Some(&["clean"]), SECS));
    train_scen.extend(scenarios_internet(INET, SECS, SEED));
    let train = harvest(&model, gr_cfg, &train_scen, TRAIN_SEED, 0);
    println!(
        "distill: harvested {} rows from {} scenarios (digest {:016x})",
        train.len(),
        train_scen.len(),
        train.digest()
    );

    // Stage 2: fit and persist the tree artifact.
    let tree = Arc::new(SymbolicModel::fit(&train, &cfg));
    let tree_path = artifacts_dir().join("sage.tree");
    tree.save_file(&tree_path)
        .unwrap_or_else(|e| panic!("save tree {}: {e}", tree_path.display()));
    println!(
        "distill: tree {} nodes / {} leaves / depth {} -> {}",
        tree.nodes.len(),
        tree.leaves(),
        tree.depth(),
        tree_path.display()
    );

    // Stage 3: held-out agreement, split into clean links (the gate) and
    // off-distribution scenarios (reported, not gated).
    let mut clean_scen = scenarios_set12(SET1, 0, SECS, SEED + 1);
    clean_scen.extend(scenarios_fault(Some(&["clean"]), SECS));
    let mut other_scen: Vec<ScenarioSpec> = scenarios_set12(0, SET2, SECS, SEED + 1);
    other_scen.extend(scenarios_internet(INET, SECS, SEED + 1));
    let held_clean = harvest(&model, gr_cfg, &clean_scen, HELD_SEED, 0);
    let held_other = harvest(&model, gr_cfg, &other_scen, HELD_SEED.wrapping_add(1), 0);
    let agree_clean = agreement(&tree, &held_clean, AGREE_TOL_LR);
    let agree_other = agreement(&tree, &held_other, AGREE_TOL_LR);
    let mut held_all = held_clean.clone();
    held_all.extend(&held_other);
    let agree_all = agreement(&tree, &held_all, AGREE_TOL_LR);

    // Stage 4: mini league with the tree installed — `sage-sym` resolves
    // from the in-process registry slot, not from disk.
    sage_distill::install(tree.clone());
    // The 64-flow contention cell runs in eval_matrix; at distill scale it
    // would dominate the runtime without moving the rank.
    let mut scenarios = scenarios_set12(4, 2, LEAGUE_SECS, SEED);
    scenarios.extend(scenarios_fault(Some(&["clean", "blackout"]), LEAGUE_SECS));
    scenarios.extend(scenarios_internet(1, LEAGUE_SECS, SEED));
    scenarios.extend(scenarios_adversarial(LEAGUE_SECS));
    scenarios.extend(scenarios_multihop(LEAGUE_SECS));
    scenarios.push(scenario_fairness(3, 9.0, 3.0));
    let mut schemes: Vec<Contender> = ["cubic", "bbr2", "vegas", "westwood"]
        .map(Contender::Heuristic)
        .to_vec();
    schemes.push(Contender::Model {
        name: "sage",
        model: model.clone(),
        gr_cfg,
    });
    schemes.push(Contender::Heuristic("sage-sym"));
    let spec = MatrixSpec {
        schemes,
        scenarios,
        seeds: vec![SEED],
        alpha: 2.0,
        threads: 0,
    };
    let league = run_matrix(&spec, |_, _| {});
    let rd = rank_delta(&rankings(&league.cells), "sage", "sage-sym");

    // Gates.
    let agree_pass = agree_clean.agree_rate >= MIN_AGREE;
    let rank_pass = rd.mean_abs <= MAX_RANK;

    let rows = vec![
        vec![
            "clean (gate)".to_string(),
            format!("{}", agree_clean.rows),
            format!("{:.1}%", agree_clean.agree_rate * 100.0),
            format!("{:.4}", agree_clean.mean_abs_lr),
        ],
        vec![
            "off-dist".to_string(),
            format!("{}", agree_other.rows),
            format!("{:.1}%", agree_other.agree_rate * 100.0),
            format!("{:.4}", agree_other.mean_abs_lr),
        ],
        vec![
            "overall".to_string(),
            format!("{}", agree_all.rows),
            format!("{:.1}%", agree_all.agree_rate * 100.0),
            format!("{:.4}", agree_all.mean_abs_lr),
        ],
    ];
    print_table(
        "Distillation fidelity (held-out action agreement)",
        &["split", "rows", "agree", "mean |d lr|"],
        &rows,
    );
    let rows: Vec<Vec<String>> = rd
        .per_scenario
        .iter()
        .map(|(id, d)| vec![id.clone(), format!("{d:+}")])
        .collect();
    print_table(
        "League rank delta: sage-sym vs sage (twins excluded)",
        &["scenario", "rank delta"],
        &rows,
    );
    println!(
        "rank delta: mean |d| {:.3}, max |d| {}",
        rd.mean_abs, rd.max_abs
    );

    let report = Json::obj(vec![
        ("scheme", Json::str("sage-sym")),
        (
            "tree",
            Json::obj(vec![
                ("nodes", Json::Num(tree.nodes.len() as f64)),
                ("leaves", Json::Num(tree.leaves() as f64)),
                ("depth", Json::Num(tree.depth() as f64)),
                ("max_depth", Json::Num(cfg.max_depth as f64)),
                ("min_leaf", Json::Num(cfg.min_leaf as f64)),
                ("digest", Json::str(format!("{:016x}", tree.digest()))),
            ]),
        ),
        (
            "dataset",
            Json::obj(vec![
                ("train_rows", Json::Num(train.len() as f64)),
                ("train_scenarios", Json::Num(train_scen.len() as f64)),
                (
                    "train_digest",
                    Json::str(format!("{:016x}", train.digest())),
                ),
                ("heldout_clean_rows", Json::Num(held_clean.len() as f64)),
                ("heldout_other_rows", Json::Num(held_other.len() as f64)),
            ]),
        ),
        (
            "agreement",
            Json::obj(vec![
                ("tol_lr", Json::Num(AGREE_TOL_LR)),
                ("clean", agreement_json(&agree_clean)),
                ("other", agreement_json(&agree_other)),
                ("overall", agreement_json(&agree_all)),
            ]),
        ),
        (
            "league",
            Json::obj(vec![
                ("scenarios", Json::Num(rd.per_scenario.len() as f64)),
                ("rank_delta_mean_abs", Json::Num(rd.mean_abs)),
                ("rank_delta_max_abs", Json::Num(rd.max_abs as f64)),
                (
                    "per_scenario",
                    Json::Arr(
                        rd.per_scenario
                            .iter()
                            .map(|(id, d)| {
                                Json::Arr(vec![Json::str(id.clone()), Json::Num(*d as f64)])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "gates",
            Json::obj(vec![
                ("min_agree_clean", Json::Num(MIN_AGREE)),
                ("max_rank_mean_abs", Json::Num(MAX_RANK)),
                ("agree_pass", Json::Bool(agree_pass)),
                ("rank_pass", Json::Bool(rank_pass)),
                ("pass", Json::Bool(agree_pass && rank_pass)),
            ]),
        ),
    ]);
    let path = write_report("DISTILL_report.json", &report);
    println!("report: {}", path.display());
    if !(agree_pass && rank_pass) {
        eprintln!(
            "distill gate FAILED: clean agreement {:.1}% (need >= {:.0}%), rank delta mean {:.3} (need <= {MAX_RANK})",
            agree_clean.agree_rate * 100.0,
            MIN_AGREE * 100.0,
            rd.mean_abs,
        );
        std::process::exit(1);
    }
}
