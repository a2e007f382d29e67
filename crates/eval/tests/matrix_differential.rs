//! Differential tests for the evaluation matrix's determinism contract: the
//! serialised `EVAL_matrix.json` payload must be byte-identical at
//! `SAGE_THREADS` 1, 2 and 4. Every (scheme, scenario, seed) cell is an
//! independent task with seeds that are pure functions of the cell, and the
//! reduction is ordered — so neither the cells, nor the rankings, nor the
//! folded report digest may depend on scheduling, nor a cell on the roster
//! around it.

use sage_core::model::NetConfig;
use sage_core::SageModel;
use sage_eval::matrix::{
    matrix_json, rankings, run_matrix, scenarios_fault, scenarios_set12, MatrixSpec,
};
use sage_eval::runner::Contender;
use sage_gr::{GrConfig, STATE_DIM};
use std::sync::Arc;

/// A small 4 schemes x 3 scenarios x 2 seeds sub-matrix (24 cells), sized
/// for the debug-mode tier-1 suite. One scheme is a learned contender (a
/// tiny untrained network): its cells share one `Arc<SageModel>` across
/// workers, which the heuristics never exercise.
fn spec(threads: usize) -> MatrixSpec {
    let mut scenarios = scenarios_set12(1, 1, 4.0, 21);
    scenarios.extend(scenarios_fault(Some(&["blackout"]), 4.0));
    let net = NetConfig {
        enc1: 8,
        gru: 8,
        enc2: 8,
        fc: 8,
        residual_blocks: 1,
        critic_hidden: 8,
        ..NetConfig::default()
    };
    let model = SageModel::new(net, vec![0.0; STATE_DIM], vec![1.0; STATE_DIM], 3);
    MatrixSpec {
        schemes: vec![
            Contender::Heuristic("cubic"),
            Contender::Heuristic("vegas"),
            Contender::Heuristic("westwood"),
            Contender::Model {
                name: "tiny",
                model: Arc::new(model),
                gr_cfg: GrConfig::default(),
            },
        ],
        scenarios,
        seeds: vec![3, 7],
        alpha: 2.0,
        threads,
    }
}

#[test]
fn matrix_report_byte_identical_across_thread_counts() {
    let reports: Vec<String> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            let s = spec(threads);
            let report = run_matrix(&s, |_, _| {});
            assert_eq!(report.cells.len(), 24, "4 schemes x 3 scenarios x 2 seeds");
            matrix_json(&s, &report).to_string()
        })
        .collect();
    assert_eq!(
        reports[0], reports[1],
        "matrix report differs between 1 and 2 threads"
    );
    assert_eq!(
        reports[0], reports[2],
        "matrix report differs between 1 and 4 threads"
    );
}

/// Dropping a contender from the roster moves no other cell: every
/// remaining cell keeps its digest, and each scenario's ranking is the full
/// run's order with the dropped scheme filtered out. This is what lets a
/// roster change regenerate the committed reports with every other cell
/// unchanged.
#[test]
fn cells_and_rankings_do_not_depend_on_the_roster() {
    let full = spec(1);
    let mut fewer = spec(1);
    let dropped = fewer.schemes.remove(1).name();
    let (all, rest) = (run_matrix(&full, |_, _| {}), run_matrix(&fewer, |_, _| {}));
    let kept: Vec<_> = all.cells.iter().filter(|c| c.scheme != dropped).collect();
    assert_eq!(kept.len(), rest.cells.len());
    for (a, b) in kept.iter().zip(&rest.cells) {
        let id = format!("{}/{}/{}", a.scenario, a.scheme, a.seed);
        assert_eq!(id, format!("{}/{}/{}", b.scenario, b.scheme, b.seed));
        assert_eq!(
            a.digest, b.digest,
            "{id} moved when {dropped} left the roster"
        );
    }
    let (all, rest) = (rankings(&all.cells), rankings(&rest.cells));
    assert_eq!(all.len(), rest.len());
    for (a, b) in all.iter().zip(&rest) {
        let filtered: Vec<&String> = a.order.iter().filter(|s| **s != dropped).collect();
        assert_eq!(
            filtered,
            b.order.iter().collect::<Vec<_>>(),
            "{}",
            a.scenario
        );
    }
}
