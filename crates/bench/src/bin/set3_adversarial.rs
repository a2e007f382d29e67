//! Set III: the adversarial robustness suite. Runs all 13 pool heuristics
//! (plus the learned Sage policy when `artifacts/sage.model` exists) through
//! the fault-scenario grid — burst loss, corruption, reordering, duplication,
//! blackouts, link flaps, jitter spikes, ACK compression, and all of them at
//! once — and reports per-scheme survival, degradation vs its own clean
//! baseline, retransmit overhead, and abort-restart counts. The full report
//! goes to `artifacts/results/set3_adversarial.json` (crash-safe write).
//!
//! A view over the evaluation matrix: the grid runs as `Family::Fault`
//! scenarios through `run_matrix`, and every cell is judged against its
//! scheme's own `s3-clean` cell.

use sage_bench::{default_gr, envvar, model_path, pool_schemes, print_table, SEED};
use sage_core::SageModel;
use sage_eval::matrix::{run_matrix, scenarios_fault, MatrixCell, MatrixSpec};
use sage_eval::runner::Contender;
use sage_eval::set3::{degradation_pct, scenario_grid, summarise};
use sage_util::json::Json;
use std::sync::Arc;

fn main() {
    let secs = envvar("SAGE_SECS", 10) as f64;
    let mut contenders: Vec<Contender> = pool_schemes()
        .into_iter()
        .map(Contender::Heuristic)
        .collect();
    match SageModel::load_file(&model_path("sage")) {
        Ok(model) => contenders.push(Contender::Model {
            name: "sage",
            model: Arc::new(model),
            gr_cfg: default_gr(),
        }),
        Err(e) => sage_obs::obs_warn!("no learned policy in the roster ({e}); heuristics only"),
    }
    let scenarios = scenario_grid();
    println!(
        "set3: {} contenders x {} scenarios, {secs} s each (SAGE_SECS to change)",
        contenders.len(),
        scenarios.len()
    );
    let spec = MatrixSpec {
        schemes: contenders,
        scenarios: scenarios_fault(None, secs),
        seeds: vec![SEED],
        alpha: 2.0,
        threads: 0,
    };
    let cells = run_matrix(&spec, |d, t| {
        if d % 11 == 0 || d == t {
            sage_obs::obs_info!("  {d}/{t}");
        }
    })
    .cells;
    // Contender-major view of the scenario-major cells: (scenario id, cell,
    // goodput drop vs the scheme's clean cell in percent, delay inflation vs
    // it with 1.0 = unchanged). The grid's first scenario is the clean one.
    let n_ch = spec.schemes.len();
    let mut entries: Vec<(&str, &MatrixCell, f64, f64)> = Vec::with_capacity(cells.len());
    for ci in 0..n_ch {
        let clean = &cells[ci];
        for (si, sc) in scenarios.iter().enumerate() {
            let cell = &cells[si * n_ch + ci];
            let delay_inflation = if clean.avg_owd_ms > 0.0 && cell.avg_owd_ms > 0.0 {
                cell.avg_owd_ms / clean.avg_owd_ms
            } else {
                1.0
            };
            let degradation = degradation_pct(cell, Some(clean));
            entries.push((sc.id, cell, degradation, delay_inflation));
        }
    }

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|&(scenario, c, degradation, delay_inflation)| {
            vec![
                c.scheme.clone(),
                scenario.to_string(),
                if c.survived {
                    "yes".into()
                } else {
                    "NO".into()
                },
                format!("{:.2}", c.goodput_mbps),
                format!("{:.1}", c.avg_owd_ms),
                format!("{degradation:.1}%"),
                format!("{delay_inflation:.2}x"),
                format!("{:.2}%", c.retx_pct),
                c.restarts.to_string(),
                format!("{:.3}", c.fairness),
            ]
        })
        .collect();
    print_table(
        "Set III adversarial grid (per cell)",
        &[
            "scheme", "scenario", "ok", "mbps", "owd", "degr", "delay", "retx", "restarts", "jain",
        ],
        &rows,
    );

    let summary = summarise(&cells);
    let srows: Vec<Vec<String>> = summary
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
        &srows,
    );

    let report = Json::obj(vec![
        ("suite", Json::str("set3-adversarial")),
        ("seed", Json::Num(SEED as f64)),
        ("duration_secs", Json::Num(secs)),
        (
            "scenarios",
            Json::Arr(scenarios.iter().map(|s| Json::str(s.id)).collect()),
        ),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|&(scenario, c, degradation, delay_inflation)| {
                        Json::obj(vec![
                            ("scheme", Json::str(c.scheme.clone())),
                            ("scenario", Json::str(scenario)),
                            ("survived", Json::Bool(c.survived)),
                            ("goodput_mbps", Json::Num(c.goodput_mbps)),
                            ("avg_owd_ms", Json::Num(c.avg_owd_ms)),
                            ("degradation_pct", Json::Num(degradation)),
                            ("delay_inflation", Json::Num(delay_inflation)),
                            ("retx_overhead_pct", Json::Num(c.retx_pct)),
                            ("restarts", Json::Num(c.restarts as f64)),
                            ("lost_pkts", Json::Num(c.lost_pkts as f64)),
                            ("fairness", Json::Num(c.fairness)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            Json::Arr(
                summary
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("scheme", Json::str(s.scheme.clone())),
                            ("scenarios", Json::Num(s.scenarios as f64)),
                            ("survived", Json::Num(s.survived as f64)),
                            ("mean_degradation_pct", Json::Num(s.mean_degradation_pct)),
                            ("worst_degradation_pct", Json::Num(s.worst_degradation_pct)),
                            (
                                "mean_retx_overhead_pct",
                                Json::Num(s.mean_retx_overhead_pct),
                            ),
                            ("restarts", Json::Num(s.restarts as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = sage_bench::write_report("set3_adversarial.json", &report);
    println!("\nreport: {}", path.display());

    let died: Vec<&str> = entries
        .iter()
        .filter(|(_, c, _, _)| !c.survived)
        .map(|(_, c, _, _)| c.scheme.as_str())
        .collect();
    if !died.is_empty() {
        println!("non-surviving cells: {died:?}");
    }
    sage_obs::flush_trace();
}
