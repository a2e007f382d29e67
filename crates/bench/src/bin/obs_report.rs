//! Declarative SLO regression gate over the recorded observability
//! artifacts, plus the fairness trace note.
//!
//! Reads `EVAL_matrix.json` (required) and `BENCH_serve.json` (optional)
//! and evaluates a fixed table of service-level objectives against them:
//! cell completion/survival rates, per-scenario-family drop-rate ceilings,
//! ramp-up sanity from the per-cell time series, and the serving runtime's
//! p99 tick latency / fallback / escalation rates. The matrix-derived SLOs
//! are deterministic, so their thresholds are tight; the serve latency SLO
//! measures wall clock and is deliberately generous.
//!
//! Writes `OBS_slo.json` with every (id, value, threshold, pass) row and a
//! `FAIRNESS_trace.md` note summarising which flows of the fairness-family
//! cells starved (goodput < 50% of the cell mean) and how to reconstruct
//! their timelines from a flight dump (`sage_trace` + the cell span base).
//! Exits non-zero on any SLO breach, so `scripts/check.sh` gates on it.

use sage_bench::{results_dir, write_report};
use sage_util::Json;

/// One evaluated objective.
struct SloRow {
    id: &'static str,
    desc: String,
    /// `true` = value must be <= threshold, else >=.
    upper: bool,
    value: f64,
    threshold: f64,
}

impl SloRow {
    fn pass(&self) -> bool {
        if self.upper {
            self.value <= self.threshold
        } else {
            self.value >= self.threshold
        }
    }
}

fn load(path: &std::path::Path) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    Json::parse(&text).ok()
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

fn text(j: &Json, key: &str) -> String {
    j.get(key)
        .and_then(|v| v.as_str())
        .unwrap_or("")
        .to_string()
}

/// Drop-rate ceiling per scenario family, percent of transmissions.
/// Deterministic rollouts, so the headroom over the recorded values is
/// slim; a scheme or simulator change that pushes a family past its
/// ceiling must regenerate the artifacts deliberately.
const FAMILY_LOSS_CEILING: &[(&str, f64)] = &[
    ("set1", 95.0),
    ("set2", 99.0),
    ("fault", 95.0),
    ("internet", 98.5),
    ("adversarial", 95.0),
    ("multihop", 95.0),
    ("fairness", 98.0),
];

fn matrix_slos(matrix: &Json, slos: &mut Vec<SloRow>) {
    let cells: Vec<&Json> = matrix
        .get("cells")
        .and_then(|c| c.as_arr())
        .map(|a| a.iter().collect())
        .unwrap_or_default();
    let n = cells.len().max(1) as f64;
    let completed = cells
        .iter()
        .filter(|c| c.get("completed").and_then(|v| v.as_bool()) == Some(true))
        .count() as f64;
    let survived = cells
        .iter()
        .filter(|c| c.get("survived").and_then(|v| v.as_bool()) == Some(true))
        .count() as f64;
    slos.push(SloRow {
        id: "matrix.completed.rate",
        desc: "fraction of matrix cells that ran without panicking".into(),
        upper: false,
        value: completed / n,
        threshold: 1.0,
    });
    slos.push(SloRow {
        id: "matrix.survived.rate",
        desc: "fraction of matrix cells that delivered at least one packet".into(),
        upper: false,
        value: survived / n,
        threshold: 0.95,
    });
    for &(family, ceiling) in FAMILY_LOSS_CEILING {
        let worst = cells
            .iter()
            .filter(|c| text(c, "family") == family)
            .map(|c| num(c, "loss_pct"))
            .fold(f64::NEG_INFINITY, f64::max);
        if worst.is_finite() {
            slos.push(SloRow {
                id: "matrix.drop.rate",
                desc: format!("worst-cell drop rate in the `{family}` family, %"),
                upper: true,
                value: worst,
                threshold: ceiling,
            });
        }
    }
    // Ramp-up sanity from the recorded time series: every surviving cell's
    // late-window (last quarter) throughput series must stay positive —
    // a flow that survived but flatlined is an SLO breach the end-state
    // scalars cannot see. The intentionally pathological families are
    // exempt: adversarial genomes are searched specifically to starve
    // flows, and the harsh fault grids (burst loss, blackouts) stall them
    // by design — a late flatline there is the scenario working.
    let mut flatlined = 0.0f64;
    let mut with_series = 0.0f64;
    for c in &cells {
        let family = text(c, "family");
        if c.get("survived").and_then(|v| v.as_bool()) != Some(true)
            || family == "adversarial"
            || family == "fault"
        {
            continue;
        }
        let Some(thr) = c
            .get("series")
            .and_then(|s| s.get("thr_mbps"))
            .and_then(|s| s.as_arr())
        else {
            continue;
        };
        if thr.is_empty() {
            continue;
        }
        with_series += 1.0;
        let tail = &thr[thr.len() - thr.len() / 4..];
        let late: f64 = tail.iter().filter_map(|v| v.as_f64()).sum();
        if late <= 0.0 {
            flatlined += 1.0;
        }
    }
    slos.push(SloRow {
        id: "matrix.rampup.flatline.rate",
        desc: "surviving cells whose last-quarter throughput series is zero".into(),
        upper: true,
        value: flatlined / with_series.max(1.0),
        threshold: 0.0,
    });
}

fn bench_slos(bench: &Json, slos: &mut Vec<SloRow>) {
    let Some(sc) = bench.get("scenario") else {
        return;
    };
    // Wall-clock latency: generous ceiling — this SLO exists to catch
    // order-of-magnitude serving regressions, not scheduler jitter.
    slos.push(SloRow {
        id: "serve.tick.latency.p99_us",
        desc: "end-to-end scenario p99 batched inference tick latency, us".into(),
        upper: true,
        value: num(sc, "p99_us"),
        threshold: 50_000.0,
    });
    let nn = num(sc, "nn_actions");
    let fallback = num(sc, "fallback_actions");
    slos.push(SloRow {
        id: "serve.fallback.rate",
        desc: "fallback actions / all serve actions in the e2e scenario".into(),
        upper: true,
        value: fallback / (nn + fallback).max(1.0),
        threshold: 0.05,
    });
    let counters = bench.get("metrics").and_then(|m| m.get("counters"));
    let counter = |name: &str| {
        counters
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    slos.push(SloRow {
        id: "serve.escalation.rate",
        desc: "symbolic-tier escalations / audits across the bench run".into(),
        upper: true,
        value: counter("serve.escalations") / counter("serve.audits").max(1.0),
        threshold: 0.5,
    });
    slos.push(SloRow {
        id: "serve.e2e.jain",
        desc: "Jain fairness across the learned flows of the e2e scenario".into(),
        upper: false,
        value: num(sc, "jain_fairness"),
        threshold: 0.2,
    });
}

/// The fairness trace note (`FAIRNESS_trace.md`): which flows of each
/// fairness-family cell starved, and the span ids a flight dump indexes
/// them under.
fn fairness_note(matrix: &Json) -> String {
    let mut out = String::from(
        "# Fairness trace\n\n\
         Flows of the fairness-family matrix cells whose mean goodput fell\n\
         below 50% of their cell's per-flow mean (\"starved\"). Flow `k` of a\n\
         cell carries flight-recorder span `cell_span_base(scenario, scheme,\n\
         seed) + k + 1`; record a run with `SAGE_RECORD=all`, dump it, and\n\
         `sage_trace <dump> <span-hex>` reconstructs the starved flow's\n\
         queue/drop/retx timeline.\n\n\
         | scheme | scenario | jain | starved flows (goodput Mbit/s) |\n\
         |---|---|---|---|\n",
    );
    let cells = matrix.get("cells").and_then(|c| c.as_arr()).unwrap_or(&[]);
    for c in cells {
        if text(c, "family") != "fairness" {
            continue;
        }
        let goodputs: Vec<f64> = c
            .get("flow_goodputs")
            .and_then(|g| g.as_arr())
            .map(|a| a.iter().filter_map(|v| v.as_f64()).collect())
            .unwrap_or_default();
        if goodputs.is_empty() {
            continue;
        }
        let mean = goodputs.iter().sum::<f64>() / goodputs.len() as f64;
        let starved: Vec<String> = goodputs
            .iter()
            .enumerate()
            .filter(|(_, &g)| g < 0.5 * mean)
            .map(|(k, &g)| format!("{k} ({g:.2})"))
            .collect();
        out.push_str(&format!(
            "| {} | {} | {:.3} | {} |\n",
            text(c, "scheme"),
            text(c, "scenario"),
            num(c, "fairness"),
            if starved.is_empty() {
                "none".to_string()
            } else {
                starved.join(", ")
            }
        ));
    }
    out
}

fn main() {
    let matrix_path = results_dir().join("EVAL_matrix.json");
    let bench_path = results_dir().join("BENCH_serve.json");

    let Some(matrix) = load(&matrix_path) else {
        eprintln!("obs_report: no matrix report at {}", matrix_path.display());
        std::process::exit(2);
    };
    let bench = load(&bench_path);

    let mut slos = Vec::new();
    matrix_slos(&matrix, &mut slos);
    match &bench {
        Some(b) => bench_slos(b, &mut slos),
        None => println!(
            "obs_report: no bench report at {} — serve SLOs skipped",
            bench_path.display()
        ),
    }

    println!("== SLO gate ({} objectives) ==", slos.len());
    let mut breaches = 0;
    for s in &slos {
        let cmp = if s.upper { "<=" } else { ">=" };
        println!(
            "{:<4} {:<28} {:>10.4} {} {:<10.4}  {}",
            if s.pass() { "ok" } else { "FAIL" },
            s.id,
            s.value,
            cmp,
            s.threshold,
            s.desc
        );
        breaches += !s.pass() as u32;
    }

    let json = Json::obj(vec![
        ("suite", Json::str("obs_slo")),
        ("enforced", Json::Bool(true)),
        ("breaches", Json::Num(breaches as f64)),
        (
            "slos",
            Json::Arr(
                slos.iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("id", Json::str(s.id)),
                            ("desc", Json::str(s.desc.clone())),
                            ("op", Json::str(if s.upper { "<=" } else { ">=" })),
                            ("value", Json::Num(s.value)),
                            ("threshold", Json::Num(s.threshold)),
                            ("pass", Json::Bool(s.pass())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = write_report("OBS_slo.json", &json);
    println!("report: {}", path.display());

    let note = fairness_note(&matrix);
    let note_path = results_dir().join("FAIRNESS_trace.md");
    sage_util::fsio::atomic_write(&note_path, note.as_bytes())
        .unwrap_or_else(|e| panic!("write fairness note {}: {e}", note_path.display()));
    println!("fairness note: {}", note_path.display());

    if breaches > 0 {
        eprintln!("obs_report: {breaches} SLO breach(es)");
        std::process::exit(1);
    }
}
