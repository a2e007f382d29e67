//! Declarative SLO regression gate over the recorded observability
//! artifacts, plus the fairness trace note.
//!
//! Reads `EVAL_matrix.json` and evaluates a fixed table of service-level
//! objectives against it: cell completion/survival rates, per-scenario-family
//! drop-rate ceilings, and ramp-up sanity from the per-cell time series. The
//! matrix is deterministic, so the thresholds are tight. A row whose input
//! is missing from the report — a family without cells, a cell without
//! `loss_pct`, a surviving cell without its series — has the value NaN and
//! fails: a renamed field must not turn the gate green.
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

/// Numeric field of a cell; NaN (which passes no comparison) when the field
/// is absent or not a number.
fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
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

fn matrix_slos(matrix: &Json) -> Vec<SloRow> {
    let mut slos = Vec::new();
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
        // NaN-propagating maximum (`f64::max` would drop the NaN), NaN for
        // a family with no cells.
        let worst = cells
            .iter()
            .filter(|c| text(c, "family") == family)
            .map(|c| num(c, "loss_pct"))
            .reduce(|w, x| if x.is_nan() || x > w { x } else { w })
            .unwrap_or(f64::NAN);
        slos.push(SloRow {
            id: "matrix.drop.rate",
            desc: format!("worst-cell drop rate in the `{family}` family, %"),
            upper: true,
            value: worst,
            threshold: ceiling,
        });
    }
    // Ramp-up sanity from the recorded time series: every surviving cell's
    // late-window (last quarter) throughput series must stay positive —
    // a flow that survived but flatlined is an SLO breach the end-state
    // scalars cannot see. The intentionally pathological families are
    // exempt: adversarial genomes are searched specifically to starve
    // flows, and the harsh fault grids (burst loss, blackouts) stall them
    // by design — a late flatline there is the scenario working.
    let mut flatlined = 0.0f64;
    let mut judged = 0.0f64;
    for c in &cells {
        let family = text(c, "family");
        if c.get("survived").and_then(|v| v.as_bool()) != Some(true)
            || family == "adversarial"
            || family == "fault"
        {
            continue;
        }
        judged += 1.0;
        let thr = c
            .get("series")
            .and_then(|s| s.get("thr_mbps"))
            .and_then(|s| s.to_f64_vec())
            .unwrap_or_default();
        if thr.is_empty() {
            // No series to judge: poison the rate instead of skipping the cell.
            flatlined = f64::NAN;
        } else if thr[thr.len() - thr.len() / 4..].iter().sum::<f64>() <= 0.0 {
            flatlined += 1.0;
        }
    }
    slos.push(SloRow {
        id: "matrix.rampup.flatline.rate",
        desc: "surviving cells whose last-quarter throughput series is zero".into(),
        upper: true,
        value: flatlined / judged.max(1.0),
        threshold: 0.0,
    });
    slos
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
    let Some(matrix) = load(&matrix_path) else {
        eprintln!("obs_report: no matrix report at {}", matrix_path.display());
        std::process::exit(2);
    };
    let slos = matrix_slos(&matrix);

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    type Cells = BTreeMap<&'static str, BTreeMap<String, Json>>;

    /// One healthy surviving cell per family, as `EVAL_matrix.json` lays a
    /// cell out (only the fields the SLO table reads).
    fn cells() -> Cells {
        FAMILY_LOSS_CEILING
            .iter()
            .map(|&(family, _)| {
                let cell = Json::obj(vec![
                    ("family", Json::str(family)),
                    ("completed", Json::Bool(true)),
                    ("survived", Json::Bool(true)),
                    ("loss_pct", Json::Num(2.5)),
                    (
                        "series",
                        Json::obj(vec![("thr_mbps", Json::nums([0.5, 4.0, 8.0, 8.0]))]),
                    ),
                ]);
                let Json::Obj(fields) = cell else {
                    unreachable!()
                };
                (family, fields)
            })
            .collect()
    }

    fn slos(cells: Cells) -> Vec<SloRow> {
        let cells = cells.into_values().map(Json::Obj).collect();
        matrix_slos(&Json::obj(vec![("cells", Json::Arr(cells))]))
    }

    /// `id: desc` of every failing row, each of which must read NaN.
    fn failing(cells: Cells) -> Vec<String> {
        slos(cells)
            .iter()
            .filter(|s| !s.pass())
            .inspect(|s| assert!(s.value.is_nan(), "{}: {}", s.id, s.value))
            .map(|s| format!("{}: {}", s.id, s.desc))
            .collect()
    }

    #[test]
    fn well_formed_matrix_has_ten_rows_and_no_breach() {
        let slos = slos(cells());
        assert_eq!(slos.len(), 10);
        assert!(slos.iter().all(SloRow::pass));
    }

    #[test]
    fn missing_loss_pct_fails_that_familys_row() {
        let mut c = cells();
        c.get_mut("internet").unwrap().remove("loss_pct");
        let want = "matrix.drop.rate: worst-cell drop rate in the `internet` family, %";
        assert_eq!(failing(c), [want]);
        // Not a number is as absent as absent.
        let mut c = cells();
        let loss = c.get_mut("set2").unwrap().get_mut("loss_pct").unwrap();
        *loss = Json::str("2.5");
        assert_eq!(failing(c).len(), 1);
        // So is a family the report has no cell of.
        let mut c = cells();
        c.remove("multihop");
        assert_eq!(failing(c).len(), 1);
    }

    #[test]
    fn missing_series_of_a_surviving_cell_fails_the_flatline_row() {
        let mut c = cells();
        c.get_mut("set1").unwrap().remove("series");
        let bad = failing(c);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("matrix.rampup.flatline.rate"), "{bad:?}");
        // The exempt families' series are not read.
        let mut c = cells();
        c.get_mut("fault").unwrap().remove("series");
        c.get_mut("adversarial").unwrap().remove("series");
        assert!(failing(c).is_empty());
    }
}
