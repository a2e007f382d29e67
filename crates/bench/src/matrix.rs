//! The unified evaluation matrix and the reports read from it: every scenario
//! family (Set I/II grids, Set III faults, synthetic Internet paths, pinned
//! Set IV adversarial genomes, multi-bottleneck topologies, intra-scheme
//! fairness) x the roster x one seed, as one declarative [`matrix_spec`].
//!
//! The `matrix`, `slo`, `fairness` and `set3` rows of [`crate::figures::TABLE`]
//! read the one run [`Ctx::matrix`] makes; `adv` runs the adversarial search.
//! Every output is byte-identical at every `SAGE_THREADS`
//! (`crates/eval/tests/{matrix,adv}_differential.rs`), and the `slo` row fails
//! on any SLO breach, so `scripts/check.sh` gates on it.

use crate::ctx::Ctx;
use crate::{heuristics, table, SEED};
use sage_eval::adversary::{report_json, search, AdvConfig};
use sage_eval::matrix::{
    matrix_json, scenario_fairness, scenarios_adversarial, scenarios_fault, scenarios_internet,
    scenarios_multihop, scenarios_set12, Family, MatrixCell, MatrixSpec,
};
use sage_eval::runner::Contender;
use sage_eval::set3::summarise;
use sage_util::Json;
use std::fmt::Write as _;

/// Rollout seconds of the non-fairness families: long enough for
/// slow-ramping learned policies to leave the startup phase (the full figs
/// run 15 s).
const SECS: f64 = 12.0;

/// The matrix's heuristic roster; `sage` follows them.
const ROSTER: [&str; 8] = [
    "cubic", "bbr2", "vegas", "westwood", "yeah", "copa", "illinois", "newreno",
];

/// The evaluation matrix: [`ROSTER`] then `sage`, through every family in a
/// fixed order (Set I/II, faults, internet, adversarial, multihop, fairness).
pub fn matrix_spec(sage: Contender) -> MatrixSpec {
    let mut scenarios = scenarios_set12(6, 3, SECS, SEED);
    scenarios.extend(scenarios_fault(None, SECS));
    scenarios.extend(scenarios_internet(2, SECS, SEED));
    scenarios.extend(scenarios_adversarial(SECS));
    scenarios.extend(scenarios_multihop(SECS));
    scenarios.push(scenario_fairness(4, 24.0, 5.0));
    // High contention: 64 self-flows pile onto the same bottleneck with a
    // near-simultaneous start.
    scenarios.push(scenario_fairness(64, 12.0, 0.05));
    let mut schemes = heuristics(ROSTER);
    schemes.push(sage);
    MatrixSpec {
        schemes,
        scenarios,
        seeds: vec![SEED],
        alpha: 2.0,
        threads: 0,
    }
}

/// Drop-rate ceiling per scenario family, percent of transmissions. The
/// ceilings sit 4 (fairness) to 38 (set2) points above the worst cells of
/// the committed roster, which `OBS_slo.json` records per family: they catch
/// a family sliding towards total loss, not a regression of a few points.
/// They are not yet set from the heuristics' healthy range.
const FAMILY_LOSS_CEILING: [(Family, f64); 7] = [
    (Family::SetI, 95.0),
    (Family::SetII, 99.0),
    (Family::Fault, 95.0),
    (Family::Internet, 98.5),
    (Family::Adversarial, 95.0),
    (Family::MultiHop, 95.0),
    (Family::Fairness, 98.0),
];

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

    fn op(&self) -> &'static str {
        if self.upper {
            "<="
        } else {
            ">="
        }
    }
}

/// The SLO table: cell completion and survival rates, the worst drop rate
/// per family (NaN, which passes no comparison, for a family with no
/// cells), and ramp-up sanity from the per-cell series.
fn matrix_slos(cells: &[MatrixCell]) -> Vec<SloRow> {
    let n = cells.len().max(1) as f64;
    let rate = |f: fn(&MatrixCell) -> bool| cells.iter().filter(|c| f(c)).count() as f64 / n;
    let mut slos = vec![
        SloRow {
            id: "matrix.completed.rate",
            desc: "fraction of matrix cells that ran without panicking".into(),
            upper: false,
            value: rate(|c| c.completed),
            threshold: 1.0,
        },
        SloRow {
            id: "matrix.survived.rate",
            desc: "fraction of matrix cells that delivered at least one packet".into(),
            upper: false,
            value: rate(|c| c.survived),
            threshold: 0.95,
        },
    ];
    for (family, ceiling) in FAMILY_LOSS_CEILING {
        slos.push(SloRow {
            id: "matrix.drop.rate",
            desc: format!("worst-cell drop rate in the `{}` family, %", family.name()),
            upper: true,
            value: cells
                .iter()
                .filter(|c| c.family == family)
                .map(|c| c.loss_pct)
                .reduce(f64::max)
                .unwrap_or(f64::NAN),
            threshold: ceiling,
        });
    }
    // Every surviving cell's late-window (last quarter) throughput series
    // must stay positive — a flow that survived but flatlined is a breach
    // the end-state scalars cannot see. The intentionally pathological
    // families are exempt: adversarial genomes are searched specifically to
    // starve flows, and the harsh fault grids (burst loss, blackouts) stall
    // them by design — a late flatline there is the scenario working.
    let judged: Vec<&MatrixCell> = cells
        .iter()
        .filter(|c| c.survived && !matches!(c.family, Family::Adversarial | Family::Fault))
        .collect();
    let flatlined = judged
        .iter()
        .filter(|c| {
            let thr = c
                .series
                .iter()
                .find(|(name, _)| *name == "thr_mbps")
                .map_or(&[][..], |(_, v)| v);
            thr[thr.len() - thr.len() / 4..].iter().sum::<f64>() <= 0.0
        })
        .count();
    slos.push(SloRow {
        id: "matrix.rampup.flatline.rate",
        desc: "surviving cells whose last-quarter throughput series is zero".into(),
        upper: true,
        value: flatlined as f64 / judged.len().max(1) as f64,
        threshold: 0.0,
    });
    slos
}

/// `FAIRNESS_trace.md`: which flows of each fairness-family cell starved,
/// and the span ids the flight recorder files them under.
pub(crate) fn fairness(ctx: &mut Ctx, out: &mut String) -> Result<(), String> {
    out.push_str(
        "# Fairness trace\n\n\
         Flows of the fairness-family matrix cells whose mean goodput fell\n\
         below 50% of their cell's per-flow mean (\"starved\"). Flow `k` of a\n\
         cell carries flight-recorder span `cell_span_base(scenario, scheme,\n\
         seed) + k + 1`. Only a cell that panics writes a flight dump (with\n\
         `SAGE_RECORD` armed, to `FLIGHT_panic.jsonl`; `sage_trace <dump>\n\
         <span-hex>` then prints a flow's queue/drop/retx timeline), so the\n\
         starved flows below, all from completed cells, have no timeline on\n\
         disk.\n\n\
         | scheme | scenario | jain | starved flows (goodput Mbit/s) |\n\
         |---|---|---|---|\n",
    );
    for c in &ctx.matrix()?.1.cells {
        let goodputs = &c.flow_goodputs;
        if c.family != Family::Fairness || goodputs.is_empty() {
            continue;
        }
        let mean = goodputs.iter().sum::<f64>() / goodputs.len() as f64;
        let starved: Vec<String> = goodputs
            .iter()
            .enumerate()
            .filter(|(_, &g)| g < 0.5 * mean)
            .map(|(k, &g)| format!("{k} ({g:.2})"))
            .collect();
        let _ = writeln!(
            out,
            "| {} | {} | {:.3} | {} |",
            c.scheme,
            c.scenario,
            c.fairness,
            if starved.is_empty() {
                "none".to_string()
            } else {
                starved.join(", ")
            }
        );
    }
    Ok(())
}

/// `EVAL_matrix.json`: per-cell metrics and per-scenario scheme rankings.
pub(crate) fn matrix_report(ctx: &mut Ctx, out: &mut String) -> Result<(), String> {
    let run = ctx.matrix()?;
    out.push_str(&matrix_json(&run.0, &run.1).to_string());
    Ok(())
}

/// `OBS_slo.json`: the SLO table over the matrix's cells. A breach fails the
/// row, naming every failing objective, and keeps the committed file.
pub(crate) fn slo(ctx: &mut Ctx, out: &mut String) -> Result<(), String> {
    let slos = matrix_slos(&ctx.matrix()?.1.cells);
    let breaches: Vec<String> = slos
        .iter()
        .filter(|s| !s.pass())
        .map(|s| {
            format!(
                "{} = {} is not {} {} ({})",
                s.id,
                s.value,
                s.op(),
                s.threshold,
                s.desc
            )
        })
        .collect();
    if !breaches.is_empty() {
        return Err(format!(
            "{} SLO breach(es): {}",
            breaches.len(),
            breaches.join("; ")
        ));
    }
    let rows = slos.iter().map(|s| {
        Json::obj(vec![
            ("id", Json::str(s.id)),
            ("desc", Json::str(s.desc.clone())),
            ("op", Json::str(s.op())),
            ("value", Json::Num(s.value)),
            ("threshold", Json::Num(s.threshold)),
            ("pass", Json::Bool(s.pass())),
        ])
    });
    let report = Json::obj(vec![
        ("suite", Json::str("obs_slo")),
        ("enforced", Json::Bool(true)),
        ("breaches", Json::Num(0.0)),
        ("slos", Json::Arr(rows.collect())),
    ]);
    out.push_str(&report.to_string());
    Ok(())
}

/// Set III: the fault family's cells, each scheme judged against its own
/// `s3-clean` cell, most robust first.
pub(crate) fn set3(ctx: &mut Ctx, out: &mut String) -> Result<(), String> {
    let rows: Vec<Vec<String>> = summarise(&ctx.matrix()?.1.cells)
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
    let header = [
        "scheme",
        "survived",
        "mean degr",
        "worst degr",
        "mean retx",
        "restarts",
    ];
    table(out, "Set III summary (most robust first)", &header, &rows);
    Ok(())
}

/// `ADV_hardest.json`: the scenarios where `sage` trails the best of the
/// strongest loss-, model- and delay-based pool schemes most.
pub(crate) fn adv(ctx: &mut Ctx, out: &mut String) -> Result<(), String> {
    let cfg = AdvConfig {
        budget: 64,
        secs: 6.0,
        seed: SEED,
        ..AdvConfig::default()
    };
    let roster = heuristics(["cubic", "bbr2", "vegas", "newreno"]);
    let report = search(&cfg, &ctx.sage_contender()?, &roster, |d, t| {
        sage_obs::obs_info!("  {d}/{t} candidates");
    });
    out.push_str(&report_json(&cfg, &report).to_string());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_eval::ScoreKind;

    /// A healthy surviving single-flow cell of `family`.
    fn cell(family: Family) -> MatrixCell {
        MatrixCell {
            scheme: "cubic".into(),
            scenario: family.name().into(),
            family,
            seed: 0,
            completed: true,
            survived: true,
            kind: ScoreKind::Power,
            intervals: Vec::new(),
            intervals_alpha3: Vec::new(),
            score: 0.0,
            goodput_mbps: 8.0,
            avg_owd_ms: 0.0,
            p95_owd_ms: 0.0,
            loss_pct: 2.5,
            retx_pct: 0.0,
            restarts: 0,
            lost_pkts: 0,
            fairness: 1.0,
            flow_goodputs: vec![8.0],
            series: vec![("thr_mbps", vec![0.5, 4.0, 8.0, 8.0])],
            digest: 0,
        }
    }

    /// One healthy cell per family.
    fn cells() -> Vec<MatrixCell> {
        FAMILY_LOSS_CEILING.map(|(f, _)| cell(f)).to_vec()
    }

    fn of(cells: &mut [MatrixCell], family: Family) -> &mut MatrixCell {
        cells.iter_mut().find(|c| c.family == family).unwrap()
    }

    /// `id: desc` of every failing row.
    fn failing(cells: &[MatrixCell]) -> Vec<String> {
        matrix_slos(cells)
            .iter()
            .filter(|s| !s.pass())
            .map(|s| format!("{}: {}", s.id, s.desc))
            .collect()
    }

    #[test]
    fn well_formed_matrix_has_ten_rows_and_no_breach() {
        let slos = matrix_slos(&cells());
        assert_eq!(slos.len(), 10);
        assert!(slos.iter().all(SloRow::pass));
    }

    #[test]
    fn a_cell_above_its_familys_drop_ceiling_breaches() {
        let mut c = cells();
        of(&mut c, Family::Internet).loss_pct = 98.6;
        assert_eq!(
            failing(&c),
            ["matrix.drop.rate: worst-cell drop rate in the `internet` family, %"]
        );
    }

    #[test]
    fn a_dead_cell_breaches_completion_and_survival() {
        let mut c = cells();
        let dead = of(&mut c, Family::SetI);
        (dead.completed, dead.survived, dead.series) = (false, false, Vec::new());
        let bad = failing(&c);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[0].starts_with("matrix.completed.rate"), "{bad:?}");
        assert!(bad[1].starts_with("matrix.survived.rate"), "{bad:?}");
    }

    #[test]
    fn a_surviving_cell_that_flatlines_late_breaches() {
        let mut c = cells();
        of(&mut c, Family::SetII).series = vec![("thr_mbps", vec![0.5, 4.0, 8.0, 0.0])];
        let bad = failing(&c);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("matrix.rampup.flatline.rate"), "{bad:?}");
        // The exempt families may flatline.
        let mut c = cells();
        for family in [Family::Fault, Family::Adversarial] {
            of(&mut c, family).series = vec![("thr_mbps", vec![0.0; 4])];
        }
        assert!(failing(&c).is_empty());
    }

    #[test]
    fn a_family_with_no_cells_reads_nan_and_breaches() {
        let mut c = cells();
        c.retain(|c| c.family != Family::MultiHop);
        let slos = matrix_slos(&c);
        let bad: Vec<&SloRow> = slos.iter().filter(|s| !s.pass()).collect();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].value.is_nan());
        assert!(bad[0].desc.contains("`multihop`"), "{}", bad[0].desc);
    }
}
