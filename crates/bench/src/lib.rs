//! Shared harness code for the experiment binaries: canonical environment
//! sets, artifact paths, training configurations and league projections —
//! so every figure regenerates from the same pipeline artifacts. The figures
//! themselves are the rows of [`figures::TABLE`], run through a [`ctx::Ctx`].

pub mod ctx;
pub mod figures;

use sage_collector::{training_envs, EnvSpec, Pool, SetKind};
use sage_core::{CrrConfig, CrrTrainer, NetConfig, SageModel};
use sage_eval::league::{rank_league, LeagueEntry};
use sage_eval::matrix::{league_scores, run_matrix, Family, MatrixCell, MatrixSpec, ScenarioSpec};
use sage_eval::runner::Contender;
use sage_gr::GrConfig;
use sage_netsim::link::LinkModel;
use sage_netsim::time::from_secs;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Root directory for pipeline artifacts (pool, models, results).
pub fn artifacts_dir() -> PathBuf {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    std::fs::create_dir_all(&p).ok();
    p
}

/// `artifacts/results/`, created on demand — every figure/bench report and
/// obs export lands here.
pub fn results_dir() -> PathBuf {
    let p = artifacts_dir().join("results");
    std::fs::create_dir_all(&p).ok();
    p
}

/// Write a JSON report under `artifacts/results/` through the atomic
/// temp+rename writer, so a partially written artifact can never be
/// observed mid-run. Returns the full path.
pub fn write_report(name: &str, json: &sage_util::Json) -> PathBuf {
    let path = results_dir().join(name);
    sage_util::fsio::atomic_write(&path, json.to_string().as_bytes())
        .unwrap_or_else(|e| panic!("write report {}: {e}", path.display()));
    path
}

pub fn pool_path() -> PathBuf {
    artifacts_dir().join("pool.bin")
}

pub fn model_path(name: &str) -> PathBuf {
    artifacts_dir().join(format!("{name}.model"))
}

/// Master seed for the reproduction pipeline.
pub const SEED: u64 = 2023;

/// Scale knobs, overridable through environment variables so the same
/// binaries support both smoke runs and full runs:
/// `SAGE_SET1`, `SAGE_SET2` (env counts), `SAGE_SECS` (env duration),
/// `SAGE_STEPS` (training steps); README's knob table lists every name a bin
/// reads. Unset means `default`; a value that is set but does not parse ends
/// the process, so a typo can never run — and label — the default experiment.
pub fn envvar(name: &str, default: usize) -> usize {
    let raw = std::env::var_os(name);
    let text = raw.as_ref().map(|v| v.to_string_lossy());
    parse_knob(name, text.as_deref(), default).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

fn parse_knob(name: &str, text: Option<&str>, default: usize) -> Result<usize, String> {
    match text {
        None => Ok(default),
        Some(t) => t
            .parse()
            .map_err(|_| format!("{name}={t:?} is not a non-negative integer")),
    }
}

/// Seconds per rollout of the training grid unless `SAGE_SECS` says otherwise.
pub const GRID_SECS: usize = 15;

/// The scale in force for a caller whose own counts are `set1` + `set2`
/// environments: `[Set I count, Set II count, seconds per rollout]` after the
/// `SAGE_SET1` / `SAGE_SET2` / `SAGE_SECS` overrides.
pub fn grid_scale(set1: usize, set2: usize) -> [usize; 3] {
    [
        envvar("SAGE_SET1", set1),
        envvar("SAGE_SET2", set2),
        envvar("SAGE_SECS", GRID_SECS),
    ]
}

/// The seeded subsample of the Set I/II training grid at `scale`.
pub fn grid_envs([set1, set2, secs]: [usize; 3]) -> Vec<EnvSpec> {
    training_envs(set1, set2, secs as f64, SEED)
}

/// The canonical environment set of pool collection: 36 + 18 environments.
/// The winning-rate figures evaluate on seeded subsamples of the same grid
/// (the paper evaluates winning rates over the Set I/II environments
/// themselves); each row of [`figures::TABLE`] carries its counts.
pub fn default_envs() -> Vec<EnvSpec> {
    grid_envs(grid_scale(36, 18))
}

/// The default GR timescales (§7.4 mix).
pub fn default_gr() -> GrConfig {
    GrConfig::default()
}

/// Default training configuration for the reproduction-scale Sage.
pub fn default_train_cfg() -> CrrConfig {
    CrrConfig {
        net: NetConfig::default(),
        batch: 16,
        unroll: 8,
        seed: SEED,
        ..CrrConfig::default()
    }
}

/// `steps` CRR steps under `cfg` on `pool`, from scratch.
pub fn train_crr(cfg: CrrConfig, steps: u64, pool: &Pool) -> SageModel {
    let mut tr = CrrTrainer::new(cfg, pool);
    tr.train(pool, steps, |_, _| {});
    tr.into_model()
}

/// A single-flow, tail-drop, loss-free, single-bottleneck Set I environment
/// seeded with [`SEED`] — the common shape of the hand-built figure
/// scenarios, which override the odd field with struct-update syntax.
pub fn single_flow_env(
    id: impl Into<String>,
    link: LinkModel,
    rtt_ms: f64,
    buffer_bytes: u64,
    secs: f64,
    capacity_mbps: f64,
) -> EnvSpec {
    EnvSpec {
        id: id.into(),
        set: SetKind::SetI,
        link,
        rtt_ms,
        buffer_bytes,
        aqm: sage_netsim::aqm::AqmKind::TailDrop,
        random_loss: 0.0,
        duration: from_secs(secs),
        competing_cubic: 0,
        test_flow_start: 0,
        capacity_mbps,
        seed: SEED,
        faults: sage_netsim::faults::FaultPlan::default(),
        topology: sage_netsim::Topology::single(),
        self_flows: 1,
        self_stagger: 0,
    }
}

/// Append a row-oriented results table with a header to `out`.
pub fn table(out: &mut String, title: &str, header: &[&str], rows: &[Vec<String>]) {
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(out, "{}", header.join("\t"));
    for r in rows {
        let _ = writeln!(out, "{}", r.join("\t"));
    }
}

/// [`table`] to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut out = String::new();
    table(&mut out, title, header, rows);
    print!("{out}");
}

/// Run `schemes` through `envs` on the evaluation matrix at the pipeline's
/// settings — Power exponent 2, the master seed, the configured worker
/// count — logging progress every 100 cells. Every figure that rolls
/// contenders through environments goes through here.
pub fn evaluate(schemes: &[Contender], envs: &[EnvSpec]) -> Vec<MatrixCell> {
    let spec = MatrixSpec {
        schemes: schemes.to_vec(),
        scenarios: envs.iter().cloned().map(ScenarioSpec::from_env).collect(),
        seeds: vec![SEED],
        alpha: 2.0,
        threads: 0,
    };
    let report = run_matrix(&spec, |d, t| {
        if d % 100 == 0 {
            sage_obs::obs_info!("  {d}/{t}");
        }
    });
    report.cells
}

/// Heuristic schemes, by name, as league contenders.
pub fn heuristics(names: impl IntoIterator<Item = &'static str>) -> Vec<Contender> {
    names.into_iter().map(Contender::Heuristic).collect()
}

/// `model`, observing through `gr_cfg`, as the league contender `name`.
pub fn learned(name: &'static str, model: Arc<SageModel>, gr_cfg: GrConfig) -> Contender {
    Contender::Model {
        name,
        model,
        gr_cfg,
    }
}

/// A winning rate as the tables print it.
pub fn pct(rate: f64) -> String {
    format!("{:.2}%", rate * 100.0)
}

/// Append one ranked league as a `scheme / winning rate` table.
pub fn league_table(out: &mut String, title: &str, league: &[LeagueEntry]) {
    let rows: Vec<Vec<String>> = league
        .iter()
        .map(|e| vec![e.scheme.clone(), pct(e.winning_rate)])
        .collect();
    table(out, title, &["scheme", "winning rate"], &rows);
}

/// Append league tables from evaluation-matrix cells at both winning margins
/// (10% default and 5% for Fig. 20/21) for the Set I/II families and, for
/// Set I, also at alpha = 3 (Tables 2/3).
pub fn league_tables(out: &mut String, cells: &[MatrixCell], label: &str) {
    for (family, set_label) in [(Family::SetI, "Set I"), (Family::SetII, "Set II")] {
        let scores = league_scores(cells, family, false);
        if scores.is_empty() {
            continue;
        }
        for margin in [0.10, 0.05] {
            let title = format!("{label} — {set_label}, margin {:.0}%", margin * 100.0);
            league_table(out, &title, &rank_league(&scores, margin));
        }
        // alpha = 3 variant of the Power score (Tables 2/3).
        if family == Family::SetI {
            let title = format!("{label} — Set I, alpha=3 (r^3/d), margin 10%");
            let alpha3 = rank_league(&league_scores(cells, family, true), 0.10);
            league_table(out, &title, &alpha3);
        }
    }
}

/// The `(Set I, Set II)` winning rate (10% margin) of each of `names` in the
/// leagues `cells` hold. Each set is ranked from the cells of its own family;
/// a name with no cell in a family reads 0 there.
pub fn winning_rates(cells: &[MatrixCell], names: &[&str]) -> Vec<(f64, f64)> {
    let [set1, set2] = [Family::SetI, Family::SetII]
        .map(|family| rank_league(&league_scores(cells, family, false), 0.10));
    let rate = |league: &[LeagueEntry], name: &str| {
        let entry = league.iter().find(|e| e.scheme == name);
        entry.map_or(0.0, |e| e.winning_rate)
    };
    names
        .iter()
        .map(|name| (rate(&set1, name), rate(&set2, name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_eval::score::{ScoreKind, INTERVALS};

    #[test]
    fn knob_parse_rejects_what_it_cannot_read() {
        assert_eq!(parse_knob("SAGE_SECS", None, 15), Ok(15));
        assert_eq!(parse_knob("SAGE_SECS", Some("10"), 15), Ok(10));
        for bad in ["1O", "", " 3", "-1", "2.5"] {
            let err = parse_knob("SAGE_SECS", Some(bad), 15).unwrap_err();
            assert!(err.contains("SAGE_SECS") && err.contains(bad), "{err}");
        }
    }

    /// A league cell scoring `score` in every interval: Set I cells carry
    /// Power scores (higher wins), Set II cells friendliness distances (lower
    /// wins).
    fn cell(scheme: &str, scenario: &str, family: Family, score: f64) -> MatrixCell {
        MatrixCell {
            scheme: scheme.into(),
            scenario: scenario.into(),
            family,
            seed: SEED,
            completed: true,
            survived: true,
            kind: match family {
                Family::SetII => ScoreKind::Friendliness,
                _ => ScoreKind::Power,
            },
            intervals: vec![score; INTERVALS],
            intervals_alpha3: vec![score; INTERVALS],
            score,
            goodput_mbps: 0.0,
            avg_owd_ms: 0.0,
            p95_owd_ms: 0.0,
            loss_pct: 0.0,
            retx_pct: 0.0,
            restarts: 0,
            lost_pkts: 0,
            fairness: 1.0,
            flow_goodputs: Vec::new(),
            series: Vec::new(),
            digest: 0,
        }
    }

    #[test]
    fn winning_rates_score_each_set_from_its_own_family() {
        let cells = vec![
            // Set I: `a` wins e1, `b` wins e2.
            cell("a", "e1", Family::SetI, 10.0),
            cell("b", "e1", Family::SetI, 5.0),
            cell("a", "e2", Family::SetI, 1.0),
            cell("b", "e2", Family::SetI, 9.0),
            // Set II (distance to the fair share): `b` wins the only env.
            cell("a", "f1", Family::SetII, 3.0),
            cell("b", "f1", Family::SetII, 0.1),
            // Another family's cells take part in neither league.
            cell("a", "x1", Family::Fairness, 100.0),
        ];
        let rates = winning_rates(&cells, &["a", "b", "nobody"]);
        assert_eq!(rates, [(0.5, 0.0), (0.5, 1.0), (0.0, 0.0)]);
        assert_eq!(
            (pct(rates[1].0), pct(rates[2].1)),
            ("50.00%".into(), "0.00%".into())
        );
    }

    #[test]
    fn a_cell_that_did_not_complete_never_wins() {
        // The dead cells carry the best-looking numbers of either kind.
        let mut dead1 = cell("dead", "e1", Family::SetI, 1e9);
        let mut dead2 = cell("dead", "f1", Family::SetII, 0.0);
        dead1.completed = false;
        dead2.completed = false;
        let cells = vec![
            dead1,
            cell("live", "e1", Family::SetI, 1.0),
            dead2,
            cell("live", "f1", Family::SetII, 7.0),
        ];
        let rates = winning_rates(&cells, &["dead", "live"]);
        assert_eq!(rates, [(0.0, 0.0), (1.0, 1.0)]);
    }
}
