//! Shared harness code for the experiment binaries: canonical environment
//! sets, the in-process pool, artifact paths, training configurations and
//! league projections — so every figure regenerates from the same pipeline.
//! The figures themselves are the rows of [`figures::TABLE`], run through a
//! [`ctx::Ctx`].

pub mod ctx;
pub mod figures;
pub mod matrix;

use sage_collector::{collect_pool, training_envs, EnvSpec, Pool};
use sage_core::{CrrConfig, CrrTrainer, SageModel};
use sage_eval::league::{rank_league, LeagueEntry};
use sage_eval::matrix::{
    league_scores, run_matrix, Family, MatrixCell, MatrixReport, MatrixSpec, ScenarioSpec,
};
use sage_eval::runner::Contender;
use sage_gr::GrConfig;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Root directory for pipeline artifacts (model, benchmark fixture, results).
pub fn artifacts_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../artifacts")
}

/// The committed model `train_sage` writes and the figures deploy.
pub fn sage_model_path() -> PathBuf {
    artifacts_dir().join("sage.model")
}

/// Master seed for the reproduction pipeline.
pub const SEED: u64 = 2023;

/// Seconds per rollout of the training grid and of every figure's
/// evaluation grid.
pub const GRID_SECS: usize = 15;

/// The scale of the one pool `train_sage` trains `sage.model` from and the
/// figures' `Ctx::pool` hands their variants: 36 Set I + 18 Set II
/// environments of [`GRID_SECS`] each.
pub const POOL_SCALE: [usize; 3] = [36, 18, GRID_SECS];

/// The seeded subsample of the Set I/II training grid at `scale`.
pub fn grid_envs([set1, set2, secs]: [usize; 3]) -> Vec<EnvSpec> {
    training_envs(set1, set2, secs as f64, SEED)
}

/// The pool of policies (paper §5): the 13 pool heuristics rolled through
/// the training grid at `scale` ([`POOL_SCALE`] for every model the
/// pipeline trains), observed through `gr`, seeded with [`SEED`] — collected
/// in process, byte-identical at every worker count.
pub fn pool(scale: [usize; 3], gr: GrConfig) -> Pool {
    let envs = grid_envs(scale);
    let schemes = sage_heuristics::pool_names();
    sage_obs::obs_info!(
        "collecting pool: {} envs x {} schemes ({} rollouts)",
        envs.len(),
        schemes.len(),
        envs.len() * schemes.len()
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "progress timing only — feeds the log lines, never the pool"
    )]
    let t0 = Instant::now();
    collect_pool(&envs, &schemes, gr, SEED, |done, total| {
        if done % 50 == 0 || done == total {
            let secs = t0.elapsed().as_secs_f64();
            sage_obs::obs_info!("  {done}/{total} ({secs:.0} s)");
        }
    })
}

/// Default training configuration for the reproduction-scale Sage.
pub fn default_train_cfg() -> CrrConfig {
    CrrConfig {
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

/// Append a row-oriented results table with a header to `out`.
pub fn table(out: &mut String, title: &str, header: &[&str], rows: &[Vec<String>]) {
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(out, "{}", header.join("\t"));
    for r in rows {
        let _ = writeln!(out, "{}", r.join("\t"));
    }
}

/// Run `schemes` through `envs` on the evaluation matrix at the pipeline's
/// settings — Power exponent 2, the master seed, the configured worker
/// count — logging progress every 100 cells. Every figure that reads a
/// contender's metrics goes through here; the ones that read its trajectory
/// call `Contender::rollout`.
pub fn evaluate(schemes: &[Contender], envs: &[EnvSpec]) -> Vec<MatrixCell> {
    let spec = MatrixSpec {
        schemes: schemes.to_vec(),
        scenarios: envs.iter().cloned().map(ScenarioSpec::from_env).collect(),
        seeds: vec![SEED],
        alpha: 2.0,
        threads: 0,
    };
    run_logged(&spec).cells
}

/// `spec` through `run_matrix`, logging progress every 100 cells.
pub fn run_logged(spec: &MatrixSpec) -> MatrixReport {
    run_matrix(spec, |d, t| {
        if d % 100 == 0 {
            sage_obs::obs_info!("  {d}/{t}");
        }
    })
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
