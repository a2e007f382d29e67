//! Shared harness code for the experiment binaries: canonical environment
//! sets, artifact paths, training configurations and league definitions —
//! so every figure regenerates from the same pipeline artifacts.

use sage_collector::{collect_pool, training_envs, EnvSpec, Pool, SetKind};
use sage_core::baselines::OracleCc;
use sage_core::online::OnlineRlTrainer;
use sage_core::{CrrConfig, CrrTrainer, NetConfig, SageModel};
use sage_eval::matrix::{run_matrix, MatrixCell, MatrixSpec, ScenarioSpec};
use sage_eval::runner::Contender;
use sage_eval::score::{interval_scores, ScoreKind};
use sage_gr::GrConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

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

/// The canonical environment set used for pool collection AND for the
/// Fig. 1/7/9/10 winning-rate evaluations (the paper evaluates winning rates
/// over the Set I/II environments themselves).
pub fn default_envs() -> Vec<EnvSpec> {
    let set1 = envvar("SAGE_SET1", 36);
    let set2 = envvar("SAGE_SET2", 18);
    let secs = envvar("SAGE_SECS", 15) as f64;
    training_envs(set1, set2, secs, SEED)
}

/// The default GR timescales (§7.4 mix).
pub fn default_gr() -> GrConfig {
    GrConfig::default()
}

/// The 13 pool schemes.
pub fn pool_schemes() -> Vec<&'static str> {
    sage_heuristics::pool_names()
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

/// Every model a figure retrains: load `artifacts/<name>.model`, or — when
/// no such file exists — build it with `train`, save it there and load it
/// back. The closure runs only on that second path, so whatever it needs (a
/// pool to load or collect, online rollouts) costs nothing on a later run.
/// The file records nothing of what trained it, so a changed pool, step
/// count or recipe needs it deleted; `run_experiments.sh` starts by deleting
/// every model but the committed `sage*` ones.
pub fn load_or_train(name: &str, train: impl FnOnce() -> SageModel) -> Arc<SageModel> {
    let path = model_path(name);
    if !path.exists() {
        let t0 = Instant::now();
        train()
            .save_file(&path)
            .unwrap_or_else(|e| panic!("save {}: {e}", path.display()));
        println!("trained {name} ({:.0} s)", t0.elapsed().as_secs_f64());
    }
    let model = SageModel::load_file(&path);
    Arc::new(model.unwrap_or_else(|e| panic!("load {}: {e}", path.display())))
}

/// `steps` CRR steps under `cfg` on `pool`, from scratch.
pub fn train_crr(cfg: CrrConfig, steps: u64, pool: &Pool) -> SageModel {
    let mut tr = CrrTrainer::new(cfg, pool);
    tr.train(pool, steps, |_, _| {});
    tr.into_model()
}

/// The ML-league comparators of §6.2 (Fig. 9/11) at reproduction scale,
/// `SAGE_BASELINE_STEPS` gradient steps each, through [`load_or_train`]:
///
/// * `bc` — behavioral cloning on all 13 schemes; `bc_top` — on the top
///   scheme of each set ({vegas, cubic}); `bc_top3` — on the top three of
///   each; `bcv2` — on only the winner trajectory of each environment
/// * `indigo` — BC of BDP-oracle trajectories, Set I only; `indigov2` —
///   Set I + Set II
/// * `onlinerl` — Sage's online off-policy counterpart (self-collected
///   data); `aurora` — online on-policy, single-flow reward, no GRU
/// * `orca` — the hybrid's multiplier (Cubic x learned), R1 only; `orcav2`
///   — retrained with both rewards
///
/// `indigo*`, `onlinerl`, `aurora` and `orca` roll out in [`default_envs`],
/// so `SAGE_SET1`/`SAGE_SET2`/`SAGE_SECS` as seen by the process that first
/// asks for one choose its training set: `run_experiments.sh` runs fig09 —
/// the first to ask — at the defaults (36 + 18 envs), evaluation included.
/// Each recipe that reads the pool loads it itself (one 26 MB read per model
/// trained, nothing against its training).
pub fn comparator(name: &str) -> Arc<SageModel> {
    load_or_train(name, || {
        let steps = envvar("SAGE_BASELINE_STEPS", 3000) as u64;
        let pool = || Pool::load_file(&pool_path()).expect("run collect_pool first");
        let gr = default_gr();
        let envs_of = |sets: &[SetKind]| -> Vec<EnvSpec> {
            let envs = default_envs();
            let of = |set| envs.iter().filter(move |e| e.set == set).cloned();
            sets.iter().copied().flat_map(of).collect()
        };
        let bc = |pool: &Pool| {
            let cfg = CrrConfig {
                bc_only: true,
                ..default_train_cfg()
            };
            train_crr(cfg, steps, pool)
        };
        // Indigo-like: imitate the BDP oracle (half the link in Set II,
        // where one Cubic flow competes).
        let oracle = |sets: &[SetKind]| {
            let mut oracle_pool = Pool::new();
            for env in envs_of(sets) {
                let share = if env.set == SetKind::SetII { 2.0 } else { 1.0 };
                let cca = Box::new(OracleCc::new(env.capacity_mbps / share, env.rtt_ms));
                let res = sage_collector::rollout(&env, "oracle", cca, gr, SEED);
                oracle_pool.trajectories.push(res.traj);
            }
            bc(&oracle_pool)
        };
        let online = |cfg: CrrConfig, envs: &[EnvSpec], on_policy: bool| {
            let (mean, std) = pool().feature_stats();
            let mut tr = OnlineRlTrainer::new(cfg, gr, mean, std, on_policy);
            let iters = 12;
            for _ in 0..iters {
                tr.iterate(envs, 3, steps / iters);
            }
            tr.snapshot_model()
        };
        match name {
            "bc" => bc(&pool()),
            "bc_top" => bc(&pool().filter_schemes(&["vegas", "cubic"])),
            "bc_top3" => {
                bc(&pool().filter_schemes(&["vegas", "bbr2", "yeah", "cubic", "htcp", "bic"]))
            }
            "bcv2" => bc(&winner_pool(&pool())),
            "indigo" => oracle(&[SetKind::SetI]),
            "indigov2" => oracle(&[SetKind::SetI, SetKind::SetII]),
            "onlinerl" => online(default_train_cfg(), &default_envs(), false),
            // Single-flow reward only, so Set I environments only.
            "aurora" => {
                let net = NetConfig {
                    gru: 0,
                    ..NetConfig::default()
                };
                let cfg = CrrConfig {
                    net,
                    ..default_train_cfg()
                };
                online(cfg, &envs_of(&[SetKind::SetI]), true)
            }
            // R1 only: Cubic's own Set I rollouts plus the heuristic pool
            // restricted to Set I.
            "orca" => {
                let set1 = envs_of(&[SetKind::SetI]);
                let mut orca_pool = collect_pool(&set1, &["cubic"], gr, SEED ^ 0x0C, |_, _| {});
                let set1_trajs = pool().trajectories.into_iter().filter(|t| !t.set2);
                orca_pool.trajectories.extend(set1_trajs);
                train_crr(default_train_cfg(), steps, &orca_pool)
            }
            "orcav2" => train_crr(default_train_cfg(), steps, &pool()),
            other => panic!("no comparator recipe named {other:?}"),
        }
    })
}

/// Winner trajectories per environment (for `bcv2`): the scheme with the
/// best mean interval score in each env.
fn winner_pool(pool: &Pool) -> Pool {
    let mut best: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for (i, t) in pool.trajectories.iter().enumerate() {
        let kind = if t.set2 {
            ScoreKind::Friendliness
        } else {
            ScoreKind::Power
        };
        let s = interval_scores(&t.thr, &t.owd, kind, 2.0, t.fair_share_bps);
        let mean = sage_util::mean(&s);
        // Friendliness: lower better -> negate.
        let score = if t.set2 { -mean } else { mean };
        let e = best.entry(&t.env_id).or_insert((f64::NEG_INFINITY, i));
        if score > e.0 {
            *e = (score, i);
        }
    }
    Pool {
        trajectories: best
            .values()
            .map(|&(_, i)| pool.trajectories[i].clone())
            .collect(),
    }
}

/// Print a row-oriented results table with a header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", header.join("\t"));
    for r in rows {
        println!("{}", r.join("\t"));
    }
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

/// Print league tables from evaluation-matrix cells at both winning margins
/// (10% default and 5% for Fig. 20/21) for the Set I/II families and, for
/// Set I, also at alpha = 3 (Tables 2/3).
pub fn print_league_from_cells(cells: &[MatrixCell], label: &str) {
    use sage_eval::league::rank_league;
    use sage_eval::matrix::{league_scores, Family};

    for (family, set_label) in [(Family::SetI, "Set I"), (Family::SetII, "Set II")] {
        let scores = league_scores(cells, family, false);
        if scores.is_empty() {
            continue;
        }
        for margin in [0.10, 0.05] {
            let table = rank_league(&scores, margin);
            let rows: Vec<Vec<String>> = table
                .iter()
                .map(|e| vec![e.scheme.clone(), format!("{:.2}%", e.winning_rate * 100.0)])
                .collect();
            print_table(
                &format!("{label} — {set_label}, margin {:.0}%", margin * 100.0),
                &["scheme", "winning rate"],
                &rows,
            );
        }
        // alpha = 3 variant of the Power score (Tables 2/3).
        if family == Family::SetI {
            let table = rank_league(&league_scores(cells, family, true), 0.10);
            let rows: Vec<Vec<String>> = table
                .iter()
                .map(|e| vec![e.scheme.clone(), format!("{:.2}%", e.winning_rate * 100.0)])
                .collect();
            print_table(
                &format!("{label} — Set I, alpha=3 (r^3/d), margin 10%"),
                &["scheme", "winning rate"],
                &rows,
            );
        }
    }
}

/// Downsample a per-tick series to roughly `n` points of (seconds, value)
/// for time-series figures.
pub fn series(ticks: &[f32], tick_secs: f64, n: usize) -> Vec<(f64, f64)> {
    if ticks.is_empty() {
        return Vec::new();
    }
    let stride = (ticks.len() / n.max(1)).max(1);
    ticks
        .chunks(stride)
        .enumerate()
        .map(|(i, c)| {
            let mean = c.iter().map(|&x| x as f64).sum::<f64>() / c.len() as f64;
            ((i * stride) as f64 * tick_secs, mean)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::parse_knob;

    #[test]
    fn knob_parse_rejects_what_it_cannot_read() {
        assert_eq!(parse_knob("SAGE_SECS", None, 15), Ok(15));
        assert_eq!(parse_knob("SAGE_SECS", Some("10"), 15), Ok(10));
        for bad in ["1O", "", " 3", "-1", "2.5"] {
            let err = parse_knob("SAGE_SECS", Some(bad), 15).unwrap_err();
            assert!(err.contains("SAGE_SECS") && err.contains(bad), "{err}");
        }
    }
}
