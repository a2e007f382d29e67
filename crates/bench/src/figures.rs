//! The paper's evaluation as one table: every figure and table this repo
//! reproduces is a row of [`TABLE`] — a projection of the committed pool and
//! models, written to one file under `artifacts/results/` by the `figures`
//! bin. The paper measures real GENI/AWS paths and Mahimahi emulation; the
//! rows run the simulator (DESIGN.md says what each substitution is).

use crate::ctx::Ctx;
use crate::{
    default_gr, default_train_cfg, evaluate, heuristics, league_table, league_tables, learned, pct,
    single_flow_env, table, train_crr, winning_rates, GRID_SECS, SEED,
};
use sage_collector::{collect_pool, rollout, EnvSpec, Pool, SetKind};
use sage_core::baselines::OracleCc;
use sage_core::online::OnlineRlTrainer;
use sage_core::policy::{ActionMode, SagePolicy};
use sage_core::{CrrConfig, NetConfig, SageModel};
use sage_eval::league::rank_league;
use sage_eval::matrix::{league_scores, scenario_fairness, Family};
use sage_eval::runner::Contender;
use sage_eval::score::{interval_scores, ScoreKind};
use sage_eval::similarity::{similarity_index, DistanceIndex};
use sage_eval::tsne::{tsne, TsneConfig};
use sage_gr::{reward_friendliness, FeatureMask, GrConfig, STATE_DIM};
use sage_heuristics::{build, pool_names};
use sage_netsim::aqm::AqmKind;
use sage_netsim::internet::InternetProfile;
use sage_netsim::link::LinkModel;
use sage_netsim::time::from_secs;
use sage_nn::{Array, Graph};
use sage_transport::sim::NullMonitor;
use sage_transport::{CongestionControl, FlowConfig, SimConfig, Simulation};
use sage_util::{percentile, Rng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A figure either appends its whole output or says which input failed it.
type Res = Result<(), String>;

/// One reproduced figure or table.
pub struct Figure {
    /// What `figures <id>` takes.
    pub id: &'static str,
    /// The paper's figures and tables this row stands for.
    pub paper: &'static str,
    pub about: &'static str,
    /// `(Set I, Set II)` environments sampled from the training grid, or
    /// `None` for a figure that builds its own scenarios.
    pub grid: Option<(usize, usize)>,
    /// Gradient steps for each model the figure trains; 0 if it trains none.
    pub steps: u64,
    /// Output file under `artifacts/results/`.
    pub file: &'static str,
    pub run: fn(&mut Ctx, &mut String) -> Res,
}

impl Figure {
    /// The row's own grid scale: what a committed output must have run at.
    pub fn scale(&self) -> Option<[usize; 3]> {
        self.grid.map(|(set1, set2)| [set1, set2, GRID_SECS])
    }
}

const fn row(
    id: &'static str,
    paper: &'static str,
    grid: Option<(usize, usize)>,
    steps: u64,
    file: &'static str,
    run: fn(&mut Ctx, &mut String) -> Res,
    about: &'static str,
) -> Figure {
    Figure {
        id,
        paper,
        about,
        grid,
        steps,
        file,
        run,
    }
}

/// Every figure, in the order a full run executes them. The smaller grids
/// bound the runtime of the figures that train or roll out per environment;
/// `fig09` keeps the full collection grid because five of its comparators
/// train in the environments it is scored on.
#[rustfmt::skip] // one figure per line: id, paper, grid, steps, file, fn, description
pub static TABLE: [Figure; 18] = [
    row("league", "headline",             Some((36, 18)),    0, "league.txt", league, "sage vs the 13 pool heuristics, Set I and Set II winning rates"),
    row("fig01",  "Fig. 1",               Some((36, 18)),    0, "fig01.txt",  fig01,  "seven heuristics: Set I and Set II rankings are roughly opposite"),
    row("fig05",  "Fig. 5",               None,              0, "fig05.txt",  fig05,  "the friendliness reward R2 over x = rate / fair share"),
    row("fig07",  "Fig. 7",               Some((20, 10)),    0, "fig07.txt",  fig07,  "winning rate of the seven training-day checkpoints vs the pool"),
    row("fig08",  "Fig. 8",               None,              0, "fig08.txt",  fig08,  "normalised delay and throughput on three synthetic Internet regimes"),
    row("fig09",  "Fig. 9, 20; Table 3",  Some((36, 18)), 2000, "fig09.txt",  fig09,  "league of ML designs: BC variants, OnlineRL, Aurora-, Indigo-, Orca-like"),
    row("fig10",  "Fig. 10, 21; Table 2", Some((20, 10)),    0, "fig10.txt",  fig10,  "league of delay-based designs"),
    row("fig11",  "Fig. 11",              None,           2000, "fig11.txt",  fig11,  "distance to the pool of sage, vegas and BC on a 24 -> 96 Mbit/s step"),
    row("fig12",  "Fig. 12",              Some((14, 7)),  1500, "fig12.txt",  fig12,  "ablations: three input masks, no GRU, no encoder, no GMM"),
    row("fig13",  "Fig. 13",              Some((24, 12)),    0, "fig13.txt",  fig13,  "similarity index of sage to each pool scheme in eight environments"),
    row("fig14",  "Fig. 14, 16",          Some((12, 6)),  1500, "fig14.txt",  fig14,  "observation-window granularity: sage_s/m/l, and their hidden-layer t-SNE"),
    row("fig15",  "Fig. 15",              Some((14, 7)),  1500, "fig15.txt",  fig15,  "pool diversity: sage-top and sage-top4 against the full pool"),
    row("fig17",  "Fig. 17",              None,              0, "fig17.txt",  fig17,  "rate, delay and cwnd of sage over a capacity step up, down, and vs cubic"),
    row("fig18",  "Fig. 18, 27",          None,              0, "fig18.txt",  fig18,  "Jain fairness of four staggered flows of one scheme"),
    row("fig19",  "Fig. 19, 28",          None,              0, "fig19.txt",  fig19,  "one test flow against 3 and 7 cubic flows"),
    row("fig22",  "Fig. 22",              None,              0, "fig22.txt",  fig22,  "throughput/delay frontier in a shallow and a deep buffer"),
    row("fig23",  "Fig. 23",              None,              0, "fig23.txt",  fig23,  "robustness to the queue discipline: five AQMs"),
    row("fig24",  "Fig. 24, 25",          None,              0, "fig24.txt",  fig24,  "friendliness vs one cubic flow in a small and a large buffer"),
];

/// The table as `figures --list` prints it.
pub fn list() -> String {
    let mut out = "id\tpaper\tenvs\tsteps\toutput\twhat\n".to_string();
    for f in &TABLE {
        let envs = f.grid.map_or("-".to_string(), |(a, b)| format!("{a}+{b}"));
        let steps = match f.steps {
            0 => "-".to_string(),
            n => n.to_string(),
        };
        let _ = writeln!(
            out,
            "{}\t{}\t{envs}\t{steps}\tartifacts/results/{}\t{}",
            f.id, f.paper, f.file, f.about
        );
    }
    out
}

/// `model` acting deterministically, as every league deploys it.
fn policy(model: &Arc<SageModel>, gr: GrConfig) -> Box<dyn CongestionControl> {
    Box::new(SagePolicy::new(
        model.clone(),
        gr,
        SEED,
        ActionMode::Deterministic,
    ))
}

fn heuristic(name: &str) -> Box<dyn CongestionControl> {
    build(name, SEED).unwrap_or_else(|| panic!("no heuristic named {name:?}"))
}

fn league(ctx: &mut Ctx, out: &mut String) -> Res {
    let cells = ctx.pool_league(Vec::new(), &ctx.envs())?;
    for (family, label) in [
        (Family::SetI, "Set I (single-flow)"),
        (Family::SetII, "Set II (vs Cubic)"),
    ] {
        let ranked = rank_league(&league_scores(&cells, family, false), 0.10);
        league_table(out, label, &ranked);
    }
    Ok(())
}

/// `contenders` through the running figure's grid: an `id: N noun x M envs`
/// line, then the league tables at both margins and alpha = 3.
fn leagues(ctx: &Ctx, out: &mut String, title: &str, noun: &str, contenders: &[Contender]) {
    let (id, envs) = (ctx.fig().id, ctx.envs());
    let _ = writeln!(
        out,
        "{id}: {} {noun} x {} envs",
        contenders.len(),
        envs.len()
    );
    league_tables(out, &evaluate(contenders, &envs), title);
}

fn fig01(ctx: &mut Ctx, out: &mut String) -> Res {
    let contenders = heuristics(["vegas", "yeah", "copa", "bbr2", "cubic", "htcp", "bic"]);
    leagues(ctx, out, "Fig.1 heuristics", "schemes", &contenders);
    Ok(())
}

/// R2 = exp(-8 (x-1)^2), peaked exactly at the ideal fair share.
fn fig05(_: &mut Ctx, out: &mut String) -> Res {
    let _ = writeln!(out, "x=r/fair_share\tR2");
    let fr = 10e6;
    for i in 0..=40 {
        let x = i as f64 * 0.05;
        let _ = writeln!(out, "{x:.2}\t{:.4}", reward_friendliness(x * fr, fr));
    }
    Ok(())
}

fn fig07(ctx: &mut Ctx, out: &mut String) -> Res {
    let envs = ctx.envs();
    let days = (1..=7)
        .map(|day| ctx.model(&format!("sage_d{day}.model")))
        .collect::<Result<Vec<_>, _>>()?;
    // The heuristics' cells do not depend on the checkpoint: run them once
    // and merge each day's cells in (winners are recomputed per league).
    let pool = pool_names();
    let heuristic_cells = evaluate(&heuristics(pool.iter().copied()), &envs);
    let mut names = vec!["sage"];
    names.extend(&pool);
    let mut rows = Vec::new();
    for (day, model) in days.into_iter().enumerate() {
        let mut cells = evaluate(&[learned("sage", model, default_gr())], &envs);
        cells.extend(heuristic_cells.iter().cloned());
        let rates = winning_rates(&cells, &names);
        let best = |set: fn(&(f64, f64)) -> f64| rates[1..].iter().map(set).fold(0.0, f64::max);
        rows.push(vec![
            format!("{}", day + 1),
            pct(rates[0].0),
            pct(best(|r| r.0)),
            pct(rates[0].1),
            pct(best(|r| r.1)),
        ]);
    }
    let header = [
        "day",
        "SetI sage",
        "SetI best-heuristic",
        "SetII sage",
        "SetII best-heuristic",
    ];
    table(
        out,
        "Fig.7 Sage winning rate during training",
        &header,
        &rows,
    );
    Ok(())
}

/// Paths sampled per Internet regime.
const FIG08_PATHS: usize = 6;

fn fig08(ctx: &mut Ctx, out: &mut String) -> Res {
    let mut contenders = vec![ctx.sage_contender()?];
    contenders.extend(heuristics([
        "bbr2", "cubic", "vegas", "westwood", "yeah", "copa", "c2tcp", "sprout", "illinois",
    ]));
    let secs = 12.0;
    let seed = SEED ^ 0xF18;
    for profile in [
        InternetProfile::IntraContinental,
        InternetProfile::InterContinental,
        InternetProfile::Cellular,
    ] {
        let mut rng = Rng::new(seed);
        let envs: Vec<EnvSpec> = (0..FIG08_PATHS)
            .map(|i| {
                let s = profile.sample(&mut rng, from_secs(secs));
                let capacity = s.link.mean_mbps(from_secs(secs));
                EnvSpec {
                    random_loss: s.random_loss,
                    seed: seed + i as u64,
                    ..single_flow_env(
                        format!("{}-{}-{}", profile.name(), i, s.label),
                        s.link,
                        s.rtt_ms,
                        s.buffer_bytes,
                        secs,
                        capacity,
                    )
                }
            })
            .collect();
        let cells = evaluate(&contenders, &envs);
        // Aggregate per scheme; normalise delay by the per-env minimum and
        // throughput by the per-env maximum (as the paper does).
        let mut rows = Vec::new();
        for c in &contenders {
            let mut nd = Vec::new();
            let mut nd95 = Vec::new();
            let mut nt = Vec::new();
            for env in &envs {
                let of_env: Vec<_> = cells.iter().filter(|r| r.scenario == env.id).collect();
                let min_d = of_env
                    .iter()
                    .map(|r| r.avg_owd_ms)
                    .fold(f64::INFINITY, f64::min);
                let max_t = of_env.iter().map(|r| r.goodput_mbps).fold(0.0, f64::max);
                if let Some(r) = of_env.iter().find(|r| r.scheme == c.name()) {
                    nd.push(r.avg_owd_ms / min_d.max(1e-9));
                    nd95.push(r.p95_owd_ms / min_d.max(1e-9));
                    nt.push(r.goodput_mbps / max_t.max(1e-9));
                }
            }
            rows.push(vec![
                c.name().to_string(),
                format!("{:.2}", sage_util::mean(&nd)),
                format!("{:.2}", sage_util::mean(&nd95)),
                format!("{:.2}", sage_util::mean(&nt)),
            ]);
        }
        rows.sort_by(|a, b| b[3].partial_cmp(&a[3]).expect("formatted numbers"));
        table(
            out,
            &format!("Fig.8 {} ({FIG08_PATHS} paths)", profile.name()),
            &["scheme", "norm avg delay", "norm p95 delay", "norm avg thr"],
            &rows,
        );
    }
    Ok(())
}

/// The ML-league comparators of §6.2 (Fig. 9/11) at reproduction scale, the
/// requesting figure's steps each:
///
/// * `bc` — behavioral cloning on all 13 schemes; `bc-top` — on the top
///   scheme of each set ({vegas, cubic}); `bc-top3` — on the top three of
///   each; `bcv2` — on only the winner trajectory of each environment
/// * `indigo` — BC of BDP-oracle trajectories, Set I only; `indigov2` —
///   Set I + Set II
/// * `onlinerl` — Sage's online off-policy counterpart (self-collected
///   data); `aurora` — online on-policy, single-flow reward, no GRU
/// * `orca` — the hybrid's multiplier (Cubic x learned), R1 only; `orcav2`
///   — retrained with both rewards
///
/// `indigo*`, `onlinerl`, `aurora` and `orca` roll out in the requesting
/// figure's environments, so those are part of their key.
fn comparator(ctx: &mut Ctx, name: &str) -> Result<Arc<SageModel>, String> {
    let steps = ctx.fig().steps;
    let rolls_out = matches!(name, "indigo" | "indigov2" | "onlinerl" | "aurora" | "orca");
    let key = match ctx.scale() {
        Some(scale) if rolls_out => format!("{name}/{steps} in {scale:?}"),
        _ => format!("{name}/{steps}"),
    };
    ctx.trained(&key, |ctx| {
        let gr = default_gr();
        let set1 = |ctx: &Ctx| -> Vec<EnvSpec> {
            let envs = ctx.envs().into_iter();
            envs.filter(|e| e.set == SetKind::SetI).collect()
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
        let oracle = |envs: Vec<EnvSpec>| {
            let mut oracle_pool = Pool::new();
            for env in envs {
                let share = if env.set == SetKind::SetII { 2.0 } else { 1.0 };
                let cca = Box::new(OracleCc::new(env.capacity_mbps / share, env.rtt_ms));
                let res = rollout(&env, "oracle", cca, gr, SEED);
                oracle_pool.trajectories.push(res.traj);
            }
            bc(&oracle_pool)
        };
        let online = |pool: &Pool, cfg: CrrConfig, envs: &[EnvSpec], on_policy: bool| {
            let (mean, std) = pool.feature_stats();
            let mut tr = OnlineRlTrainer::new(cfg, gr, mean, std, on_policy);
            let iters = 12;
            for _ in 0..iters {
                tr.iterate(envs, 3, steps / iters);
            }
            tr.snapshot_model()
        };
        Ok(match name {
            "bc" => bc(&*ctx.pool()?),
            "bc-top" => bc(&ctx.pool()?.filter_schemes(&["vegas", "cubic"])),
            "bc-top3" => {
                let top3 = ["vegas", "bbr2", "yeah", "cubic", "htcp", "bic"];
                bc(&ctx.pool()?.filter_schemes(&top3))
            }
            "bcv2" => bc(&winner_pool(&*ctx.pool()?)),
            "indigo" => oracle(set1(ctx)),
            "indigov2" => oracle(ctx.envs()),
            "onlinerl" => online(&*ctx.pool()?, default_train_cfg(), &ctx.envs(), false),
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
                online(&*ctx.pool()?, cfg, &set1(ctx), true)
            }
            // R1 only: Cubic's own Set I rollouts plus the heuristic pool
            // restricted to Set I.
            "orca" => {
                let mut orca_pool =
                    collect_pool(&set1(ctx), &["cubic"], gr, SEED ^ 0x0C, |_, _| {});
                let pool = ctx.pool()?;
                let set1_trajs = pool.trajectories.iter().filter(|t| !t.set2).cloned();
                orca_pool.trajectories.extend(set1_trajs);
                train_crr(default_train_cfg(), steps, &orca_pool)
            }
            "orcav2" => train_crr(default_train_cfg(), steps, &*ctx.pool()?),
            other => panic!("no comparator recipe named {other:?}"),
        })
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

fn fig09(ctx: &mut Ctx, out: &mut String) -> Res {
    let gr_cfg = default_gr();
    let mut contenders = vec![ctx.sage_contender()?];
    for name in [
        "bc", "bc-top", "bc-top3", "bcv2", "onlinerl", "aurora", "indigo", "indigov2",
    ] {
        contenders.push(learned(name, comparator(ctx, name)?, gr_cfg));
    }
    for name in ["orca", "orcav2"] {
        let model = comparator(ctx, name)?;
        contenders.push(Contender::Hybrid {
            name,
            model,
            gr_cfg,
        });
    }
    contenders.push(Contender::Heuristic("vivace"));
    leagues(ctx, out, "Fig.9 ML-based league", "contenders", &contenders);
    Ok(())
}

fn fig10(ctx: &mut Ctx, out: &mut String) -> Res {
    let mut contenders = heuristics(sage_heuristics::delay_league_names());
    contenders.push(ctx.sage_contender()?);
    leagues(
        ctx,
        out,
        "Fig.10 delay-based league",
        "contenders",
        &contenders,
    );
    Ok(())
}

/// Expected shape: vegas ~ 0 (it is in the pool), BC and sage clearly
/// shifted, yet sage performs well.
fn fig11(ctx: &mut Ctx, out: &mut String) -> Res {
    let pool = ctx.pool()?;
    let idx = DistanceIndex::new(&pool.trajectories, 20_000, SEED);
    let _ = writeln!(out, "distance index over {} pool transitions", idx.len());
    let link = LinkModel::Step {
        before_mbps: 24.0,
        after_mbps: 96.0,
        at: from_secs(15.0),
    };
    let env = single_flow_env("fig11-step-24-96", link, 40.0, 480_000, 30.0, 60.0);
    let gr = default_gr();
    let sage = ctx.sage()?;
    let bc = comparator(ctx, "bc")?;
    let bc_policy = SagePolicy::new(bc, gr, SEED, ActionMode::Deterministic).with_name("bc");
    let runs: Vec<(&str, Box<dyn CongestionControl>)> = vec![
        ("vegas", heuristic("vegas")),
        ("sage", policy(&sage, gr)),
        ("bc", Box::new(bc_policy)),
    ];
    let mut rows = Vec::new();
    for (name, cca) in runs {
        let res = rollout(&env, name, cca, gr, SEED);
        let d = idx.distances(&res.traj);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", percentile(&d, 50.0)),
            format!("{:.3}", percentile(&d, 65.0)),
            format!("{:.3}", percentile(&d, 95.0)),
            format!("{:.1}", res.stats.avg_goodput_mbps),
            format!("{:.1}", res.stats.avg_owd_ms),
        ]);
    }
    let header = [
        "scheme", "p50 dist", "p65 dist", "p95 dist", "thr Mbps", "owd ms",
    ];
    let title = "Fig.11 Distance CDF summary + performance";
    table(out, title, &header, &rows);
    Ok(())
}

/// The winning rates of `sage` and then of `variants` (league name, model,
/// the GR windows it observes through) against the pool league in `envs`.
fn variants_vs_pool(
    ctx: &mut Ctx,
    out: &mut String,
    title: &str,
    label: &str,
    variants: &[(&'static str, Arc<SageModel>, GrConfig)],
    envs: &[EnvSpec],
) -> Res {
    let extra = variants
        .iter()
        .map(|(name, model, gr)| learned(name, model.clone(), *gr));
    let cells = ctx.pool_league(extra.collect(), envs)?;
    let mut names = vec!["sage"];
    names.extend(variants.iter().map(|v| v.0));
    let rates = winning_rates(&cells, &names).into_iter();
    let rows: Vec<Vec<String>> = names
        .iter()
        .zip(rates)
        .map(|(name, (set1, set2))| vec![name.to_string(), pct(set1), pct(set2)])
        .collect();
    table(out, title, &[label, "Set I", "Set II"], &rows);
    Ok(())
}

/// Six variants retrained under a shortened regime (§7.3).
fn fig12(ctx: &mut Ctx, out: &mut String) -> Res {
    let base = default_train_cfg();
    let net = base.net;
    let with = |net| CrrConfig { net, ..base };
    let recipes = [
        ("abl_nominmax", with(net.with_mask(FeatureMask::NoMinMax))),
        ("abl_norttvar", with(net.with_mask(FeatureMask::NoRttVar))),
        (
            "abl_nolossinf",
            with(net.with_mask(FeatureMask::NoLossInflight)),
        ),
        ("abl_nogru", with(NetConfig { gru: 0, ..net })),
        ("abl_noencoder", with(NetConfig { enc2: 0, ..net })),
        ("abl_nogmm", with(NetConfig { gmm_k: 1, ..net })),
    ];
    let steps = ctx.fig().steps;
    let mut variants = Vec::new();
    for (name, cfg) in recipes {
        let model = ctx.trained(&format!("{name}/{steps}"), |ctx| {
            Ok(train_crr(cfg, steps, &*ctx.pool()?))
        })?;
        variants.push((name, model, default_gr()));
    }
    let title = "Fig.12 ablations (winning rate vs pool league)";
    variants_vs_pool(ctx, out, title, "variant", &variants, &ctx.envs())
}

/// The paper's point: the most-similar scheme changes across environments,
/// so sage is not a clone of any single heuristic.
fn fig13(ctx: &mut Ctx, out: &mut String) -> Res {
    let model = ctx.sage()?;
    let gr = default_gr();
    let mut rng = Rng::new(SEED ^ 0xF13);
    let mut envs = ctx.envs();
    rng.shuffle(&mut envs);
    envs.truncate(8);

    let schemes = pool_names();
    let mut header = vec!["environment"];
    header.extend(schemes.iter().copied());
    header.push("argmax");
    let mut rows = Vec::new();
    for env in &envs {
        let sage_run = rollout(env, "sage", policy(&model, gr), gr, SEED);
        let mut row = vec![env.id.clone()];
        let mut best = ("-", f64::NEG_INFINITY);
        for s in &schemes {
            let run = rollout(env, s, heuristic(s), gr, SEED);
            let sim = similarity_index(&sage_run.traj, &run.traj);
            if sim > best.1 {
                best = (s, sim);
            }
            row.push(format!("{sim:.3}"));
        }
        row.push(best.0.to_string());
        rows.push(row);
    }
    let title = "Fig.13 Similarity Index of Sage to pool schemes";
    table(out, title, &header, &rows);
    Ok(())
}

/// Pools re-collected with uniform observation windows (Small=10,
/// Medium=200, Large=1000 ticks) train sage_s / sage_m / sage_l (§7.4).
fn fig14(ctx: &mut Ctx, out: &mut String) -> Res {
    let envs = ctx.envs();
    let steps = ctx.fig().steps;
    let scale = ctx.scale();
    let mut variants = Vec::new();
    for (name, window) in [("sage_s", 10), ("sage_m", 200), ("sage_l", 1000)] {
        let gr = GrConfig::uniform(window);
        let model = ctx.trained(&format!("{name}/{steps} in {scale:?}"), |_| {
            let pool = collect_pool(&envs, &pool_names(), gr, SEED, |_, _| {});
            Ok(train_crr(default_train_cfg(), steps, &pool))
        })?;
        variants.push((name, model, gr));
    }
    let title = "Fig.14 granularity (winning rate vs pool league)";
    variants_vs_pool(ctx, out, title, "model", &variants, &envs)?;

    // ---- Fig. 16: t-SNE of the last hidden layer over 7 Set II envs ----
    let set2_envs: Vec<_> = envs
        .iter()
        .filter(|e| e.set == SetKind::SetII)
        .take(7)
        .collect();
    for (name, model, gr) in &variants {
        let mut feats: Vec<Vec<f64>> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        for (ei, env) in set2_envs.iter().enumerate() {
            let run = rollout(env, name, policy(model, *gr), *gr, SEED);
            // Recompute hidden features over the recorded states
            // (subsampled to keep t-SNE O(n^2) small).
            let n = run.traj.len();
            let stride = (n / 30).max(1);
            let mut g = Graph::new();
            let mut h = model.policy.initial_hidden(&mut g, 1);
            for t in 0..n {
                let full: Vec<f64> = run.traj.state(t).iter().map(|&x| x as f64).collect();
                debug_assert_eq!(full.len(), STATE_DIM);
                let xin = g.input(Array::row(model.prepare_input(&full)));
                let (_, h1, trunk) = model
                    .policy
                    .step_with_features(&mut g, &model.store, xin, h);
                h = h1;
                if t % stride == 0 {
                    feats.push(g.value(trunk).data.clone());
                    labels.push(ei);
                }
            }
        }
        let coords = tsne(
            &feats,
            TsneConfig {
                perplexity: 15.0,
                iterations: 300,
                ..Default::default()
            },
        );
        let _ = writeln!(
            out,
            "\n== Fig.16 t-SNE coordinates: {name} (env_idx x y) =="
        );
        for (i, (x, y)) in coords.iter().enumerate() {
            let _ = writeln!(out, "{}\t{x:.2}\t{y:.2}", labels[i]);
        }
        // Cluster-separation diagnostic: silhouette-like ratio.
        let mut intra = (0.0, 0usize);
        let mut inter = (0.0, 0usize);
        for i in 0..coords.len() {
            for j in (i + 1)..coords.len() {
                let d = ((coords[i].0 - coords[j].0).powi(2) + (coords[i].1 - coords[j].1).powi(2))
                    .sqrt();
                let side = if labels[i] == labels[j] {
                    &mut intra
                } else {
                    &mut inter
                };
                side.0 += d;
                side.1 += 1;
            }
        }
        let intra = intra.0 / intra.1.max(1) as f64;
        let inter = inter.0 / inter.1.max(1) as f64;
        let _ = writeln!(
            out,
            "{name}: mean intra-env dist {intra:.2}, inter-env {inter:.2}, separation ratio {:.2}",
            inter / intra
        );
    }
    Ok(())
}

/// "The More the Merrier" (§7.5): sage retrained on narrower pools.
fn fig15(ctx: &mut Ctx, out: &mut String) -> Res {
    let steps = ctx.fig().steps;
    let mut narrowed = |name: &'static str, schemes: &[&str]| {
        let model = ctx.trained(&format!("{name}/{steps}"), |ctx| {
            let pool = ctx.pool()?.filter_schemes(schemes);
            Ok(train_crr(default_train_cfg(), steps, &pool))
        })?;
        Ok::<_, String>((name, model, default_gr()))
    };
    // Top four of each set (paper: {Vegas, BBR2, YeAH, Illinois} and {Cubic,
    // HTCP, BIC, Highspeed}), then the top-ranked of each: {vegas}, {cubic}.
    let top4 = [
        "vegas",
        "bbr2",
        "yeah",
        "illinois",
        "cubic",
        "htcp",
        "bic",
        "highspeed",
    ];
    let variants = [
        narrowed("sage-top4", &top4)?,
        narrowed("sage-top", &["vegas", "cubic"])?,
    ];
    let title = "Fig.15 pool diversity (winning rate vs pool league)";
    variants_vs_pool(ctx, out, title, "model", &variants, &ctx.envs())
}

/// 20 ms min RTT and a 450 KB buffer, as in the paper (§7.6).
fn fig17(ctx: &mut Ctx, out: &mut String) -> Res {
    let model = ctx.sage()?;
    let gr = default_gr();
    let env = |id: &str, link, cap| single_flow_env(id, link, 20.0, 450_000, 60.0, cap);
    let step = |before_mbps, after_mbps| LinkModel::Step {
        before_mbps,
        after_mbps,
        at: from_secs(30.0),
    };
    let scenarios = [
        (
            "sudden-increase-24to48",
            env("fig17-up", step(24.0, 48.0), 36.0),
        ),
        (
            "sudden-decrease-48to24",
            env("fig17-down", step(48.0, 24.0), 36.0),
        ),
        (
            "vs-cubic-24",
            EnvSpec {
                set: SetKind::SetII,
                competing_cubic: 1,
                ..env("fig17-cubic", LinkModel::Constant { mbps: 24.0 }, 24.0)
            },
        ),
    ];
    for (name, e) in scenarios {
        let res = rollout(&e, "sage", policy(&model, gr), gr, SEED);
        let _ = writeln!(
            out,
            "\n== Fig.17 {name}: t(s)  rate(Mbps)  owd(ms)  cwnd(pkt) =="
        );
        // 40 chunk means of the 10 ms ticks, stamped with the chunk's start.
        let points = 40;
        let [rate, owd, cwnd] = [&res.traj.thr, &res.traj.owd, &res.traj.cwnd]
            .map(|ticks| sage_util::downsample_mean(ticks, points));
        let chunk_secs = (res.traj.len() / points) as f64 * 0.01;
        for i in 0..rate.len() {
            let _ = writeln!(
                out,
                "{:.1}\t{:.1}\t{:.1}\t{:.0}",
                i as f64 * chunk_secs,
                rate[i] / 1e6,
                owd[i] * 1e3,
                cwnd[i]
            );
        }
        let _ = writeln!(
            out,
            "summary: thr {:.1} Mbps, owd {:.1} ms, competing flows: {}",
            res.stats.avg_goodput_mbps,
            res.stats.avg_owd_ms,
            res.all_stats.len() - 1
        );
    }
    Ok(())
}

/// Every 25 s another flow of the same scheme joins a shared bottleneck —
/// the evaluation matrix's declarative `fairness` scenario, so every cell
/// carries the per-flow mean goodputs and the Jain index directly (§7.7).
fn fig18(ctx: &mut Ctx, out: &mut String) -> Res {
    let mut schemes = vec![ctx.sage_contender()?];
    schemes.extend(heuristics([
        "cubic", "bbr2", "vegas", "yeah", "westwood", "copa", "vivace",
    ]));
    let _ = writeln!(
        out,
        "fig18: {} schemes x 4 staggered self flows, 120 s",
        schemes.len()
    );
    let cells = evaluate(&schemes, &[scenario_fairness(4, 120.0, 25.0).env]);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let per_flow: Vec<String> = c.flow_goodputs.iter().map(|g| format!("{g:.1}")).collect();
            vec![
                c.scheme.clone(),
                per_flow.join("/"),
                format!("{:.3}", c.fairness),
            ]
        })
        .collect();
    table(
        out,
        "Fig.18/27 Jain fairness index (4 same-scheme flows, mean Mbps per flow)",
        &["scheme", "per-flow mbps", "Jain"],
        &rows,
    );
    Ok(())
}

/// `sage`, then each of `schemes`, each as the last flow to join `n_cubic`
/// Cubic flows (started 0.1 s apart; the test flow at 1 s) on a 40 ms mRTT
/// link: `(name, test-flow goodput, total Cubic goodput)` in Mbit/s.
fn against_cubics(
    model: &Arc<SageModel>,
    schemes: &[&'static str],
    n_cubic: usize,
    [mbps, secs]: [f64; 2],
    buffer_bytes: u64,
) -> Vec<(&'static str, f64, f64)> {
    let sage = std::iter::once(("sage", policy(model, default_gr())));
    let runs = sage.chain(schemes.iter().map(|s| (*s, heuristic(s))));
    let result = |(name, cca)| {
        let link = LinkModel::Constant { mbps };
        let mut cfg = SimConfig::new(link, buffer_bytes, 40.0, from_secs(secs));
        cfg.seed = SEED;
        let mut flows: Vec<FlowConfig> = (0..n_cubic)
            .map(|k| {
                let cubic = build("cubic", SEED + k as u64).expect("cubic is registered");
                FlowConfig::starting_at(cubic, from_secs(0.1 * k as f64))
            })
            .collect();
        flows.push(FlowConfig::starting_at(cca, from_secs(1.0)));
        let stats = Simulation::new(cfg, flows).run(&mut NullMonitor);
        let cubic_total: f64 = stats[..n_cubic].iter().map(|s| s.avg_goodput_mbps).sum();
        (name, stats[n_cubic].avg_goodput_mbps, cubic_total)
    };
    runs.map(result).collect()
}

/// TCP-friendliness beyond the training regime (§7.7): the pool only ever
/// contained two-flow scenarios; here one test flow shares a 48 Mbit/s,
/// 40 ms mRTT, BDP-buffer (240 KB) bottleneck with 3 (and 7) Cubic flows for
/// 2 min.
fn fig19(ctx: &mut Ctx, out: &mut String) -> Res {
    let model = ctx.sage()?;
    let schemes = ["cubic", "bbr2", "vegas", "ledbat", "copa", "vivace"];
    for (n_cubic, fig) in [(3usize, "19/28 (3 cubics)"), (7, "28 (7 cubics)")] {
        let fair = 48.0 / (n_cubic + 1) as f64;
        let rows: Vec<Vec<String>> =
            against_cubics(&model, &schemes, n_cubic, [48.0, 120.0], 240_000)
                .into_iter()
                .map(|(name, thr, cubic_total)| {
                    vec![
                        name.into(),
                        format!("{thr:.1}"),
                        format!("{fair:.1}"),
                        format!("{:.2}", thr / fair),
                        format!("{cubic_total:.1}"),
                    ]
                })
                .collect();
        table(
            out,
            &format!("Fig.{fig} — test flow vs {n_cubic} Cubic flows (48 Mbps, 40 ms, BDP buffer)"),
            &[
                "scheme",
                "thr Mbps",
                "fair share",
                "thr/fair",
                "cubic total",
            ],
            &rows,
        );
    }
    Ok(())
}

/// Two constant 48 Mbit/s, 40 ms environments (Appendix E.1).
fn fig22(ctx: &mut Ctx, out: &mut String) -> Res {
    let bdp = (48.0 * 1e6 / 8.0 * 0.040) as u64;
    for (label, buf) in [
        ("shallow buffer (0.5 BDP)", 0.5),
        ("deep buffer (8 BDP)", 8.0),
    ] {
        let link = LinkModel::Constant { mbps: 48.0 };
        let buffer = (bdp as f64 * buf) as u64;
        let env = single_flow_env(label, link, 40.0, buffer, 20.0, 48.0);
        let cells = ctx.pool_league(Vec::new(), &[env])?;
        let mut rows: Vec<Vec<String>> = cells
            .iter()
            .map(|r| {
                vec![
                    r.scheme.clone(),
                    format!("{:.1}", r.goodput_mbps),
                    format!("{:.1}", r.avg_owd_ms),
                ]
            })
            .collect();
        rows.sort_by(|a, b| b[1].partial_cmp(&a[1]).expect("formatted numbers"));
        table(
            out,
            &format!("Fig.22 frontier — {label}"),
            &["scheme", "thr Mbps", "owd ms"],
            &rows,
        );
    }
    Ok(())
}

/// A 48 Mbit/s, 20 ms mRTT, 240 KB-buffer bottleneck under five queue
/// disciplines (Appendix E.2): a good learned policy should not depend on it.
fn fig23(ctx: &mut Ctx, out: &mut String) -> Res {
    let mut contenders = vec![ctx.sage_contender()?];
    contenders.extend(heuristics(["cubic", "bbr2", "vegas", "yeah", "westwood"]));
    let envs: Vec<EnvSpec> = [
        AqmKind::HeadDrop,
        AqmKind::TailDrop,
        AqmKind::Pie,
        AqmKind::BoundedDelay,
        AqmKind::CoDel,
    ]
    .into_iter()
    .map(|aqm| {
        let id = format!("fig23-{}", aqm.name());
        let link = LinkModel::Constant { mbps: 48.0 };
        EnvSpec {
            aqm,
            ..single_flow_env(id, link, 20.0, 240_000, 30.0, 48.0)
        }
    })
    .collect();
    let cells = evaluate(&contenders, &envs);
    let mut rows = Vec::new();
    for c in &contenders {
        let mut row = vec![c.name().to_string()];
        let mut thrs = Vec::new();
        for env in &envs {
            let r = cells
                .iter()
                .find(|r| r.scheme == c.name() && r.scenario == env.id)
                .expect("the matrix ran every contender in every env");
            row.push(format!("{:.1}/{:.0}", r.goodput_mbps, r.avg_owd_ms));
            thrs.push(r.goodput_mbps);
        }
        // Spread across AQMs: max/min throughput ratio (1.0 = AQM-independent).
        let spread = thrs.iter().cloned().fold(0.0, f64::max)
            / thrs.iter().cloned().fold(f64::INFINITY, f64::min).max(0.01);
        row.push(format!("{spread:.2}"));
        rows.push(row);
    }
    table(
        out,
        "Fig.23 AQM robustness (thr Mbps / owd ms per AQM)",
        &[
            "scheme",
            "HDrop",
            "TDrop",
            "PIE",
            "BoDe",
            "CoDel",
            "thr spread",
        ],
        &rows,
    );
    Ok(())
}

/// Set II scenarios at 24 Mbit/s, 40 ms mRTT with a 120 KB and a 1.92 MB
/// buffer (Appendix F), ML-based (Fig. 24) and delay-based (Fig. 25) schemes.
fn fig24(ctx: &mut Ctx, out: &mut String) -> Res {
    let model = ctx.sage()?;
    let schemes = [
        "cubic", "vegas", "copa", "c2tcp", "bbr2", "ledbat", "vivace",
    ];
    for (label, buffer) in [
        ("small buffer 120KB", 120_000u64),
        ("large buffer 1.92MB", 1_920_000),
    ] {
        let rows: Vec<Vec<String>> = against_cubics(&model, &schemes, 1, [24.0, 100.0], buffer)
            .into_iter()
            .map(|(name, test, cubic)| {
                vec![
                    name.into(),
                    format!("{test:.1}"),
                    format!("{cubic:.1}"),
                    format!("{:.2}", test / 12.0),
                ]
            })
            .collect();
        table(
            out,
            &format!("Fig.24/25 friendliness dynamics — {label} (fair share 12 Mbps)"),
            &["scheme", "test thr", "cubic thr", "test/fair"],
            &rows,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{read_manifest, run_figures};
    use std::collections::BTreeSet;

    #[test]
    fn ids_and_output_files_are_unique_and_listed() {
        let ids: BTreeSet<_> = TABLE.iter().map(|f| f.id).collect();
        let files: BTreeSet<_> = TABLE.iter().map(|f| f.file).collect();
        assert_eq!((ids.len(), files.len()), (TABLE.len(), TABLE.len()));
        let listed = list();
        for f in &TABLE {
            let line = listed
                .lines()
                .find(|l| l.starts_with(&format!("{}\t", f.id)));
            let line = line.unwrap_or_else(|| panic!("--list has no row for {}", f.id));
            assert!(line.contains(f.file) && line.contains(f.about), "{line}");
        }
    }

    #[test]
    fn every_row_is_documented_as_a_figures_command() {
        let doc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let text = std::fs::read_to_string(doc).expect("EXPERIMENTS.md is committed");
        for f in &TABLE {
            let cmd = format!("figures {}", f.id);
            assert!(text.contains(&cmd), "EXPERIMENTS.md never says `{cmd}`");
        }
    }

    /// A missing artifact fails the figure that needs it, by path, keeps that
    /// figure's previous output, and does not stop the other rows.
    #[test]
    fn a_missing_artifact_fails_one_figure_and_keeps_its_old_output() {
        let dir = std::env::temp_dir().join(format!("sage-figures-{}", std::process::id()));
        let results = dir.join("results");
        std::fs::create_dir_all(&results).expect("temp dir");
        std::fs::write(results.join("fig10.txt"), "old").expect("seed output");
        let pick = |id| TABLE.iter().find(|f| f.id == id).expect("row");
        let failed = run_figures(&dir, &[pick("fig10"), pick("fig05")]);
        let kept = std::fs::read_to_string(results.join("fig10.txt")).expect("kept");
        let manifest = read_manifest(&results).expect("manifest");
        let fig05 = std::fs::read_to_string(results.join("fig05.txt")).expect("written");
        let mut ctx = Ctx::new(&dir, pick("fig10"));
        let why = ctx.sage().err().expect("no model there");
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert_eq!((failed, kept.as_str()), (1, "old"));
        assert!(fig05.starts_with("x=r/fair_share\tR2\n0.00\t"), "{fig05}");
        assert_eq!(manifest.keys().collect::<Vec<_>>(), ["fig05.txt"]);
        let model = dir.join("sage.model");
        assert!(why.contains(&model.display().to_string()), "{why}");
    }
}
