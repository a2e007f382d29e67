//! Train every ML-league baseline of §6.2 (at reproduction scale):
//!
//! * BC        — behavioral cloning on all 13 schemes
//! * BC-top    — BC on the top scheme of each set ({vegas, cubic})
//! * BC-top3   — BC on the top three of each set
//! * BCv2      — BC on only the winner trajectories of each environment
//! * OnlineRL  — Sage's online off-policy counterpart (self-collected data)
//! * Aurora    — online on-policy, single-flow reward, no GRU
//! * Indigo    — BC of BDP-oracle trajectories, Set I only
//! * Indigov2  — BC of oracle trajectories, Set I + Set II
//! * Orca      — hybrid (Cubic x learned multiplier), online, R1 only
//! * Orcav2    — hybrid retrained with both rewards
//!
//! Saves one model file per baseline.

use sage_bench::{
    default_envs, default_gr, default_train_cfg, envvar, model_path, pool_path, SEED,
};
use sage_collector::{collect_pool, Pool, SetKind};
use sage_core::baselines::OracleCc;
use sage_core::online::OnlineRlTrainer;
use sage_core::{CrrConfig, CrrTrainer, NetConfig};
use sage_eval::score::{interval_scores, ScoreKind};
use std::time::Instant;

fn bc_cfg() -> CrrConfig {
    CrrConfig {
        bc_only: true,
        ..default_train_cfg()
    }
}

fn train_bc(name: &str, pool: &Pool, steps: u64) {
    let t0 = Instant::now();
    let mut tr = CrrTrainer::new(bc_cfg(), pool);
    tr.train(pool, steps, |_, _| {});
    tr.model().save_file(&model_path(name)).expect("save");
    println!(
        "{name}: {} steps on {} trajs ({:.0} s)",
        steps,
        pool.trajectories.len(),
        t0.elapsed().as_secs_f64()
    );
}

/// Winner trajectories per environment (for BCv2): the scheme with the best
/// mean interval score in each env.
fn winner_pool(pool: &Pool) -> Pool {
    use std::collections::BTreeMap;
    let mut best: BTreeMap<String, (f64, usize)> = BTreeMap::new();
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
        let e = best
            .entry(t.env_id.clone())
            .or_insert((f64::NEG_INFINITY, i));
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

fn main() {
    let pool = Pool::load_file(&pool_path()).expect("run collect_pool first");
    let steps = envvar("SAGE_BASELINE_STEPS", 3000) as u64;
    let envs = default_envs();
    let gr = default_gr();

    // --- BC family ---
    train_bc("bc", &pool, steps);
    train_bc("bc_top", &pool.filter_schemes(&["vegas", "cubic"]), steps);
    train_bc(
        "bc_top3",
        &pool.filter_schemes(&["vegas", "bbr2", "yeah", "cubic", "htcp", "bic"]),
        steps,
    );
    train_bc("bcv2", &winner_pool(&pool), steps);

    // --- Oracle imitation (Indigo-like) ---
    let t0 = Instant::now();
    let set1_envs: Vec<_> = envs
        .iter()
        .filter(|e| e.set == SetKind::SetI)
        .cloned()
        .collect();
    let mut oracle_pool = Pool::new();
    for env in &set1_envs {
        let cca = Box::new(OracleCc::new(env.capacity_mbps, env.rtt_ms));
        oracle_pool
            .trajectories
            .push(sage_collector::rollout(env, "oracle", cca, gr, SEED).traj);
    }
    println!(
        "oracle Set I data: {} trajs ({:.0} s)",
        oracle_pool.trajectories.len(),
        t0.elapsed().as_secs_f64()
    );
    train_bc("indigo", &oracle_pool, steps);
    let set2_envs: Vec<_> = envs
        .iter()
        .filter(|e| e.set == SetKind::SetII)
        .cloned()
        .collect();
    for env in &set2_envs {
        let cca = Box::new(OracleCc::new(env.capacity_mbps / 2.0, env.rtt_ms));
        oracle_pool
            .trajectories
            .push(sage_collector::rollout(env, "oracle", cca, gr, SEED).traj);
    }
    train_bc("indigov2", &oracle_pool, steps);

    // --- Online learners ---
    let (mean, std) = pool.feature_stats();
    let iters = 12;
    let t0 = Instant::now();
    let mut online =
        OnlineRlTrainer::new(default_train_cfg(), gr, mean.clone(), std.clone(), false);
    for _ in 0..iters {
        online.iterate(&envs, 3, steps / iters as u64);
    }
    online
        .snapshot_model()
        .save_file(&model_path("onlinerl"))
        .expect("save");
    println!(
        "onlinerl: {iters} iters ({:.0} s)",
        t0.elapsed().as_secs_f64()
    );

    let t0 = Instant::now();
    let aurora_cfg = CrrConfig {
        net: NetConfig {
            gru: 0,
            ..NetConfig::default()
        },
        ..default_train_cfg()
    };
    let mut aurora = OnlineRlTrainer::new(aurora_cfg, gr, mean.clone(), std.clone(), true);
    // Aurora: single-flow reward only -> train only on Set I environments.
    let set1_only: Vec<_> = envs
        .iter()
        .filter(|e| e.set == SetKind::SetI)
        .cloned()
        .collect();
    for _ in 0..iters {
        aurora.iterate(&set1_only, 3, steps / iters as u64);
    }
    aurora
        .snapshot_model()
        .save_file(&model_path("aurora"))
        .expect("save");
    println!(
        "aurora: {iters} iters ({:.0} s)",
        t0.elapsed().as_secs_f64()
    );

    // --- Hybrids (Orca-like): learn the multiplier on hybrid-collected data.
    // Orca: R1 only (overwrite Set II rewards with R1); Orcav2: both rewards.
    let t0 = Instant::now();
    let mut orca_pool = collect_pool(&set1_only, &["cubic"], gr, SEED ^ 0x0C, |_, _| {});
    // Augment with the full heuristic pool restricted to Set I reward.
    orca_pool
        .trajectories
        .extend(pool.trajectories.iter().filter(|t| !t.set2).cloned());
    let mut tr = CrrTrainer::new(
        CrrConfig {
            ..default_train_cfg()
        },
        &orca_pool,
    );
    tr.train(&orca_pool, steps, |_, _| {});
    tr.model().save_file(&model_path("orca")).expect("save");
    println!("orca: ({:.0} s)", t0.elapsed().as_secs_f64());

    let t0 = Instant::now();
    let mut tr2 = CrrTrainer::new(default_train_cfg(), &pool);
    tr2.train(&pool, steps, |_, _| {});
    tr2.model().save_file(&model_path("orcav2")).expect("save");
    println!("orcav2: ({:.0} s)", t0.elapsed().as_secs_f64());
}
