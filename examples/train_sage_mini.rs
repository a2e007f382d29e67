//! End-to-end miniature of the Sage pipeline: collect a small pool of
//! heuristic policies, train a (very small) CRR agent offline, deploy it as
//! a congestion controller, and compare it with the heuristics it learned
//! from. A laptop-scale version of the paper's Fig. 3 pipeline.
//!
//! ```sh
//! cargo run --release --example train_sage_mini
//! ```

use sage::collector::{collect_pool, training_envs};
use sage::core::policy::{ActionMode, SagePolicy};
use sage::core::{CrrConfig, CrrTrainer, NetConfig};
use sage::eval::league::rank_league;
use sage::eval::matrix::{league_scores, run_matrix, Family, MatrixSpec, ScenarioSpec};
use sage::eval::runner::Contender;
use sage::gr::GrConfig;
use std::sync::Arc;

fn main() {
    // 1. Policy Collector: 6 environments x 5 schemes, once, before training.
    let envs = training_envs(4, 2, 8.0, 42);
    let schemes = ["cubic", "vegas", "bbr2", "westwood", "yeah"];
    println!(
        "collecting pool ({} envs x {} schemes)...",
        envs.len(),
        schemes.len()
    );
    let pool = collect_pool(&envs, &schemes, GrConfig::default(), 42, |_, _| {});
    println!(
        "  {} trajectories, {} transitions",
        pool.trajectories.len(),
        pool.total_steps()
    );

    // 2. Core Learning: offline CRR; no environment access from here on.
    let cfg = CrrConfig {
        net: NetConfig {
            enc1: 16,
            gru: 16,
            enc2: 16,
            fc: 16,
            residual_blocks: 1,
            critic_hidden: 32,
            ..NetConfig::default()
        },
        batch: 8,
        unroll: 8,
        seed: 42,
        ..CrrConfig::default()
    };
    let mut trainer = CrrTrainer::new(cfg, &pool);
    println!("training 1500 offline gradient steps...");
    trainer.train(&pool, 1500, |i, m| {
        if (i + 1) % 500 == 0 {
            println!(
                "  step {}: policy loss {:.3}, critic loss {:.3}",
                i + 1,
                m.policy_loss,
                m.critic_loss
            );
        }
    });
    let model = Arc::new(trainer.into_model());

    // 3. Execution: the learned policy as a CongestionControl, in a league.
    let mut contenders: Vec<Contender> = schemes.into_iter().map(Contender::Heuristic).collect();
    contenders.push(Contender::Model {
        name: "sage-mini",
        model: model.clone(),
        gr_cfg: GrConfig::default(),
    });
    let spec = MatrixSpec {
        schemes: contenders,
        scenarios: envs.into_iter().map(ScenarioSpec::from_env).collect(),
        seeds: vec![42],
        alpha: 2.0,
        threads: 0,
    };
    let report = run_matrix(&spec, |_, _| {});
    for (family, label) in [(Family::SetI, "Set I"), (Family::SetII, "Set II")] {
        let table = rank_league(&league_scores(&report.cells, family, false), 0.10);
        println!("\n{label} league:");
        for e in table {
            println!("  {:10} {:6.2}%", e.scheme, e.winning_rate * 100.0);
        }
    }
    // Show the learned policy driving a single flow.
    let p = SagePolicy::new(model, GrConfig::default(), 7, ActionMode::Deterministic);
    let _ = p; // (constructed to show the deployment API)
    println!("\ndone — this is the whole Fig. 3 pipeline in miniature.");
}
