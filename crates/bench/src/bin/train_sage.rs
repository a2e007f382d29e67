//! Train Sage with data-driven (offline) RL (paper §5) on the pool collected
//! in process from the Set I / Set II grid at `POOL_SCALE`, and save
//! `artifacts/sage.model`.

use sage_bench::{default_train_cfg, pool, sage_model_path, POOL_SCALE};
use sage_core::CrrTrainer;
use sage_gr::{GrConfig, STATE_NAMES};
use sage_obs::obs_info;
use std::time::Instant;

/// Gradient steps of the shipped model.
const STEPS: u64 = 30_000;

fn main() {
    let pool = pool(POOL_SCALE, GrConfig::default());
    obs_info!(
        "pool: {} trajectories / {} transitions from {:?}",
        pool.trajectories.len(),
        pool.total_steps(),
        pool.schemes()
    );
    let mut trainer = CrrTrainer::new(default_train_cfg(), &pool);
    #[expect(
        clippy::disallowed_methods,
        reason = "progress timing only — feeds the log lines, never the model"
    )]
    let t0 = Instant::now();
    trainer.train(&pool, STEPS, |i, m| {
        if (i + 1) % 200 == 0 {
            obs_info!(
                "step {:5}: policy {:.3} critic {:.3} w {:.2} q {:.2} ({:.0} s)",
                i + 1,
                m.policy_loss,
                m.critic_loss,
                m.mean_weight,
                m.mean_q,
                t0.elapsed().as_secs_f64()
            );
        }
    });
    // The offline leak probe: a policy whose NLL collapses without the two
    // action-lagged features reads its label off them.
    let leak_features = ["bdp_cwnd", "pre_act"].map(|name| {
        let named = STATE_NAMES.iter().position(|n| *n == name);
        named.expect("a GR state feature")
    });
    obs_info!(
        "leak probe: nll {:.4} nll_without(bdp_cwnd, pre_act) {:.4}",
        trainer.action_nll(&pool, &[]),
        trainer.action_nll(&pool, &leak_features)
    );
    let path = sage_model_path();
    trainer.model().save_file(&path).expect("save model");
    println!("wrote {}", path.display());
}
