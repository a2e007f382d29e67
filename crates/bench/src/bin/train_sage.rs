//! Stage 2: train Sage with data-driven (offline) RL on the collected pool.
//! Saves periodic checkpoints (`sage_d1`, `sage_d2`, ... — the "training
//! days" of Fig. 7) and the final model `sage.model`.

use sage_bench::{default_train_cfg, envvar, model_path, pool_path};
use sage_collector::Pool;
use sage_core::CrrTrainer;
use sage_gr::STATE_NAMES;
use sage_obs::obs_info;
use std::time::Instant;

fn main() {
    let pool = Pool::load_file(&pool_path()).expect("run collect_pool first");
    obs_info!(
        "pool: {} trajectories / {} transitions from {:?}",
        pool.trajectories.len(),
        pool.total_steps(),
        pool.schemes()
    );
    let steps = envvar("SAGE_STEPS", 30000) as u64;
    let ckpts = 7; // seven "days" of Fig. 7
    let per_ckpt = (steps / ckpts).max(1);
    let mut trainer = CrrTrainer::new(default_train_cfg(), &pool);
    let t0 = Instant::now();
    let mut day = 0;
    let leak_features = ["bdp_cwnd", "pre_act"].map(|name| {
        let named = STATE_NAMES.iter().position(|n| *n == name);
        named.expect("a GR state feature")
    });
    for i in 0..steps {
        let m = trainer.train_step(&pool);
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
        if (i + 1) % per_ckpt == 0 && day < ckpts {
            day += 1;
            let p = model_path(&format!("sage_d{day}"));
            trainer.model().save_file(&p).expect("save ckpt");
            // The offline leak probe (ROADMAP 2(c)): a policy whose NLL
            // collapses without the two action-lagged features reads its
            // label off them.
            obs_info!(
                "checkpoint day {day} -> {}: nll {:.4} nll_without(bdp_cwnd, pre_act) {:.4}",
                p.display(),
                trainer.action_nll(&pool, &[]),
                trainer.action_nll(&pool, &leak_features)
            );
        }
    }
    trainer
        .model()
        .save_file(&model_path("sage"))
        .expect("save model");
    println!("wrote {}", model_path("sage").display());
    sage_obs::flush_trace();
}
