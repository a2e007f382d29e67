//! Stage 1 of the pipeline: generate the pool of policies (paper §5) by
//! rolling the 13 kernel heuristics through the Set I / Set II environments.
//! Writes `artifacts/pool.bin`.
//!
//! Collection runs under the supervisor: panicking or diverging cells are
//! retried with fresh seeds and then skipped, and a crash-safe checkpoint of
//! the partial pool is written every `SAGE_CKPT_EVERY` cells, so an
//! interrupted run leaves a loadable `pool.bin` of the cells finished so far
//! (nothing resumes from it: a rerun collects from zero).

use sage_bench::{default_envs, default_gr, envvar, pool_path, SEED};
use sage_collector::{collect_pool_supervised, SuperviseConfig};
use sage_obs::{obs_info, obs_warn};
use std::time::Instant;

fn main() {
    let envs = default_envs();
    let schemes = sage_heuristics::pool_names();
    obs_info!(
        "collecting pool: {} envs x {} schemes ({} rollouts)",
        envs.len(),
        schemes.len(),
        envs.len() * schemes.len()
    );
    let sup = SuperviseConfig {
        checkpoint_every: envvar("SAGE_CKPT_EVERY", 50),
        checkpoint_path: Some(pool_path()),
        ..SuperviseConfig::default()
    };
    let t0 = Instant::now();
    let (pool, report) = collect_pool_supervised(
        &envs,
        &schemes,
        default_gr(),
        SEED,
        0,
        &sup,
        |done, total| {
            if done % 50 == 0 || done == total {
                obs_info!("  {done}/{total} ({:.0} s)", t0.elapsed().as_secs_f64());
            }
        },
    );
    println!(
        "pool: {} trajectories, {} transitions",
        pool.trajectories.len(),
        pool.total_steps()
    );
    println!(
        "supervision: {} completed, {} retries, {} panicked, {} diverged, {} checkpoints",
        report.completed, report.retries, report.panicked, report.diverged, report.checkpoints
    );
    if !report.failed.is_empty() {
        obs_warn!("abandoned cells: {:?}", report.failed);
    }
    println!("wrote {}", pool_path().display());
    sage_obs::flush_trace();
}
