//! Stage 1 of the pipeline: generate the pool of policies (paper §5) by
//! rolling the 13 kernel heuristics through the Set I / Set II environments.
//! Writes `artifacts/pool.bin` once, at the end (temp file, fsync, rename):
//! an interrupted run leaves the previous pool in place.
//!
//! Collection runs under the supervisor: panicking or diverging cells are
//! retried with fresh seeds and then skipped.

use sage_bench::{default_envs, default_gr, pool_path, SEED};
use sage_collector::collect_pool_supervised;
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
    let t0 = Instant::now();
    let (pool, report) =
        collect_pool_supervised(&envs, &schemes, default_gr(), SEED, 0, |done, total| {
            if done % 50 == 0 || done == total {
                obs_info!("  {done}/{total} ({:.0} s)", t0.elapsed().as_secs_f64());
            }
        });
    println!(
        "pool: {} trajectories, {} transitions",
        pool.trajectories.len(),
        pool.total_steps()
    );
    println!(
        "supervision: {} completed, {} retries, {} panicked, {} diverged",
        report.completed, report.retries, report.panicked, report.diverged
    );
    if !report.failed.is_empty() {
        obs_warn!("abandoned cells: {:?}", report.failed);
    }
    let path = pool_path();
    pool.save_file(&path)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
