//! Pool collection — the one body every caller runs: an ordered parallel
//! fan-out over (environment, scheme) cells under supervision — divergence
//! guards, panic isolation with retry-and-reseed, and crash-safe partial
//! checkpoints.
//!
//! A paper-scale collection run (thousands of scheme x environment cells,
//! hours of wall time) cannot assume every rollout behaves: one diverging
//! scheme, one pathological environment or one process crash must not cost
//! the whole pool. Each rollout is therefore wrapped with:
//!
//! * NaN/divergence detection on the recorded trajectory (bad cells are
//!   retried under a different seed, then skipped),
//! * panic isolation (unwinding stops at the cell; retry-with-reseed), and
//! * periodic crash-safe checkpoints of the partial pool (temp file, fsync,
//!   atomic rename via `sage-util`), so an interrupted run leaves a loadable
//!   pool of the cells finished so far.

use crate::env::EnvSpec;
use crate::pool::{Pool, Trajectory};
use crate::rollout::{cell_span_base, rollout};
use sage_gr::GrConfig;
use sage_heuristics::build;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Supervision policy for one collection run.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// How many times a failing (panicking or diverging) cell is retried
    /// with a reseeded run before being skipped.
    pub max_retries: u32,
    /// Write a crash-safe checkpoint of the partial pool every this many
    /// cells (0 = never).
    pub checkpoint_every: usize,
    /// Where checkpoints go; required if `checkpoint_every > 0`.
    pub checkpoint_path: Option<PathBuf>,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            max_retries: 2,
            checkpoint_every: 0,
            checkpoint_path: None,
        }
    }
}

/// What happened during a supervised collection run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectReport {
    /// Cells that produced a usable trajectory.
    pub completed: usize,
    /// Retries performed (panics + divergences combined).
    pub retries: usize,
    /// Cells that panicked at least once.
    pub panicked: usize,
    /// Cells whose trajectory contained NaN/Inf at least once.
    pub diverged: usize,
    /// Cells abandoned after exhausting retries (`"scheme@env"` labels).
    pub failed: Vec<String>,
    /// Crash-safe checkpoints written.
    pub checkpoints: usize,
}

/// Validate a recorded trajectory: every stored number must be finite.
fn diverged(traj: &Trajectory) -> bool {
    let bad = |xs: &[f32]| xs.iter().any(|x| !x.is_finite());
    bad(&traj.states)
        || bad(&traj.actions)
        || bad(&traj.r1)
        || bad(&traj.r2)
        || bad(&traj.thr)
        || bad(&traj.owd)
        || bad(&traj.cwnd)
}

/// Roll scheme `si` through `env`, retrying a panicking or diverging run
/// under a fresh seed up to `max_retries` times. Returns the accepted
/// trajectory, if any, and how many attempts panicked and diverged.
fn run_cell(
    env: &EnvSpec,
    si: usize,
    scheme: &str,
    gr_cfg: GrConfig,
    seed: u64,
    max_retries: u32,
) -> (Option<Trajectory>, usize, usize) {
    let (mut panics, mut divergences) = (0, 0);
    for attempt in 0..=max_retries {
        // Reseed retries so a seed-dependent failure does not repeat;
        // attempt 0 uses the unsalted seeds.
        let salt = (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let build_seed = seed.wrapping_add(si as u64).wrapping_add(salt);
        let roll_seed = seed.wrapping_add(salt);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[expect(
                clippy::panic,
                reason = "the panic is intentional here — the unwind is caught just above and becomes a supervised retry, and an unknown scheme name is a programming error"
            )]
            let cca =
                build(scheme, build_seed).unwrap_or_else(|| panic!("unknown scheme {scheme}"));
            rollout(env, scheme, cca, gr_cfg, roll_seed)
        }));
        match outcome {
            Ok(res) if !diverged(&res.traj) => {
                sage_obs::obs_counter!("collect.rollouts").inc();
                sage_obs::obs_counter!("collect.steps").add(res.traj.len() as u64);
                return (Some(res.traj), panics, divergences);
            }
            Ok(_) => {
                divergences += 1;
                sage_obs::obs_warn!("rollout diverged (attempt {attempt}): {scheme}@{}", env.id);
            }
            Err(_) => {
                panics += 1;
                sage_obs::obs_warn!("rollout panicked (attempt {attempt}): {scheme}@{}", env.id);
                // Crash forensics: mark the panic in the flight recorder,
                // dump its per-thread tail, and flush the buffered JSONL
                // trace so the pre-panic tail is on disk even if the process
                // dies next.
                sage_obs::record(
                    sage_obs::Category::Collect,
                    sage_obs::EventKind::Panic,
                    0,
                    cell_span_base(&env.id, scheme, roll_seed),
                    si as u64,
                    attempt as u64,
                );
                let _ = sage_obs::dump_postmortem(&sage_obs::recorder::panic_dump_path(), 256);
                sage_obs::flush_trace();
            }
        }
        sage_obs::obs_counter!("collect.retries").inc();
    }
    (None, panics, divergences)
}

/// Collect the full pool: every scheme through every environment on
/// `threads` workers (`0` = `SAGE_THREADS`, default: available parallelism).
/// Misbehaving cells are retried with fresh seeds and skipped (recorded in
/// the report) rather than aborting the run. `progress` is called after each
/// cell with (done, total).
///
/// Determinism contract: every (environment, scheme) cell is an independent
/// task whose seeds are pure functions of the master seed and the cell —
/// never of execution order — and the reduction is ordered, so the returned
/// pool is byte-identical at every thread count. Cells fan out in chunks of
/// `checkpoint_every`, with a checkpoint of the partial pool between chunks.
///
/// An unknown scheme name panics inside the supervised cell (a programming
/// error) on every attempt, so the cell ends up in `failed`.
pub fn collect_pool_supervised(
    envs: &[EnvSpec],
    schemes: &[&str],
    gr_cfg: GrConfig,
    seed: u64,
    threads: usize,
    sup: &SuperviseConfig,
    mut progress: impl FnMut(usize, usize) + Send,
) -> (Pool, CollectReport) {
    let total = envs.len() * schemes.len();
    let done = AtomicUsize::new(0);
    let progress = Mutex::new(&mut progress);
    let mut pool = Pool::new();
    let mut report = CollectReport::default();
    let checkpoint = |pool: &Pool, report: &mut CollectReport| {
        if let Some(path) = &sup.checkpoint_path {
            report.checkpoints += pool.save_file(path).is_ok() as usize;
        }
    };
    let cell_at = |task: usize| (&envs[task / schemes.len()], task % schemes.len());
    let chunk = match sup.checkpoint_every {
        0 => total.max(1),
        n => n,
    };
    for start in (0..total).step_by(chunk) {
        let end = (start + chunk).min(total);
        let cells = sage_util::par_map_range(threads, end - start, |k| {
            let (env, si) = cell_at(start + k);
            let cell = run_cell(env, si, schemes[si], gr_cfg, seed, sup.max_retries);
            let n = 1 + done.fetch_add(1, Ordering::Relaxed);
            (progress.lock().unwrap_or_else(|e| e.into_inner()))(n, total);
            cell
        });
        for (k, (traj, panics, divergences)) in cells.into_iter().enumerate() {
            report.retries += panics + divergences;
            report.panicked += (panics > 0) as usize;
            report.diverged += (divergences > 0) as usize;
            match traj {
                Some(traj) => {
                    pool.trajectories.push(traj);
                    report.completed += 1;
                }
                None => {
                    let (env, si) = cell_at(start + k);
                    let label = format!("{}@{}", schemes[si], env.id);
                    sage_obs::obs_error!("cell abandoned after retries: {label}");
                    report.failed.push(label);
                }
            }
        }
        if end < total {
            checkpoint(&pool, &mut report);
        }
    }
    // Final checkpoint so the on-disk pool matches the returned one.
    checkpoint(&pool, &mut report);
    (pool, report)
}

/// [`collect_pool_supervised`] under the default supervision, keeping only
/// the pool.
pub fn collect_pool_with_threads(
    envs: &[EnvSpec],
    schemes: &[&str],
    gr_cfg: GrConfig,
    seed: u64,
    threads: usize,
    progress: impl FnMut(usize, usize) + Send,
) -> Pool {
    let sup = SuperviseConfig::default();
    collect_pool_supervised(envs, schemes, gr_cfg, seed, threads, &sup, progress).0
}

/// [`collect_pool_with_threads`] at the process-wide worker count.
pub fn collect_pool(
    envs: &[EnvSpec],
    schemes: &[&str],
    gr_cfg: GrConfig,
    seed: u64,
    progress: impl FnMut(usize, usize) + Send,
) -> Pool {
    collect_pool_with_threads(envs, schemes, gr_cfg, seed, 0, progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::training_envs;

    fn pool_bytes(pool: &Pool) -> Vec<u8> {
        let mut bytes = Vec::new();
        pool.save(&mut bytes).expect("pool serialises");
        bytes
    }

    #[test]
    fn supervised_matches_plain_collection_when_all_goes_well() {
        let envs = training_envs(2, 1, 3.0, 7);
        let schemes = ["cubic", "vegas"];
        let plain = pool_bytes(&collect_pool_with_threads(
            &envs,
            &schemes,
            GrConfig::default(),
            1,
            1,
            |_, _| {},
        ));
        for threads in [1, 2, 4] {
            // Chunked (checkpoint_every without a path) and unchunked runs
            // reduce to the same pool.
            let sup = SuperviseConfig {
                checkpoint_every: threads,
                ..SuperviseConfig::default()
            };
            let (pool, report) = collect_pool_supervised(
                &envs,
                &schemes,
                GrConfig::default(),
                1,
                threads,
                &sup,
                |_, _| {},
            );
            assert_eq!(
                report,
                CollectReport {
                    completed: 6,
                    ..CollectReport::default()
                }
            );
            assert_eq!(pool_bytes(&pool), plain, "{threads} threads");
        }
    }

    #[test]
    fn checkpoints_are_written_and_loadable() {
        let dir = std::env::temp_dir().join(format!("sage-sup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("partial.pool");
        let envs = training_envs(2, 0, 2.0, 11);
        let sup = SuperviseConfig {
            checkpoint_every: 1,
            checkpoint_path: Some(path.clone()),
            ..SuperviseConfig::default()
        };
        let (pool, report) = collect_pool_supervised(
            &envs,
            &["cubic"],
            GrConfig::default(),
            1,
            0,
            &sup,
            |_, _| {},
        );
        assert_eq!(
            report.checkpoints, 2,
            "one between the two cells, one final"
        );
        let reloaded = Pool::load_file(&path).unwrap();
        assert_eq!(reloaded.trajectories.len(), pool.trajectories.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
