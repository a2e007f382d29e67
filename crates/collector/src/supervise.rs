//! Pool collection — the one body every caller runs: an ordered parallel
//! fan-out over (environment, scheme) cells under supervision — divergence
//! guards and panic isolation with retry-and-reseed.
//!
//! A paper-scale collection run (thousands of scheme x environment cells,
//! hours of wall time) cannot assume every rollout behaves: one diverging
//! scheme or one pathological environment must not cost the whole pool.
//! Each rollout is therefore wrapped with:
//!
//! * NaN/divergence detection on the recorded trajectory (bad cells are
//!   retried under a different seed, then skipped), and
//! * panic isolation (unwinding stops at the cell; retry-with-reseed).

use crate::env::EnvSpec;
use crate::pool::{Pool, Trajectory};
use crate::rollout::{cell_span_base, rollout};
use sage_gr::GrConfig;
use sage_heuristics::build;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many times a failing (panicking or diverging) cell is retried with a
/// reseeded run before being skipped.
const MAX_RETRIES: u32 = 2;

/// Validate a recorded trajectory: every stored number must be finite.
fn diverged(traj: &Trajectory) -> bool {
    let bad = |xs: &[f32]| xs.iter().any(|x| !x.is_finite());
    traj.states.rows().any(|s| bad(&s))
        || bad(&traj.actions)
        || bad(&traj.r1)
        || bad(&traj.r2)
        || bad(&traj.thr)
        || bad(&traj.owd)
        || bad(&traj.cwnd)
}

/// Roll scheme `si` through `env`, retrying a panicking or diverging run
/// under a fresh seed up to [`MAX_RETRIES`] times. Returns the accepted
/// trajectory, if any.
fn run_cell(
    env: &EnvSpec,
    si: usize,
    scheme: &str,
    gr_cfg: GrConfig,
    seed: u64,
) -> Option<Trajectory> {
    for attempt in 0..=MAX_RETRIES {
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
            let mk =
                |_| build(scheme, build_seed).unwrap_or_else(|| panic!("unknown scheme {scheme}"));
            rollout(env, scheme, mk, gr_cfg, roll_seed)
        }));
        match outcome {
            Ok(res) if !diverged(&res.traj) => {
                sage_obs::obs_counter!("collect.steps").add(res.traj.len() as u64);
                return Some(res.traj);
            }
            Ok(_) => {
                sage_obs::obs_warn!("rollout diverged (attempt {attempt}): {scheme}@{}", env.id);
            }
            Err(_) => {
                sage_obs::obs_warn!("rollout panicked (attempt {attempt}): {scheme}@{}", env.id);
                // Crash forensics: mark the panic in the flight recorder and
                // dump its per-thread tail.
                sage_obs::record(
                    sage_obs::Category::Collect,
                    sage_obs::EventKind::Panic,
                    0,
                    cell_span_base(&env.id, scheme, roll_seed),
                    si as u64,
                    attempt as u64,
                );
                let _ = sage_obs::dump_postmortem(&sage_obs::recorder::panic_dump_path(), 256);
            }
        }
        sage_obs::obs_counter!("collect.retries").inc();
    }
    None
}

/// Collect the full pool: every scheme through every environment on
/// `threads` workers (`0` = `SAGE_THREADS`, default: available parallelism).
/// Misbehaving cells are retried with fresh seeds and then skipped — logged
/// as abandoned — rather than aborting the run. `progress` is called after
/// each cell with (done, total).
///
/// Determinism contract: every (environment, scheme) cell is an independent
/// task whose seeds are pure functions of the master seed and the cell —
/// never of execution order — and the reduction is ordered, so the returned
/// pool is byte-identical at every thread count.
///
/// An unknown scheme name panics inside the supervised cell (a programming
/// error) on every attempt, so the cell is abandoned.
pub fn collect_pool_with_threads(
    envs: &[EnvSpec],
    schemes: &[&str],
    gr_cfg: GrConfig,
    seed: u64,
    threads: usize,
    mut progress: impl FnMut(usize, usize) + Send,
) -> Pool {
    let total = envs.len() * schemes.len();
    let done = AtomicUsize::new(0);
    let progress = Mutex::new(&mut progress);
    let cell_at = |task: usize| (&envs[task / schemes.len()], task % schemes.len());
    let cells = sage_util::par_map_range(threads, total, |task| {
        let (env, si) = cell_at(task);
        let cell = run_cell(env, si, schemes[si], gr_cfg, seed);
        let n = 1 + done.fetch_add(1, Ordering::Relaxed);
        (progress.lock().unwrap_or_else(|e| e.into_inner()))(n, total);
        cell
    });
    let mut pool = Pool::new();
    for (task, traj) in cells.into_iter().enumerate() {
        match traj {
            Some(traj) => pool.trajectories.push(traj),
            None => {
                let (env, si) = cell_at(task);
                sage_obs::obs_error!("cell abandoned after retries: {}@{}", schemes[si], env.id);
            }
        }
    }
    pool
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
