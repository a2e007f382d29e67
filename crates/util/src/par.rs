//! A hand-rolled scoped worker pool with a determinism contract.
//!
//! The three hot loops of the pipeline — pool collection (env x scheme
//! rollouts), CRR per-sample gradients, and league evaluation
//! (contender x env runs) — are embarrassingly parallel, but learned-CC
//! results are only trustworthy when runs are exactly reproducible. Every
//! helper here therefore guarantees **ordered reduction**: task `i`'s result
//! lands at slot `i` of the output no matter which worker ran it or when, so
//! the merged result is byte-identical to a serial run at any thread count.
//!
//! No external dependencies: plain `std::thread::scope` plus an atomic
//! work-stealing cursor. Thread count comes from the `SAGE_THREADS`
//! environment variable (default: available parallelism; `1` = the exact
//! single-threaded legacy path, which runs tasks inline in index order
//! without spawning).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable controlling the default worker count.
pub const THREADS_ENV: &str = crate::env_cfg::THREADS;

/// Worker count configured for this process: `SAGE_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism (said
/// once on stderr when the variable is set to anything else).
pub fn configured_threads() -> usize {
    let Some(v) = crate::env_cfg::threads() else {
        return default_threads();
    };
    crate::env_cfg::parse_positive(&v).unwrap_or_else(|| {
        crate::env_cfg::warn_rejected(
            THREADS_ENV,
            &v,
            "a positive integer",
            "the machine's available parallelism",
        );
        default_threads()
    })
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve an explicit thread request: `0` means "use the configured
/// default", anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        configured_threads()
    } else {
        threads
    }
}

/// Run `f(0..n)` across `threads` workers and return the results in index
/// order. The scheduling is work-stealing (an atomic cursor), the reduction
/// is ordered: `out[i] == f(i)` regardless of thread count or interleaving,
/// so any deterministic `f` yields a bit-identical output vector at every
/// thread count. With `threads <= 1` (or `n <= 1`) the tasks run inline in
/// index order on the caller's thread — the exact legacy serial path.
///
/// # Panics
///
/// A panic in any task propagates to the caller once all workers stopped;
/// the helper itself panics only on a scheduler invariant violation (a task
/// index left without a result).
#[expect(
    clippy::panic,
    reason = "a missing slot means the work-stealing cursor double-skipped an index — a scheduler bug where crashing beats silently corrupting the ordered reduction"
)]
pub fn par_map_range<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                local
            }));
        }
        for h in handles {
            match h.join() {
                Ok(local) => buckets.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Ordered reduction: place every result at its index.
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        debug_assert!(out[i].is_none(), "task {i} produced two results");
        out[i] = Some(r);
    }
    out.into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("task {i} produced no result")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_at_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let f = |i: usize| (i as u64) * 1000 + items[i] * items[i];
        let serial = par_map_range(1, items.len(), f);
        for threads in [2, 3, 4, 8] {
            let par = par_map_range(threads, items.len(), f);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = par_map_range(4, 0, |i| i as u32);
        assert!(none.is_empty());
        let one = par_map_range(4, 1, |i| i + 10);
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn more_threads_than_tasks() {
        let out = par_map_range(64, 3, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = par_map_range(4, 200, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 200);
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn task_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map_range(4, 16, |i| {
                if i == 7 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn resolve_zero_uses_configured_default() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
