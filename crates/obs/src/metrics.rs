//! The metrics core: counters behind a global name-keyed registry, plus the
//! log-linear histogram the perf ledger's `obs.hist_observe_ns` probe times.
//!
//! Hot-path writes never take a lock. A counter is one relaxed `AtomicU64`:
//! call sites add once per simulation, flow or collected cell (the
//! simulator folds its per-packet tallies on `Drop`), and
//! `transport.rto_fired` once per RTO, so there is no contention to shard
//! away. Every counter add is an integer add, so a total is bit-identical at
//! any thread count and any interleaving.
//!
//! The registry lock is touched only when a call site first interns its
//! metric (the `obs_counter!` macro caches the handle in a `OnceLock`).

use crate::hist::{HistSnapshot, NUM_BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing `u64` counter.
pub struct Counter(AtomicU64);

impl Counter {
    fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. A no-op (one predictable branch) when obs is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.0.fetch_add(n, Relaxed);
    }

    /// The total of every add so far.
    pub fn value(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A log-linear-bucket histogram of `u64` observations (see [`crate::hist`]).
/// All state is relaxed atomics; every update commutes, so snapshots are
/// identical at any thread count. No library code registers one: it is the
/// subject of the perf ledger's `obs.hist_observe_ns` probe.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. A no-op when obs is disabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[crate::hist::bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Consistent-enough snapshot (exact when no writer is concurrent).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    hists: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// O1: one metric namespace, grep-able and collision-free — lowercase
/// `[a-z0-9_]` segments, at least two, dot-separated, none empty.
fn is_metric_name(name: &str) -> bool {
    let seg_ok = |seg: &str| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    name.contains('.') && name.split('.').all(seg_ok)
}

/// Fetch `name` from `map`, creating it on first use. First use is where O1
/// is checked (debug builds), so every name a test exercises is.
fn intern<M>(
    map: &Mutex<BTreeMap<&'static str, &'static M>>,
    name: &'static str,
    new: fn() -> M,
) -> &'static M {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    map.entry(name).or_insert_with(|| {
        debug_assert!(
            is_metric_name(name),
            "metric name `{name}` is not snake.dot.case (O1)"
        );
        Box::leak(Box::new(new()))
    })
}

/// Intern (or fetch) the counter named `name`. Prefer the `obs_counter!`
/// macro at call sites — it caches the handle and skips this lookup.
pub fn counter(name: &'static str) -> &'static Counter {
    intern(&registry().counters, name, Counter::new)
}

/// Intern (or fetch) the histogram named `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    intern(&registry().hists, name, Histogram::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_snake_dot_case() {
        for bad in [
            "Serve.NnActions",
            "serve",
            "serve..latency",
            ".leading.dot",
            "trailing.dot.",
            "serve.audits.D1",
            "serve.tick-latency",
            "",
        ] {
            assert!(!is_metric_name(bad), "{bad}");
        }
        // Every shape the call sites use: two and three segments, digits,
        // underscores.
        for good in [
            "collect.retries",
            "transport.lane_heap_fallbacks",
            "test.metrics.counter_sum",
            "a.b2.c_d",
        ] {
            assert!(is_metric_name(good), "{good}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not snake.dot.case")]
    fn registering_a_bad_name_panics_in_debug() {
        counter("Bad.Name");
    }

    #[test]
    fn counter_sums_across_threads() {
        let _guard = crate::test_lock();
        crate::force_enabled(true);
        let c = counter("test.metrics.counter_sum");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn interning_returns_the_same_metric() {
        let _guard = crate::test_lock();
        crate::force_enabled(true);
        let a = counter("test.metrics.same");
        let b = counter("test.metrics.same");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), b.value());
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn histogram_snapshot_roundtrip() {
        let _guard = crate::test_lock();
        crate::force_enabled(true);
        let h = histogram("test.metrics.hist");
        for v in [0u64, 1, 5, 5, 1000, 123_456] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 124_467);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 123_456);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = crate::test_lock();
        let c = counter("test.metrics.disabled");
        let h = histogram("test.metrics.disabled_h");
        crate::force_enabled(false);
        c.inc();
        h.observe(7);
        crate::force_enabled(true);
        assert_eq!(c.value(), 0);
        assert_eq!(h.snapshot().count, 0);
    }
}
