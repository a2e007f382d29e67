//! The metrics core: counters, gauges, and histograms behind a global
//! name-keyed registry.
//!
//! Hot-path writes never take a lock. Counters land in per-thread shards
//! (each thread is assigned a shard slot in thread-registration order on
//! first use) so concurrent increments don't bounce one cache line;
//! histogram buckets are shared relaxed atomics — every recorded quantity
//! is a `u64` and every merge is an integer add, so a snapshot is
//! bit-identical at any thread count and any interleaving. Snapshots list
//! metrics in name order (a `BTreeMap`), so the exported JSON is
//! deterministic byte for byte.
//!
//! The registry lock is touched only when a call site first interns its
//! metric (see the `obs_counter!`/`obs_gauge!`/`obs_hist!` macros, which
//! cache the handle in a `OnceLock`) and when a snapshot is taken.

use crate::hist::{bucket_bounds, HistSnapshot, NUM_BUCKETS};
use sage_util::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// Per-thread shard slots for counters. More threads than slots simply
/// share (the sum stays exact); 64 covers every realistic `SAGE_THREADS`.
const SHARDS: usize = 64;

/// A cache-line-padded cell so neighbouring shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PadCell(AtomicU64);

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Shard slot of this thread, assigned in thread-registration order.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Relaxed) % SHARDS;
}

#[inline]
fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// A monotonically increasing `u64` counter with per-thread shards.
pub struct Counter {
    shards: Box<[PadCell]>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            shards: (0..SHARDS).map(|_| PadCell::default()).collect(),
        }
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
        self.shards[thread_slot()].0.fetch_add(n, Relaxed);
    }

    /// Total across shards, merged in shard-registration order.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|c| c.0.load(Relaxed)).sum()
    }

    fn reset(&self) {
        for c in self.shards.iter() {
            c.0.store(0, Relaxed);
        }
    }
}

/// A last-write-wins `f64` gauge. Set it only from deterministic
/// (single-threaded) control points; unlike counters, concurrent `set`s
/// race by design.
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    #[inline]
    pub fn set(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        self.bits.store(v.to_bits(), Relaxed);
    }

    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0f64.to_bits(), Relaxed);
    }
}

/// A log-linear-bucket histogram of `u64` observations (see [`crate::hist`]).
/// All state is relaxed atomics; every update commutes, so snapshots are
/// identical at any thread count.
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

    /// Fold a locally tallied snapshot in: the same integer adds as
    /// observing its values one by one, paid once per tally instead of once
    /// per value. A no-op when obs is disabled.
    pub fn merge(&self, tally: &HistSnapshot) {
        if !crate::enabled() || tally.count == 0 {
            return;
        }
        for (b, &n) in self.buckets.iter().zip(&tally.buckets) {
            if n > 0 {
                b.fetch_add(n, Relaxed);
            }
        }
        self.count.fetch_add(tally.count, Relaxed);
        self.sum.fetch_add(tally.sum, Relaxed);
        self.min.fetch_min(tally.min, Relaxed);
        self.max.fetch_max(tally.max, Relaxed);
    }

    /// Consistent-enough snapshot (exact when no writer is concurrent,
    /// which holds at every export point in the pipeline).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
        }
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
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

/// Intern (or fetch) the gauge named `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    intern(&registry().gauges, name, Gauge::new)
}

/// Intern (or fetch) the histogram named `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    intern(&registry().hists, name, Histogram::new)
}

/// Zero every registered metric (tests and repeated in-process runs).
pub fn reset_metrics() {
    for c in registry()
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .values()
    {
        c.reset();
    }
    for g in registry()
        .gauges
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .values()
    {
        g.reset();
    }
    for h in registry()
        .hists
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .values()
    {
        h.reset();
    }
}

fn hist_json(s: &HistSnapshot) -> Json {
    let nonzero: Vec<Json> = s
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| {
            let (lo, hi) = bucket_bounds(i);
            Json::nums([lo as f64, hi as f64, n as f64])
        })
        .collect();
    Json::obj(vec![
        ("count", Json::Num(s.count as f64)),
        ("sum", Json::Num(s.sum as f64)),
        (
            "min",
            Json::Num(if s.count == 0 { 0.0 } else { s.min as f64 }),
        ),
        ("max", Json::Num(s.max as f64)),
        ("mean", Json::Num(s.mean())),
        ("p50", Json::Num(s.quantile(0.5))),
        ("p95", Json::Num(s.quantile(0.95))),
        ("p99", Json::Num(s.quantile(0.99))),
        ("p999", Json::Num(s.quantile(0.999))),
        ("buckets", Json::Arr(nonzero)),
    ])
}

/// Export every registered metric as one JSON object:
/// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
/// Metric names are sorted, shard merges are integer sums — the output is
/// byte-identical for equivalent runs at any thread count.
pub fn snapshot_json() -> Json {
    let counters: BTreeMap<String, Json> = registry()
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, c)| (k.to_string(), Json::Num(c.value() as f64)))
        .collect();
    let gauges: BTreeMap<String, Json> = registry()
        .gauges
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, g)| (k.to_string(), Json::Num(g.value())))
        .collect();
    let hists: BTreeMap<String, Json> = registry()
        .hists
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, h)| (k.to_string(), hist_json(&h.snapshot())))
        .collect();
    Json::Obj(
        [
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("histograms".to_string(), Json::Obj(hists)),
        ]
        .into_iter()
        .collect(),
    )
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
            "matrix.cells",
            "serve.sym_tick_latency_ns",
            "test.hist_props.merged",
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
    fn gauge_last_write_wins() {
        let _guard = crate::test_lock();
        crate::force_enabled(true);
        let g = gauge("test.metrics.gauge");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.value(), -2.25);
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
    fn snapshot_json_parses_and_sorts() {
        let _guard = crate::test_lock();
        crate::force_enabled(true);
        counter("test.metrics.z_last").inc();
        counter("test.metrics.a_first").inc();
        let s = snapshot_json().to_string();
        let parsed = sage_util::Json::parse(&s).expect("snapshot JSON parses");
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("gauges").is_some());
        assert!(parsed.get("histograms").is_some());
        let a = s.find("test.metrics.a_first").unwrap();
        let z = s.find("test.metrics.z_last").unwrap();
        assert!(a < z, "metric names must serialise sorted");
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
