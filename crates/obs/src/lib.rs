//! `sage-obs`: deterministic metrics, structured tracing, and a flight
//! recorder for the whole Sage stack.
//!
//! The pipeline's claims are quantitative, yet until now everything between
//! "run bench binary" and "read final JSON" was a black box. This crate
//! makes the internals observable **without ever perturbing results**:
//!
//! * **Metrics** ([`metrics`]) — counters, gauges, and log-linear-bucket
//!   histograms. Counter increments land in per-thread lock-free shards
//!   (plain relaxed atomics, no locks on the hot path) that snapshots merge
//!   in shard-registration order; every merged quantity is an integer sum,
//!   so totals are identical at any `SAGE_THREADS`. Metrics are pure
//!   write-only taps: no simulation, training, or serving code ever reads
//!   them back, so enabling metrics cannot change a digest.
//! * **Tracing** ([`log`]) — leveled events (`[ERROR]`..`[TRACE]` prefixes
//!   on stderr, greppable by CI) filtered by the `SAGE_LOG` environment
//!   variable, plus an optional structured JSONL sink (`SAGE_TRACE_FILE`)
//!   flushed through `sage_util::fsio::atomic_write` so a crash never
//!   leaves a half-written trace.
//! * **Flight recorder** ([`recorder`]) — per-thread rings of compact
//!   tick-stamped events (`SAGE_RECORD=serve,transport,...`), drained via
//!   an ordered merge that is byte-identical at any `SAGE_THREADS` and
//!   dumped as `FLIGHT_*.jsonl` on demand or post-mortem from panic paths.
//!
//! # Determinism rules
//!
//! 1. Observability is write-only: nothing in this crate is read by
//!    pipeline logic, so metrics-on and metrics-off runs produce
//!    byte-identical artefacts (pinned by `crates/serve/tests/obs_differential.rs`).
//! 2. All histogram observations are `u64` and all merges are integer adds
//!    (commutative + associative), so exported snapshots are identical at
//!    every thread count.
//! 3. Wall-clock readings (span durations, latency histograms) are
//!    exported only in reports that no digest covers.
//!
//! # Kill switch
//!
//! `SAGE_OBS=0` (or `off`/`false`) disables metrics at runtime; the
//! disabled path is a single branch-predictable load-and-test.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod hist;
pub mod log;
pub mod metrics;
pub mod recorder;

pub use log::{flush_trace, log_enabled, Level};
pub use metrics::{counter, gauge, histogram, reset_metrics, snapshot_json};
pub use recorder::{
    dump_postmortem, force_record, force_record_cap, record, recording, reset_recorder, Category,
    EventKind,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state so the env var is parsed once: 0 = uninitialised, 1 = on,
/// 2 = off.
static OBS_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether metrics record anything. The hot path is one relaxed load plus
/// a predictable branch.
#[inline]
pub fn enabled() -> bool {
    match OBS_STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = match sage_util::env_cfg::obs() {
        Some(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "off" | "false" | "no"
        ),
        None => true,
    };
    OBS_STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Override the kill switch, bypassing `SAGE_OBS`. For tests and benches
/// that compare metrics-on vs metrics-off behaviour within one process.
pub fn force_enabled(on: bool) {
    OBS_STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Intern a counter once per call site, then increment without a registry
/// lookup: `obs_counter!("netsim.pkts_dropped").inc();`
#[macro_export]
macro_rules! obs_counter {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<&'static $crate::metrics::Counter> =
            std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Intern a gauge once per call site: `obs_gauge!("train.policy_loss").set(x);`
#[macro_export]
macro_rules! obs_gauge {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Intern a histogram once per call site:
/// `obs_hist!("serve.tick_latency_us").observe(us);`
#[macro_export]
macro_rules! obs_hist {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

/// Log an error-level event (always a real failure — CI greps `[ERROR]`).
#[macro_export]
macro_rules! obs_error {
    ($($arg:tt)*) => {
        if $crate::log::log_enabled($crate::Level::Error) {
            $crate::log::log($crate::Level::Error, format_args!($($arg)*));
        }
    };
}

/// Log a warning-level event (recoverable oddity, not a failure).
#[macro_export]
macro_rules! obs_warn {
    ($($arg:tt)*) => {
        if $crate::log::log_enabled($crate::Level::Warn) {
            $crate::log::log($crate::Level::Warn, format_args!($($arg)*));
        }
    };
}

/// Log an info-level progress event (the default visible level).
#[macro_export]
macro_rules! obs_info {
    ($($arg:tt)*) => {
        if $crate::log::log_enabled($crate::Level::Info) {
            $crate::log::log($crate::Level::Info, format_args!($($arg)*));
        }
    };
}

/// Serialises tests that toggle the process-global kill switch or level.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_enabled_overrides() {
        let _guard = test_lock();
        force_enabled(false);
        assert!(!enabled());
        force_enabled(true);
        assert!(enabled());
    }
}
