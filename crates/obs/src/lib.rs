//! `sage-obs`: deterministic counters, leveled logging, and a flight
//! recorder for the whole Sage stack — all write-only, so turning any of
//! them on cannot change a result.
//!
//! * **Counters** ([`metrics`]) — one relaxed atomic each (no locks on the
//!   hot path); every total is an integer sum, so it is identical at any
//!   `SAGE_THREADS`. No simulation, training, or serving code ever reads
//!   one back; the perf ledger and tests do. The module also keeps the
//!   log-linear [`metrics::Histogram`] the ledger's `obs.hist_observe_ns`
//!   probe times; no library code registers one.
//! * **Logging** ([`log`]) — leveled events (`[ERROR]`, `[WARN]`, `[INFO]`
//!   prefixes on stderr, greppable by CI) filtered by the `SAGE_LOG`
//!   environment variable.
//! * **Flight recorder** ([`recorder`]) — per-thread rings of compact
//!   tick-stamped events (`SAGE_RECORD=serve,transport,...`), drained via
//!   an ordered merge that is byte-identical at any `SAGE_THREADS` and
//!   dumped as `FLIGHT_panic.jsonl` post-mortem from panic paths.
//!
//! # Determinism rules
//!
//! 1. Observability is write-only: nothing in this crate is read by
//!    pipeline logic, so metrics-on and metrics-off runs produce
//!    byte-identical artefacts (pinned by `crates/serve/tests/obs_differential.rs`).
//! 2. Every metric write is an integer counter add (commutative and
//!    associative), so totals are identical at every thread count.
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

pub use log::{log_enabled, Level};
pub use metrics::{counter, histogram};
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
