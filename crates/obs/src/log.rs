//! Leveled, structured logging filtered by `SAGE_LOG`.
//!
//! Human-readable lines go to **stderr** with a `[LEVEL]` prefix so shell
//! drivers (`run_experiments.sh`, `scripts/check.sh`) can separate real
//! failures (`grep '^\[ERROR\]'`) from progress chatter. When
//! `SAGE_TRACE_FILE` names a path, every event is additionally buffered as
//! a structured JSONL record `{"ts_us": ..., "level": ..., "msg": ...}`
//! with a monotonic timestamp, and [`flush_trace`] rewrites the whole file
//! through `sage_util::fsio::atomic_write` — a crash mid-run can never
//! leave a torn trace file.
//!
//! Levels, from `SAGE_LOG` (default `info`): `quiet`/`off`, `error`,
//! `warn`, `info`, `debug`, `trace`. CI runs set `SAGE_LOG=quiet` so test
//! output stays clean.

use sage_util::{env_cfg, Json};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable naming the structured JSONL trace file.
pub const TRACE_FILE_ENV: &str = env_cfg::TRACE_FILE;

/// Event severity. Ordered: an event is visible when its level is at or
/// below the configured maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
    Trace = 5,
}

impl Level {
    /// The greppable prefix tag.
    pub fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// 0 = uninitialised; else max visible level + 1 (so `quiet` stores 1).
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

fn parse_level(s: &str) -> Option<u8> {
    Some(match s.trim().to_ascii_lowercase().as_str() {
        "quiet" | "off" | "none" | "0" => 0,
        "error" => Level::Error as u8,
        "warn" | "warning" => Level::Warn as u8,
        "info" => Level::Info as u8,
        "debug" => Level::Debug as u8,
        "trace" => Level::Trace as u8,
        _ => return None,
    })
}

#[cold]
fn init_level() -> u8 {
    let max = env_cfg::log().map_or(Level::Info as u8, |v| {
        parse_level(&v).unwrap_or_else(|| {
            env_cfg::warn_rejected(
                env_cfg::LOG,
                &v,
                "quiet, error, warn, info, debug or trace",
                "info",
            );
            Level::Info as u8
        })
    });
    MAX_LEVEL.store(max + 1, Ordering::Relaxed);
    max
}

fn max_level() -> u8 {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        0 => init_level(),
        n => n - 1,
    }
}

/// Whether events at `level` are currently visible.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level as u8 <= max_level()
}

/// Override the visible level, bypassing `SAGE_LOG` (tests; `None` = quiet).
pub fn force_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map(|l| l as u8).unwrap_or(0) + 1, Ordering::Relaxed);
}

/// Monotonic microseconds since the first obs event in this process.
/// Never fed into any digest or simulation decision.
#[expect(
    clippy::disallowed_methods,
    reason = "the obs stack's one wall clock: it stamps `ts_us` on log lines and never enters a digest or a simulation decision"
)]
pub fn monotonic_us() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_micros() as u64
}

struct TraceSink {
    path: PathBuf,
    lines: Mutex<Vec<String>>,
}

fn trace_sink() -> Option<&'static TraceSink> {
    static SINK: OnceLock<Option<TraceSink>> = OnceLock::new();
    SINK.get_or_init(|| {
        env_cfg::trace_file().map(|p| TraceSink {
            path: PathBuf::from(p),
            lines: Mutex::new(Vec::new()),
        })
    })
    .as_ref()
}

/// Append a structured event to the JSONL buffer (if a sink is configured).
pub fn trace_event(level: Level, msg: &str) {
    let Some(sink) = trace_sink() else {
        return;
    };
    let rec = Json::obj(vec![
        ("ts_us", Json::Num(monotonic_us() as f64)),
        ("level", Json::str(level.tag())),
        ("msg", Json::str(msg)),
    ]);
    let mut lines = sink.lines.lock().unwrap_or_else(|e| e.into_inner());
    lines.push(rec.to_string());
    // Periodic crash-safety flush: rewrite the whole file atomically so an
    // interrupted run still has a parseable prefix of the trace.
    if lines.len().is_multiple_of(1024) {
        let body = lines.join("\n");
        let path = sink.path.clone();
        drop(lines);
        let _ = sage_util::fsio::atomic_write(&path, body.as_bytes());
    }
}

/// Write the buffered JSONL trace to `SAGE_TRACE_FILE` via an atomic
/// temp+rename. No-op when no sink is configured. Call at the end of a
/// binary (or at checkpoints) — partial traces never tear.
pub fn flush_trace() {
    if let Some(sink) = trace_sink() {
        let body = sink
            .lines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .join("\n");
        let _ = sage_util::fsio::atomic_write(&sink.path, body.as_bytes());
    }
}

/// Emit one leveled event: `[LEVEL] message` on stderr plus a structured
/// trace record. Prefer the `obs_error!`..`obs_info!` macros, which check
/// the level before formatting.
pub fn log(level: Level, args: fmt::Arguments<'_>) {
    if !log_enabled(level) {
        return;
    }
    let msg = args.to_string();
    eprintln!("[{}] {msg}", level.tag());
    trace_event(level, &msg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        for quiet in ["quiet", "off", "none", "0"] {
            assert_eq!(parse_level(quiet), Some(0), "{quiet:?}");
        }
        assert_eq!(parse_level("error"), Some(1));
        assert_eq!(parse_level("WARN"), Some(2));
        assert_eq!(parse_level("warning"), Some(2));
        assert_eq!(parse_level(" info "), Some(3));
        assert_eq!(parse_level("debug"), Some(4));
        assert_eq!(parse_level("trace"), Some(5));
        for bad in ["verbose", "garbage", "", "3"] {
            assert_eq!(parse_level(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn force_level_filters() {
        let _guard = crate::test_lock();
        force_level(Some(Level::Warn));
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        force_level(None);
        assert!(!log_enabled(Level::Error));
        force_level(Some(Level::Info));
    }

    #[test]
    fn monotonic_clock_is_nondecreasing() {
        let a = monotonic_us();
        let b = monotonic_us();
        assert!(b >= a);
    }
}
