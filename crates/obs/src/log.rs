//! Leveled, structured logging filtered by `SAGE_LOG`.
//!
//! Human-readable lines go to **stderr** with a `[LEVEL]` prefix so shell
//! drivers (`run_experiments.sh`, `scripts/check.sh`) can separate real
//! failures (`grep '^\[ERROR\]'`) from progress chatter.
//!
//! Levels, from `SAGE_LOG` (default `info`): `quiet`/`off`, `error`,
//! `warn`, `info`. CI runs set `SAGE_LOG=quiet` so test output stays clean.

use sage_util::env_cfg;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Event severity. Ordered: an event is visible when its level is at or
/// below the configured maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 1,
    Warn = 2,
    Info = 3,
}

impl Level {
    /// The greppable prefix tag.
    pub fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
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
        _ => return None,
    })
}

#[cold]
fn init_level() -> u8 {
    let max = env_cfg::log().map_or(Level::Info as u8, |v| {
        parse_level(&v).unwrap_or_else(|| {
            env_cfg::warn_rejected(env_cfg::LOG, &v, "quiet, error, warn or info", "info");
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

/// Emit one leveled event: `[LEVEL] message` on stderr. Prefer the
/// `obs_error!`..`obs_info!` macros, which check the level before
/// formatting.
pub fn log(level: Level, args: fmt::Arguments<'_>) {
    if log_enabled(level) {
        eprintln!("[{}] {args}", level.tag());
    }
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
        for bad in ["debug", "trace", "verbose", "garbage", "", "3"] {
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
}
