//! The library crates' ambient-configuration layer.
//!
//! D6 (`clippy.toml`'s `disallowed-methods`: `std::env::{var, var_os, vars,
//! vars_os}`) bans environment reads everywhere except this file and tests: a
//! raw environment read buried in a pipeline makes results depend on ambient
//! state that no seed, golden, or replay captures. Every knob the workspace
//! honours is therefore a *named* accessor here, with the variable-name
//! constants as the single source of truth (downstream crates re-export
//! them); the bins read none. README's knob table lists them and
//! `scripts/check.sh` keeps it equal to the code.
//!
//! Accessors return the raw `Option<String>` (unset → `None`) and leave
//! parsing to the call site. Unset means the default; a value that is set
//! but does not parse also means the default, and the call site says so once
//! through [`warn_rejected`] — a mistyped knob is never swallowed.

#![expect(
    clippy::disallowed_methods,
    reason = "D6: this module is the config layer — the one place library code reads the environment, behind named accessors"
)]

use std::collections::BTreeSet;
use std::ffi::OsString;
use std::sync::Mutex;

/// Worker count for `util::par` (`util::par::THREADS_ENV` re-exports).
pub const THREADS: &str = "SAGE_THREADS";
/// Master switch for the obs metrics registry.
pub const OBS: &str = "SAGE_OBS";
/// Log level for the obs structured logger.
pub const LOG: &str = "SAGE_LOG";
/// Flight-recorder category mask spec.
pub const RECORD: &str = "SAGE_RECORD";
/// Where panic-recovery paths dump the flight-recorder tail.
pub const FLIGHT_FILE: &str = "SAGE_FLIGHT_FILE";
/// Set (to anything) to make the golden tests rewrite their files.
pub const REGEN_GOLDEN: &str = "SAGE_REGEN_GOLDEN";

/// The one raw read. Everything below goes through here, so the library
/// crates' ambient surface is this single call site.
fn read(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Report a knob that is set to something its parser rejects: one
/// `[WARN] NAME="value" is not <accepts>; using <default>` line on stderr,
/// the first time per knob per process.
pub fn warn_rejected(name: &'static str, value: &str, accepts: &str, default: &str) {
    static WARNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    if WARNED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(name)
    {
        eprintln!("[WARN] {name}={value:?} is not {accepts}; using {default}");
    }
}

/// The shape `SAGE_THREADS` accepts: an integer ≥ 1.
pub fn parse_positive(value: &str) -> Option<usize> {
    value.trim().parse().ok().filter(|&n| n >= 1)
}

pub fn threads() -> Option<String> {
    read(THREADS)
}

pub fn obs() -> Option<String> {
    read(OBS)
}

pub fn log() -> Option<String> {
    read(LOG)
}

pub fn record() -> Option<String> {
    read(RECORD)
}

/// `OsString` because the dump path need not be valid UTF-8.
pub fn flight_file() -> Option<OsString> {
    std::env::var_os(FLIGHT_FILE)
}

/// Presence is the whole signal: any value, the empty string included.
pub fn regen_golden() -> bool {
    read(REGEN_GOLDEN).is_some()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unset_variables_read_as_none() {
        // A name no test environment sets; the accessor contract is
        // simply Ok→Some, Err→None with no filtering.
        assert!(std::env::var("SAGE_DEFINITELY_UNSET_KNOB").is_err());
        assert_eq!(super::read("SAGE_DEFINITELY_UNSET_KNOB"), None);
    }

    #[test]
    fn positive_integers_parse_and_mistyped_ones_do_not() {
        assert_eq!(super::parse_positive("4"), Some(4));
        assert_eq!(super::parse_positive(" 65536 "), Some(65536));
        for bad in ["four", "64k", "0", "-1", "1.5", ""] {
            assert_eq!(super::parse_positive(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn constants_name_the_sage_namespace() {
        for name in [
            super::THREADS,
            super::OBS,
            super::LOG,
            super::RECORD,
            super::FLIGHT_FILE,
            super::REGEN_GOLDEN,
        ] {
            assert!(name.starts_with("SAGE_"), "{name}");
        }
    }
}
