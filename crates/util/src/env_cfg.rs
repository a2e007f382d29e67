//! The library crates' ambient-configuration layer.
//!
//! The D6 lint rule (a token rule: it flags `env::var`, `var_os`, `vars`
//! and `vars_os` at the line that names them) bans environment reads
//! everywhere in library code except this file, the bench crate, and tests:
//! a raw environment read buried in a pipeline makes results depend on
//! ambient state that no seed, golden, or replay captures. Every knob a
//! library crate honours is therefore a *named* accessor here, with the
//! variable-name constants as the single source of truth (downstream crates
//! re-export them). The bench bins' scale knobs go through
//! `sage_bench::envvar`; README's knob table lists both sets and
//! `scripts/check.sh` keeps it equal to the code.
//!
//! Accessors return the raw `Option<String>` (unset → `None`) and leave
//! parsing to the call site, so each consumer keeps its exact historical
//! semantics (empty strings, trim rules, defaults).

use std::ffi::OsString;

/// Worker count for `util::par` (`util::par::THREADS_ENV` re-exports).
pub const THREADS: &str = "SAGE_THREADS";
/// Master switch for the obs metrics registry.
pub const OBS: &str = "SAGE_OBS";
/// Log level for the obs structured logger.
pub const LOG: &str = "SAGE_LOG";
/// Path of the JSONL trace sink, when set.
pub const TRACE_FILE: &str = "SAGE_TRACE_FILE";
/// Flight-recorder category mask spec.
pub const RECORD: &str = "SAGE_RECORD";
/// Flight-recorder per-thread ring capacity.
pub const RECORD_CAP: &str = "SAGE_RECORD_CAP";
/// Where panic-recovery paths dump the flight-recorder tail.
pub const FLIGHT_FILE: &str = "SAGE_FLIGHT_FILE";
/// Explicit path of the distilled symbolic tree.
pub const TREE: &str = "SAGE_TREE";

/// The one raw read. Everything below goes through here, so the library
/// crates' ambient surface is this single call site.
fn read(name: &str) -> Option<String> {
    std::env::var(name).ok()
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

pub fn trace_file() -> Option<String> {
    read(TRACE_FILE)
}

pub fn record() -> Option<String> {
    read(RECORD)
}

pub fn record_cap() -> Option<String> {
    read(RECORD_CAP)
}

/// `OsString` because the dump path need not be valid UTF-8.
pub fn flight_file() -> Option<OsString> {
    std::env::var_os(FLIGHT_FILE)
}

pub fn tree() -> Option<String> {
    read(TREE)
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
    fn constants_name_the_sage_namespace() {
        for name in [
            super::THREADS,
            super::OBS,
            super::LOG,
            super::TRACE_FILE,
            super::RECORD,
            super::RECORD_CAP,
            super::FLIGHT_FILE,
            super::TREE,
        ] {
            assert!(name.starts_with("SAGE_"), "{name}");
        }
    }
}
