//! A minimal property-testing harness.
//!
//! The workspace dropped its external property-testing dependency so tier-1
//! stays offline; this module keeps the idiom alive with the few pieces the
//! test suites actually use: a seeded case generator and a shrink-free
//! `forall` runner. Each case gets an independent RNG stream split from the
//! run seed, and a failure panics with the case index and the exact stream
//! seed so the case can be replayed in isolation:
//!
//! ```
//! use sage_util::prop::{forall, PropConfig};
//! forall("mean within bounds", PropConfig::default(), |rng| {
//!     let x = rng.range(-1.0, 1.0);
//!     if x.abs() <= 1.0 { Ok(()) } else { Err(format!("|{x}| > 1")) }
//! });
//! ```

use crate::rng::Rng;

/// How a property run is driven.
#[derive(Debug, Clone, Copy)]
pub struct PropConfig {
    /// Number of generated cases.
    pub cases: usize,
    /// Seed of the whole run; each case splits its own stream from it.
    pub seed: u64,
}

impl Default for PropConfig {
    fn default() -> Self {
        PropConfig {
            cases: 100,
            seed: 0x5A6E_BA5E,
        }
    }
}

impl PropConfig {
    pub fn new(cases: usize, seed: u64) -> Self {
        PropConfig { cases, seed }
    }
}

/// Run `prop` over `cfg.cases` independently seeded cases. The property
/// returns `Err(reason)` (or panics) to fail; the harness panics with the
/// property name, case number, and the case's stream seed for replay.
///
/// # Panics
///
/// Panics on the first failing case — that is the harness's
/// failure-reporting mechanism.
#[expect(
    clippy::panic,
    reason = "panicking IS the harness's failure-reporting mechanism — it is what makes the test runner fail"
)]
pub fn forall<F>(name: &str, cfg: PropConfig, mut prop: F)
where
    F: FnMut(&mut Rng) -> Result<(), String>,
{
    for case in 0..cfg.cases {
        let stream_seed = Rng::stream_seed(cfg.seed, case as u64);
        let mut rng = Rng::new(stream_seed);
        if let Err(reason) = prop(&mut rng) {
            panic!(
                "property '{name}' failed at case {case}/{} (replay with Rng::new({stream_seed:#x})): {reason}",
                cfg.cases
            );
        }
    }
}

/// Check helper: turn a boolean into the `Result` shape `forall` expects.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0;
        forall("always ok", PropConfig::new(37, 1), |_| {
            count += 1;
            Ok(())
        });
        assert_eq!(count, 37);
    }

    #[test]
    fn failing_property_panics_with_context() {
        let r = std::panic::catch_unwind(|| {
            forall("fails at 5", PropConfig::new(10, 2), |rng| {
                let _ = rng.next_u64();
                Err("nope".to_string())
            });
        });
        let msg = match r {
            Err(p) => *p.downcast::<String>().expect("panic payload is a String"),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("fails at 5"), "{msg}");
        assert!(msg.contains("case 0/10"), "{msg}");
        assert!(msg.contains("replay with"), "{msg}");
    }

    #[test]
    fn cases_see_independent_streams() {
        let mut firsts = Vec::new();
        forall("collect first draws", PropConfig::new(16, 3), |rng| {
            firsts.push(rng.next_u64());
            Ok(())
        });
        let mut dedup = firsts.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), firsts.len(), "case streams collided");
    }

    #[test]
    fn ensure_maps_bool_to_result() {
        assert!(ensure(true, || "x".into()).is_ok());
        assert_eq!(ensure(false, || "bad".into()), Err("bad".to_string()));
    }
}
