//! Heuristic congestion-control schemes.
//!
//! This crate re-implements, against the `sage-transport` CCA trait, the 13
//! Linux-kernel schemes that form Sage's pool of policies (§5):
//! Westwood, Cubic, Vegas, YeAH, BBR(v2-style), NewReno, Illinois, Veno,
//! HighSpeed, CDG, HTCP, BIC, Hybla — plus the delay-based league of §6.3
//! (Copa, LEDBAT, C2TCP-style, Sprout-style) and a Vivace-style
//! online-learning utility-gradient scheme used in the ML league.
//!
//! Control laws follow the original papers/kernel sources, simplified where a
//! mechanism depends on kernel details that do not exist in the emulation
//! (e.g. TSO/pacing interactions); each file's header documents deviations.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod common;

#[cfg(test)]
pub(crate) mod testutil;

pub mod bbr;
pub mod bic;
pub mod c2tcp;
pub mod cdg;
pub mod copa;
pub mod cubic;
pub mod fallback;
pub mod highspeed;
pub mod htcp;
pub mod hybla;
pub mod illinois;
pub mod ledbat;
pub mod newreno;
pub mod sprout;
pub mod vegas;
pub mod veno;
pub mod vivace;
pub mod westwood;
pub mod yeah;

pub mod registry;

pub use registry::{build, delay_league_names, pool_names, POOL_SCHEMES};
