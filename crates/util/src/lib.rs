//! Deterministic RNG, math and statistics helpers shared across the Sage workspace.
//!
//! Every stochastic component in this reproduction (trace generation, neural-net
//! initialisation, GMM sampling, environment subsampling) draws from the
//! [`Rng`] defined here, so a run is fully determined by its seeds. We use our
//! own xoshiro256++ instead of the `rand` crate so that simulation results are
//! reproducible byte-for-byte across dependency upgrades.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod env_cfg;
pub mod fsio;
pub mod json;
pub mod par;
pub mod prop;
pub mod ring;
pub mod rng;
pub mod stats;

pub use fsio::{atomic_write, atomic_write_checksummed, crc32, fnv1a64, read_checksummed, Fnv64};
pub use json::{Json, JsonError};
pub use par::{configured_threads, par_map, par_map_range, resolve_threads, THREADS_ENV};
pub use prop::{forall, PropConfig};
pub use ring::RingWindow;
pub use rng::Rng;
pub use stats::{downsample_mean, mean, percentile, stddev, Ewma, OnlineStats};
