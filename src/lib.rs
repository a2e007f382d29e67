//! # sage — data-driven congestion control, reproduced in Rust
//!
//! A full reproduction of *"Computers Can Learn from the Heuristic Designs
//! and Master Internet Congestion Control"* (Yen, Abbasloo, Chao —
//! ACM SIGCOMM 2023): the Sage system, its substrates, baselines and
//! evaluation harness.
//!
//! The workspace re-exported here:
//!
//! * [`util`] — deterministic RNG and statistics helpers.
//! * [`netsim`] — packet-level discrete-event bottleneck emulator
//!   (links, buffers, AQMs, traces; the Mahimahi substitute).
//! * [`transport`] — TCP-like reliable transport with the pluggable
//!   congestion-control trait ("TCP Pure").
//! * [`heuristics`] — the 13 kernel CC schemes of the pool plus the
//!   delay-based league (Copa, LEDBAT, C2TCP, Sprout, Vivace).
//! * [`gr`] — the General Representation unit: Table 1's 69-element state
//!   vector, cwnd-ratio actions, dual rewards.
//! * [`nn`] — from-scratch autodiff, GRU/GMM/LayerNorm layers, Adam.
//! * [`collector`] — Set I / Set II environment grids and trajectory pools.
//! * [`core`] — CRR offline RL, behavioral cloning, online baselines, and
//!   the deployable `SagePolicy`.
//! * [`eval`] — scores, winning rates, leagues, Distance/Similarity, t-SNE.
//! * [`serve`] — batched multi-flow policy serving: slab flow table, timer
//!   wheel, one matrix forward per tick, heuristic fallback.
//!
//! See `examples/quickstart.rs` for a two-minute tour and
//! `examples/train_sage_mini.rs` for the full pipeline in miniature.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use sage_collector as collector;
pub use sage_core as core;
pub use sage_eval as eval;
pub use sage_gr as gr;
pub use sage_heuristics as heuristics;
pub use sage_netsim as netsim;
pub use sage_nn as nn;
pub use sage_serve as serve;
pub use sage_transport as transport;
pub use sage_util as util;
