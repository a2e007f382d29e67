//! sage-serve — a policy-serving runtime for many concurrent flows.
//!
//! The paper's Execution block, as [`sage_core::SagePolicy`] deploys it, runs
//! one network forward per flow per 10 ms monitor interval. That is fine for a
//! single connection, but a server terminating hundreds of flows would pay
//! hundreds of independent matrix-vector passes per tick. This crate turns
//! that into a serving problem:
//!
//! * [`table::FlowTable`] — a slab-allocated table of persistent per-flow
//!   state (the flow's `CwndActor`, GRU hidden vector, RNG, fallback
//!   controller).
//!   Slab indices plus an ordered key index; no hash maps anywhere, so
//!   iteration order is a deterministic function of the admission sequence.
//! * [`wheel::TimerWheel`] — schedules each flow on its own monitor
//!   interval; all flows due on the same tick are batched together.
//! * [`runtime::ServeRuntime`] — folds every due flow's observation into
//!   one `[B, D]` matrix and runs a single batched forward
//!   ([`sage_core::model::PolicyNet::step_infer`]) that is **bit-identical**
//!   to evaluating each row alone. Flows whose turn slips
//!   past a staleness deadline degrade gracefully to a tick-driven AIMD
//!   fallback ([`sage_heuristics::fallback::TickAimd`]).
//! * [`scenario::run_many_flow`] — drives the runtime end-to-end through a
//!   shared-bottleneck [`sage_netsim::ManyFlowScenario`] (N batch-served
//!   learned flows + M heuristic cross-traffic flows on one link).
//!
//! Determinism contract: the flow-table digest ([`runtime::ServeRuntime::digest`])
//! is byte-identical at any `SAGE_THREADS` setting — batching is chunked at a
//! fixed row count and reduced in index order via `sage_util::par`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod runtime;
pub mod scenario;
pub mod table;
pub mod wheel;

pub use runtime::{ServeAction, ServeConfig, ServeMode, ServeRuntime, ServeStats};
pub use scenario::{run_many_flow, ManyFlowReport};
pub use table::{FlowEntry, FlowKey, FlowTable, Tier};
pub use wheel::TimerWheel;
