//! Packet-level discrete-event network emulator — the Mahimahi substitute.
//!
//! The paper runs each congestion-control scheme through a Mahimahi-emulated
//! bottleneck (one queue, one rate-limited link, fixed propagation delay, an
//! optional AQM). This crate models exactly that data path:
//!
//! ```text
//! sender(s) --> [ BottleneckQueue + AQM ] --> Link(rate(t)) --> prop delay --> receiver
//!                                    ACKs <-- fixed-delay return path <--
//! ```
//!
//! The crate is deliberately synchronous: congestion-control simulation is
//! CPU-bound, so (per the networking guides bundled with this project) an
//! async runtime would add overhead without benefit. The [`engine::EventQueue`]
//! provides deterministic discrete-event ordering.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod aqm;
pub mod engine;
pub mod faults;
pub mod internet;
pub mod link;
pub mod packet;
pub mod queue;
pub mod scenario;
pub mod time;
pub mod topology;

pub use aqm::{Aqm, AqmKind};
pub use engine::EventQueue;
pub use faults::{FaultInjector, FaultPlan, FaultStats, FlapPlan, ForwardVerdict, GilbertElliott};
pub use link::LinkModel;
pub use packet::Packet;
pub use queue::{BottleneckPath, EnqueueOutcome};
pub use scenario::ManyFlowScenario;
pub use time::{Nanos, MICROS, MILLIS, SECONDS};
pub use topology::{HopSpec, Topology};
