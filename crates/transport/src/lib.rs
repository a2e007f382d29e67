//! A TCP-like reliable transport with a pluggable congestion-control trait —
//! the role the paper's *TCP Pure* kernel module plays.
//!
//! The paper treats every congestion-control algorithm (CCA) as a black box
//! behind kernel socket APIs: the CCA observes ACK-clocked signals and sets a
//! congestion window; the kernel handles sequencing, loss detection, RTT
//! estimation and retransmission. This crate reproduces that separation:
//!
//! * [`cc::CongestionControl`] — the CCA hook interface (kernel-style
//!   callbacks: ACKs, congestion events, RTO, periodic ticks).
//! * [`cc::SocketView`] — the statistics snapshot equivalent to
//!   `tcp_info`/socket options, consumed both by CCAs and by the General
//!   Representation unit in `sage-gr`.
//! * [`flow`] — per-flow sender/receiver machinery: cumulative ACKs with
//!   SACK-equivalent accounting, dup-ACK fast retransmit, NewReno-style
//!   partial-ACK retransmission, RFC 6298 RTO, Karn's rule, BBR-style
//!   delivery-rate sampling.
//! * [`sim`] — the discrete-event simulation binding flows to a
//!   `sage-netsim` bottleneck path.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cc;
pub mod flow;
pub mod rate;
pub mod rtt;
pub mod sim;

pub use cc::{AckEvent, CaState, CongestionControl, RemoteCwnd, SharedCwnd, SocketView};
pub use flow::Flow;
pub use sim::{
    BatchCc, BatchObs, FlowConfig, FlowStats, HopCounters, SimConfig, Simulation, TickRecord,
};

/// Default maximum segment size used throughout the reproduction (bytes on
/// the wire; we do not model header overhead separately).
pub const MSS: u32 = 1500;

/// Initial congestion window in packets (IW10, RFC 6928).
pub const INIT_CWND: f64 = 10.0;

/// Minimum congestion window in packets.
pub const MIN_CWND: f64 = 2.0;
