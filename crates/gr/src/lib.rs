//! The General Representation (GR) unit — paper §4.1.
//!
//! Treats every congestion-control scheme as a black box and records, at each
//! monitor timestep, (1) a 69-element state vector of *raw* socket signals at
//! three timescales (Table 1), (2) the scheme's action expressed as the
//! congestion-window ratio `a_t = cwnd_t / cwnd_{t-1}`, and (3) two reward
//! signals: single-flow Power (Eq. 1) and TCP-friendliness (Eq. 2).
//!
//! [`action`] is the other direction of the same contract: the codec that
//! turns those ratios into the scaled log-actions a policy trains on and
//! back, and the observe→act loop ([`CwndActor`]) every learned controller
//! deploys through.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod action;
pub mod mask;
pub mod reward;
pub mod state;

pub use action::{encode_ratio, log_ratio, CwndActor};
pub use mask::FeatureMask;
pub use reward::{reward_friendliness, reward_power, RewardParams};
pub use state::{GrConfig, GrStep, GrUnit, STATE_DIM, STATE_NAMES};
