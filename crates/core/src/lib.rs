//! Sage's Core Learning block (§4.2) and Execution block (§3).
//!
//! * [`model`] — the policy network of Fig. 6 (encoder → GRU → encoder →
//!   FC → 2x residual blocks → GMM head) and a categorical distributional
//!   critic, both scaled configurably.
//! * [`crr`] — the data-driven (offline) RL trainer: Critic-Regularized
//!   Regression with a distributional TD critic and target networks
//!   (Eq. 5/6), plus the pure behavioral-cloning mode used by the BC
//!   baselines of §6.2.
//! * [`online`] — online counterparts: `OnlineRL` (same inputs/rewards/nets
//!   as Sage, trained with online off-policy updates) and an Aurora-like
//!   on-policy learner.
//! * [`baselines`] — Indigo-like oracle imitation and Orca-like hybrid
//!   (Cubic x learned multiplier) stand-ins.
//! * [`policy`] — a trained model as a `CongestionControl` implementation,
//!   driving the Execution block (`sage_gr::action`: observe → act).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod baselines;
pub mod crr;
pub mod model;
pub mod online;
pub mod policy;

pub use crr::{CrrConfig, CrrTrainer};
pub use model::{NetConfig, SageModel};
pub use policy::{ActionMode, SagePolicy, MAX_CWND};
