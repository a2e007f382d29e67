//! The Policy Collector (paper §4.1/§5): generates Set I and Set II network
//! environments, rolls congestion-control schemes through them while the GR
//! unit records `{state, action, reward}` trajectories, and stores the
//! resulting pool of policies.
//!
//! Collection happens once, before training; afterwards "all environments
//! are unplugged" — the learner in `sage-core` touches only the [`pool::Pool`]
//! file, never a network environment.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod env;
pub mod pool;
pub mod rollout;
pub mod states;
pub mod supervise;

pub use env::{set1_flat_grid, set1_step_grid, set2_grid, training_envs, EnvSpec, SetKind};
pub use pool::{Pool, Trajectory};
pub use rollout::{cell_span_base, rollout, Record, RolloutResult, Series};
pub use states::States;
pub use supervise::{collect_pool, collect_pool_with_threads};
