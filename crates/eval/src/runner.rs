//! The contenders an evaluation can enter: heuristics, learned models,
//! hybrids and the BDP oracle. [`crate::matrix::run_matrix`] is the one
//! place a contender meets an environment.

use sage_collector::EnvSpec;
use sage_core::baselines::{HybridPolicy, OracleCc};
use sage_core::policy::{ActionMode, SagePolicy};
use sage_core::SageModel;
use sage_gr::GrConfig;
use sage_heuristics::build;
use sage_transport::CongestionControl;
use std::sync::Arc;

/// Something that can be entered into a league.
#[derive(Clone)]
pub enum Contender {
    /// A heuristic from `sage-heuristics` by name.
    Heuristic(&'static str),
    /// A learned model deployed through the Execution block.
    Model {
        name: &'static str,
        model: Arc<SageModel>,
        gr_cfg: GrConfig,
    },
    /// An Orca-like hybrid (Cubic x learned multiplier).
    Hybrid {
        name: &'static str,
        model: Arc<SageModel>,
        gr_cfg: GrConfig,
    },
    /// The BDP oracle (Indigo's teacher).
    Oracle,
}

impl Contender {
    pub fn name(&self) -> &'static str {
        match self {
            Contender::Heuristic(n) => n,
            Contender::Model { name, .. } => name,
            Contender::Hybrid { name, .. } => name,
            Contender::Oracle => "oracle",
        }
    }

    /// The GR timescales the rollout records this contender with: a learned
    /// contender's own, the default for everything else.
    pub fn gr_cfg(&self) -> GrConfig {
        match self {
            Contender::Model { gr_cfg, .. } | Contender::Hybrid { gr_cfg, .. } => *gr_cfg,
            _ => GrConfig::default(),
        }
    }

    /// Instantiate the congestion controller for one run.
    ///
    /// # Panics
    ///
    /// Panics if a heuristic contender names a scheme missing from the
    /// registry — league tables are static, so this is a programming error.
    pub fn build(&self, env: &EnvSpec, seed: u64) -> Box<dyn CongestionControl> {
        match self {
            #[expect(
                clippy::panic,
                reason = "league contender names are fixed tables checked against the registry; an unknown name is a programming error"
            )]
            Contender::Heuristic(n) => build(n, seed).unwrap_or_else(|| panic!("unknown {n}")),
            Contender::Model {
                name,
                model,
                gr_cfg,
            } => Box::new(
                SagePolicy::new(model.clone(), *gr_cfg, seed, ActionMode::Deterministic)
                    .with_name(name),
            ),
            Contender::Hybrid {
                name,
                model,
                gr_cfg,
            } => Box::new(HybridPolicy::new(model.clone(), *gr_cfg).with_name(name)),
            Contender::Oracle => Box::new(OracleCc::new(env.capacity_mbps, env.rtt_ms)),
        }
    }
}
