//! The contenders an evaluation can enter: heuristics, learned models,
//! hybrids and the BDP oracle. [`Contender::rollout`] is the one place a
//! contender is built and run through an environment; the evaluation
//! matrix, the figures and the tests all call it.

use sage_collector::{rollout, EnvSpec, RolloutResult};
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
    /// The BDP oracle (Indigo's teacher), rated at the test flow's fair
    /// share of the path: its capacity over the competing Cubic flows plus
    /// itself.
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
            Contender::Oracle => {
                let share = env.capacity_mbps / (env.competing_cubic + 1) as f64;
                Box::new(OracleCc::new(share, env.rtt_ms))
            }
        }
    }

    /// Roll this contender through `env` at `seed`: one controller per flow
    /// of the scheme under test, recorded through [`Contender::gr_cfg`].
    pub fn rollout(&self, env: &EnvSpec, seed: u64) -> RolloutResult {
        rollout(
            env,
            self.name(),
            |s| self.build(env, s),
            self.gr_cfg(),
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_collector::set2_grid;

    /// In Set II one Cubic flow competes, so the oracle tracks half the
    /// link — the window of an oracle told half the capacity.
    #[test]
    fn oracle_rates_a_set2_path_at_its_fair_share() {
        let env = set2_grid(3.0)
            .into_iter()
            .find(|e| e.id == "s2-bw24-rtt40-q2")
            .expect("grid scenario");
        let half = |_| -> Box<dyn CongestionControl> {
            Box::new(OracleCc::new(env.capacity_mbps / 2.0, env.rtt_ms))
        };
        let by_hand = rollout(&env, "oracle", half, GrConfig::default(), 3);
        let contender = Contender::Oracle.rollout(&env, 3);
        assert_eq!(contender.traj.cwnd, by_hand.traj.cwnd);
        let full = OracleCc::new(env.capacity_mbps, env.rtt_ms).bdp_pkts;
        let cwnd_max = contender.traj.cwnd.iter().fold(0.0f32, |m, &w| m.max(w));
        assert!(
            f64::from(cwnd_max) < full,
            "the oracle tracks its share, not the whole path"
        );
    }
}
