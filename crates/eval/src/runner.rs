//! The contenders an evaluation can enter: heuristics, learned models,
//! hybrids and the BDP oracle. [`Contender::rollout`] is the one place a
//! contender is built and run through an environment; the evaluation
//! matrix, the figures and the tests all call it.

use sage_collector::{rollout, EnvSpec, Record, RolloutResult};
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
    /// of the scheme under test, recorded as a `T` — a full trajectory
    /// through [`Contender::gr_cfg`], or the series alone.
    pub fn rollout<T: Record>(&self, env: &EnvSpec, seed: u64) -> RolloutResult<T> {
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
    use crate::matrix::scenarios_multihop;
    use sage_collector::{set1_flat_grid, set2_grid, Series, Trajectory};
    use sage_core::model::NetConfig;
    use sage_gr::STATE_DIM;

    /// Recording only watches: a heuristic, a learned model and the oracle,
    /// each on a Set I path, a Set II path and the 4-hop parking lot, record
    /// the same series with or without the GR unit, over the same run.
    #[test]
    fn series_rollout_runs_what_the_full_rollout_runs() {
        let net = NetConfig {
            enc1: 8,
            gru: 8,
            enc2: 8,
            fc: 8,
            residual_blocks: 1,
            critic_hidden: 8,
            ..NetConfig::default()
        };
        let model = Arc::new(SageModel::new(
            net,
            vec![0.0; STATE_DIM],
            vec![1.0; STATE_DIM],
            3,
        ));
        let secs = 4.0;
        let pick = |envs: Vec<EnvSpec>, id: &str| {
            envs.into_iter()
                .find(|e| e.id == id)
                .unwrap_or_else(|| panic!("no scenario {id}"))
        };
        let envs = [
            pick(set1_flat_grid(secs), "s1-flat-bw24-rtt40-q2"),
            pick(set2_grid(secs), "s2-bw24-rtt40-q2"),
            pick(
                scenarios_multihop(secs)
                    .into_iter()
                    .map(|s| s.env)
                    .collect(),
                "mh-parking-3",
            ),
        ];
        let contenders = [
            Contender::Heuristic("cubic"),
            Contender::Model {
                name: "sage",
                model,
                gr_cfg: GrConfig::default(),
            },
            Contender::Oracle,
        ];
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for env in &envs {
            for c in &contenders {
                let what = format!("{} on {}", c.name(), env.id);
                let series = c.rollout::<Series>(env, 9);
                let full = c.rollout::<Trajectory>(env, 9);
                assert!(
                    series.traj.len() > 300,
                    "{what}: {} ticks",
                    series.traj.len()
                );
                assert_eq!(series.traj.len(), full.traj.len(), "{what}");
                assert_eq!(full.traj.states.len(), full.traj.len(), "{what}");
                for (name, a, b) in [
                    ("thr", &series.traj.thr, &full.traj.thr),
                    ("owd", &series.traj.owd, &full.traj.owd),
                    ("cwnd", &series.traj.cwnd, &full.traj.cwnd),
                ] {
                    assert_eq!(bits(a), bits(b), "{what}: {name}");
                }
                // Debug prints each float's shortest exact form, and a
                // `FlowStats` per flow, in flow order.
                assert_eq!(
                    format!("{:?}", series.all_stats),
                    format!("{:?}", full.all_stats),
                    "{what}"
                );
                assert_eq!(
                    format!("{:?}", series.stats),
                    format!("{:?}", full.stats),
                    "{what}"
                );
            }
        }
    }

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
        let by_hand = rollout::<Series>(&env, "oracle", half, GrConfig::default(), 3);
        let contender = Contender::Oracle.rollout::<Series>(&env, 3);
        assert_eq!(contender.traj.cwnd, by_hand.traj.cwnd);
        let full = OracleCc::new(env.capacity_mbps, env.rtt_ms).bdp_pkts;
        let cwnd_max = contender.traj.cwnd.iter().fold(0.0f32, |m, &w| m.max(w));
        assert!(
            f64::from(cwnd_max) < full,
            "the oracle tracks its share, not the whole path"
        );
    }
}
