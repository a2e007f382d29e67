//! Online counterparts of Sage used in the §6.2 ML-league comparison.
//!
//! * [`OnlineRlTrainer`] — "OnlineRL": identical inputs, rewards, network and
//!   update rule as Sage, but the data is collected *by the current policy
//!   itself*, iteratively, from the training environments (online
//!   off-policy learning with a replay buffer). This is the counterpart the
//!   paper builds to show that online RL struggles over large env sets.
//! * Aurora-like mode (`on_policy = true`) — an online *on-policy* learner:
//!   single-flow (Power) reward only, each iteration trains only on the data
//!   it just collected.

use crate::crr::{CrrConfig, CrrTrainer};
use crate::model::SageModel;
use crate::policy::{ActionMode, SagePolicy};
use sage_collector::{rollout, EnvSpec, Pool};
use sage_gr::GrConfig;
use sage_transport::CongestionControl;
use sage_util::Rng;
use std::sync::Arc;

/// Shared driver for online learners: alternate policy rollouts (data
/// collection) with gradient updates.
pub struct OnlineRlTrainer {
    pub trainer: CrrTrainer,
    pub replay: Pool,
    /// Replay capacity in trajectories (FIFO eviction).
    pub capacity: usize,
    /// On-policy mode: clear the replay before each collection phase
    /// (Aurora-style); off-policy keeps it (OnlineRL-style).
    pub on_policy: bool,
    gr_cfg: GrConfig,
    rng: Rng,
    iteration: u64,
}

impl OnlineRlTrainer {
    pub fn new(
        cfg: CrrConfig,
        gr_cfg: GrConfig,
        norm_mean: Vec<f64>,
        norm_std: Vec<f64>,
        on_policy: bool,
    ) -> Self {
        OnlineRlTrainer {
            trainer: CrrTrainer::with_norm(cfg, norm_mean, norm_std),
            replay: Pool::new(),
            capacity: 256,
            on_policy,
            gr_cfg,
            rng: Rng::new(cfg.seed ^ 0x0411),
            iteration: 0,
        }
    }

    /// One iteration: roll the current (stochastic) policy through
    /// `rollouts_per_iter` sampled environments, then take `grad_steps`
    /// updates on the replay.
    pub fn iterate(&mut self, envs: &[EnvSpec], rollouts_per_iter: usize, grad_steps: u64) {
        self.iteration += 1;
        if self.on_policy {
            self.replay = Pool::new();
        }
        for _ in 0..rollouts_per_iter {
            let env = self.rng.choose(envs).clone();
            // Snapshot the current model for acting.
            let model = Arc::new(self.snapshot_model());
            let (policy_seed, roll_seed) = (self.rng.next_u64(), self.rng.next_u64());
            let gr_cfg = self.gr_cfg;
            let mk = |_| -> Box<dyn CongestionControl> {
                let mode = ActionMode::Sample;
                Box::new(SagePolicy::new(model.clone(), gr_cfg, policy_seed, mode))
            };
            let res = rollout(&env, "online", mk, gr_cfg, roll_seed);
            self.replay.trajectories.push(res.traj);
            while self.replay.trajectories.len() > self.capacity {
                self.replay.trajectories.remove(0);
            }
        }
        for _ in 0..grad_steps {
            self.trainer.train_step(&self.replay);
        }
    }

    /// Clone the current model parameters into a standalone model.
    pub fn snapshot_model(&self) -> SageModel {
        let src = self.trainer.model();
        let mut m = SageModel::new(src.cfg, src.norm_mean.clone(), src.norm_std.clone(), 0);
        m.store.copy_values_from(&src.store);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetConfig;
    use sage_collector::training_envs;
    use sage_gr::STATE_DIM;

    fn tiny_cfg() -> CrrConfig {
        CrrConfig {
            net: NetConfig {
                enc1: 8,
                gru: 8,
                enc2: 8,
                fc: 8,
                residual_blocks: 1,
                critic_hidden: 16,
                atoms: 11,
                ..NetConfig::default()
            },
            batch: 4,
            unroll: 4,
            seed: 9,
            ..CrrConfig::default()
        }
    }

    #[test]
    fn online_loop_collects_and_trains() {
        let envs = training_envs(2, 1, 3.0, 11);
        let mut t = OnlineRlTrainer::new(
            tiny_cfg(),
            GrConfig::default(),
            vec![0.0; STATE_DIM],
            vec![1.0; STATE_DIM],
            false,
        );
        t.iterate(&envs, 2, 5);
        assert_eq!(t.replay.trajectories.len(), 2);
        assert!(t.trainer.steps_done() >= 5);
        t.iterate(&envs, 1, 2);
        assert_eq!(t.replay.trajectories.len(), 3, "off-policy keeps replay");
    }

    #[test]
    fn on_policy_mode_discards_replay() {
        let envs = training_envs(1, 1, 3.0, 13);
        let mut t = OnlineRlTrainer::new(
            tiny_cfg(),
            GrConfig::default(),
            vec![0.0; STATE_DIM],
            vec![1.0; STATE_DIM],
            true,
        );
        t.iterate(&envs, 2, 2);
        t.iterate(&envs, 1, 2);
        assert_eq!(t.replay.trajectories.len(), 1, "on-policy discards history");
    }
}
