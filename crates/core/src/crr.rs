//! Critic-Regularized Regression (Wang et al. 2020) — Sage's main learning
//! algorithm (paper Eq. 5/6).
//!
//! Policy evaluation: a categorical distributional critic trained by
//! projected Bellman targets through target networks. Policy improvement:
//! advantage-weighted log-likelihood, `f = clip(exp(A/beta))`, which "learns
//! good actions from D and avoids taking unknown problematic actions".
//! With `bc_only` the filter is constant 1 — exactly the behavioral-cloning
//! baselines of §6.2.

// The trainer walks several parallel per-timestep arrays (states, actions,
// rewards, bootstrap values) with shared indices; index loops keep those
// alignments explicit where iterator zips would bury them.
#![allow(clippy::needless_range_loop)]

use crate::model::{
    CriticNet, NetConfig, PolicyNet, SageModel, SCALED_ACTION_MAX, SCALED_ACTION_MIN,
};
use sage_collector::Pool;
use sage_nn::{Adam, Array, Graph, ParamStore};
use sage_util::Rng;

/// One sampled training batch: per-timestep state matrices [B, D],
/// per-timestep actions (ln ratio), and rewards.
type Batch = (Vec<Array>, Vec<Vec<f64>>, Vec<Vec<f64>>);

/// Trainer hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct CrrConfig {
    pub net: NetConfig,
    /// Sequences per batch.
    pub batch: usize,
    /// BPTT unroll length.
    pub unroll: usize,
    pub gamma: f64,
    /// Advantage temperature (beta in `exp(A/beta)`).
    pub beta: f64,
    /// Clip for the advantage weight.
    pub weight_clip: f64,
    pub lr: f64,
    pub critic_lr: f64,
    /// Hard target-network refresh period (gradient steps).
    pub target_period: u64,
    /// Behavioral cloning mode: constant filter, no critic.
    pub bc_only: bool,
    /// Number of policy samples for the advantage baseline (m in Eq. 6).
    pub adv_samples: usize,
    pub seed: u64,
    /// Worker threads for per-sample gradient computation (`0` = the
    /// process-wide default from `SAGE_THREADS`, `1` = serial). The batch is
    /// always decomposed per sample and reduced in sample order, so the
    /// updated parameters are bit-identical at every thread count.
    pub threads: usize,
}

impl Default for CrrConfig {
    fn default() -> Self {
        CrrConfig {
            net: NetConfig::default(),
            batch: 16,
            unroll: 8,
            gamma: 0.99,
            beta: 0.3,
            weight_clip: 20.0,
            lr: 3e-4,
            critic_lr: 3e-4,
            target_period: 100,
            bc_only: false,
            adv_samples: 4,
            seed: 1,
            threads: 0,
        }
    }
}

/// Metrics from one gradient step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepMetrics {
    pub policy_loss: f64,
    pub critic_loss: f64,
    pub mean_weight: f64,
    pub mean_q: f64,
}

/// The CRR trainer.
pub struct CrrTrainer {
    pub cfg: CrrConfig,
    model: SageModel,
    critic_store: ParamStore,
    critic: CriticNet,
    target_policy_store: ParamStore,
    target_policy: PolicyNet,
    target_critic_store: ParamStore,
    target_critic: CriticNet,
    policy_opt: Adam,
    critic_opt: Adam,
    rng: Rng,
    steps_done: u64,
    /// Cached indices of "active" steps (|ln a| above threshold) per
    /// trajectory, for prioritised window sampling. Invalidated when the pool
    /// changes size (online learners grow their replay).
    active_cache: Option<(usize, usize, Vec<Vec<u32>>)>,
}

impl CrrTrainer {
    /// Build a trainer; `pool` supplies input standardisation statistics.
    pub fn new(cfg: CrrConfig, pool: &Pool) -> Self {
        let (mean, std) = pool.feature_stats();
        Self::with_norm(cfg, mean, std)
    }

    pub fn with_norm(cfg: CrrConfig, mean: Vec<f64>, std: Vec<f64>) -> Self {
        let model = SageModel::new(cfg.net, mean.clone(), std.clone(), cfg.seed);
        let mut rng = Rng::new(cfg.seed ^ 0xC417);
        let mut critic_store = ParamStore::new();
        let critic = CriticNet::new(&mut critic_store, "q", cfg.net, &mut rng);

        // Target networks: same structure, values copied.
        let mut tp_store = ParamStore::new();
        let mut tp_rng = Rng::new(cfg.seed);
        let target_policy = PolicyNet::new(&mut tp_store, "pi", cfg.net, &mut tp_rng);
        tp_store.copy_values_from(&model.store);
        let mut tc_store = ParamStore::new();
        let mut tc_rng = Rng::new(cfg.seed ^ 0xC417);
        let target_critic = CriticNet::new(&mut tc_store, "q", cfg.net, &mut tc_rng);
        tc_store.copy_values_from(&critic_store);

        CrrTrainer {
            model,
            critic_store,
            critic,
            target_policy_store: tp_store,
            target_policy,
            target_critic_store: tc_store,
            target_critic,
            policy_opt: Adam::new(cfg.lr),
            critic_opt: Adam::new(cfg.critic_lr),
            rng: Rng::new(cfg.seed ^ 0xBA7C),
            steps_done: 0,
            active_cache: None,
            cfg,
        }
    }

    pub fn model(&self) -> &SageModel {
        &self.model
    }

    pub fn into_model(self) -> SageModel {
        self.model
    }

    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// Rebuild (if stale) and return the per-trajectory indices of steps
    /// whose action meaningfully deviates from ratio 1.0. The vast majority
    /// of per-10 ms cwnd ratios are exactly 1.0; sampling half of each batch
    /// around *active* steps sharpens the conditional signal the policy must
    /// learn (prioritised experience sampling).
    fn active_steps(&mut self, pool: &Pool) -> &Vec<Vec<u32>> {
        let key = (pool.trajectories.len(), pool.total_steps());
        let stale = match &self.active_cache {
            Some((a, b, _)) => (*a, *b) != key,
            None => true,
        };
        if stale {
            let idx: Vec<Vec<u32>> = pool
                .trajectories
                .iter()
                .map(|t| {
                    t.actions
                        .iter()
                        .enumerate()
                        .filter(|(_, &a)| (a as f64).ln().abs() > 0.01)
                        .map(|(i, _)| i as u32)
                        .collect()
                })
                .collect();
            self.active_cache = Some((key.0, key.1, idx));
        }
        // lint:allow(P1): the branch above just stored Some for this key, so the cache is provably populated
        &self.active_cache.as_ref().unwrap().2
    }

    /// Sample a batch of (L+1)-step windows; returns per-timestep state
    /// matrices [B, D], per-timestep actions (ln ratio) and rewards.
    fn sample_batch(&mut self, pool: &Pool) -> Option<Batch> {
        let l = self.cfg.unroll;
        self.active_steps(pool);
        let eligible: Vec<usize> = pool
            .trajectories
            .iter()
            .enumerate()
            .filter(|(_, t)| t.len() >= l + 2)
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let b = self.cfg.batch;
        let d = self.cfg.net.input_dim();
        let mut states: Vec<Array> = (0..=l).map(|_| Array::zeros(b, d)).collect();
        let mut actions: Vec<Vec<f64>> = vec![vec![0.0; b]; l];
        let mut rewards: Vec<Vec<f64>> = vec![vec![0.0; b]; l];
        for bi in 0..b {
            let ti = *self.rng.choose(&eligible);
            let traj = &pool.trajectories[ti];
            let max_start = traj.len() - l - 1;
            let mut start = self.rng.below(max_start);
            // Half the batch: centre the window on an active step when the
            // trajectory has any.
            if bi % 2 == 0 {
                // lint:allow(P1): active_steps(pool) at the top of sample_batch populated the cache for this pool
                let actives = &self.active_cache.as_ref().unwrap().2[ti];
                if !actives.is_empty() {
                    let pick = actives[self.rng.below(actives.len())] as usize;
                    start = pick.saturating_sub(l / 2).min(max_start - 1);
                }
            }
            for t in 0..=l {
                let full: Vec<f64> = traj.state(start + t).iter().map(|&x| x as f64).collect();
                let x = self.model.prepare_input(&full);
                for (c, v) in x.iter().enumerate() {
                    *states[t].at_mut(bi, c) = *v;
                }
            }
            for t in 0..l {
                actions[t][bi] = sage_gr::encode_ratio(traj.actions[start + t] as f64);
                rewards[t][bi] = traj.reward(start + t + 1) as f64;
            }
        }
        Some((states, actions, rewards))
    }

    /// One gradient step of policy evaluation + policy improvement.
    ///
    /// # Panics
    ///
    /// Panics if the configured `unroll` is zero — every constructed
    /// `CrrConfig` uses `unroll >= 1` (default 8), so this is a programming
    /// error worth crashing on.
    pub fn train_step(&mut self, pool: &Pool) -> StepMetrics {
        let _prof = sage_obs::scope("crr_step");
        // lint:allow(D2): obs-gated wall clock feeding the write-only samples-per-sec gauge; never read back into training
        let step_start = sage_obs::enabled().then(std::time::Instant::now);
        let (states, actions, rewards) = match self.sample_batch(pool) {
            Some(x) => x,
            None => return StepMetrics::default(),
        };
        let l = self.cfg.unroll;
        let b = self.cfg.batch;
        let mut metrics = StepMetrics::default();

        // ----- Policy evaluation (critic), skipped in BC mode -----
        if !self.cfg.bc_only {
            // a' ~ target policy at the bootstrap state s_L (n-step returns
            // bootstrap only at the end of the unroll window).
            let mut tg = Graph::new();
            let mut h = self.target_policy.initial_hidden(&mut tg, b);
            let mut boot_actions: Vec<f64> = vec![0.0; b];
            for t in 0..=l {
                let x = tg.input(states[t].clone());
                let (nodes, h1) = self
                    .target_policy
                    .step(&mut tg, &self.target_policy_store, x, h);
                h = h1;
                if t == l {
                    for (bi, slot) in boot_actions.iter_mut().enumerate() {
                        let mix = self.target_policy.mixture(&tg, nodes, bi);
                        *slot = mix
                            .sample(&mut self.rng)
                            .clamp(SCALED_ACTION_MIN, SCALED_ACTION_MAX);
                    }
                }
            }

            // N-step target distribution: project
            //   G_t = sum_{k=t..L-1} gamma^{k-t} r_k + gamma^{L-t} Z(s_L, a')
            // through the target critic at the single bootstrap state s_L.
            let support = self.cfg.net.support();
            let atoms = self.cfg.net.atoms;
            let mut target_probs = Array::zeros(l * b, atoms);
            {
                let mut g = Graph::new();
                let mut flat_boot = Array::zeros(b, self.cfg.net.input_dim());
                let mut flat_a = Array::zeros(b, 1);
                for bi in 0..b {
                    for c in 0..self.cfg.net.input_dim() {
                        *flat_boot.at_mut(bi, c) = states[l].at(bi, c);
                    }
                    flat_a.data[bi] = boot_actions[bi];
                }
                let sn = g.input(flat_boot);
                let an = g.input(flat_a);
                let logits = self
                    .target_critic
                    .logits(&mut g, &self.target_critic_store, sn, an);
                let lv = g.value(logits);
                let dz = (self.cfg.net.v_max - self.cfg.net.v_min) / (atoms - 1) as f64;
                for t in 0..l {
                    for bi in 0..b {
                        let r = t * b + bi;
                        // Partial discounted return within the window.
                        let mut g_t = 0.0;
                        let mut disc = 1.0;
                        for k in t..l {
                            g_t += disc * rewards[k][bi];
                            disc *= self.cfg.gamma;
                        }
                        let row = &lv.data[bi * atoms..(bi + 1) * atoms];
                        let lse = sage_nn::graph::log_sum_exp(row);
                        for (j, &z) in support.iter().enumerate() {
                            let pz = (row[j] - lse).exp();
                            let tz = (g_t + disc * z).clamp(self.cfg.net.v_min, self.cfg.net.v_max);
                            let pos = (tz - self.cfg.net.v_min) / dz;
                            let lo = pos.floor() as usize;
                            let hi = pos.ceil() as usize;
                            if lo == hi {
                                *target_probs.at_mut(r, lo) += pz;
                            } else {
                                *target_probs.at_mut(r, lo) += pz * (hi as f64 - pos);
                                *target_probs.at_mut(r, hi) += pz * (pos - lo as f64);
                            }
                        }
                    }
                }
            }

            // Online critic CE loss at (s_t, a_t): each batch sample is an
            // independent feed-forward graph over its l rows, so the
            // gradients can be computed in parallel. The per-sample loss is
            // the mean over the sample's rows scaled by 1/b, which sums to
            // the batch mean; the reduction below runs in sample order, so
            // the update is identical at every thread count.
            let d = self.cfg.net.input_dim();
            let atoms_n = atoms;
            let (critic, critic_store) = (&self.critic, &self.critic_store);
            let per_sample = sage_util::par_map_range(self.cfg.threads, b, |bi| {
                let mut g = Graph::new();
                let mut s = Array::zeros(l, d);
                let mut a = Array::zeros(l, 1);
                let mut tp = Array::zeros(l, atoms_n);
                for t in 0..l {
                    for c in 0..d {
                        *s.at_mut(t, c) = states[t].at(bi, c);
                    }
                    a.data[t] = actions[t][bi];
                    for j in 0..atoms_n {
                        *tp.at_mut(t, j) = target_probs.at(t * b + bi, j);
                    }
                }
                let sn = g.input(s);
                let an = g.input(a);
                let logits = critic.logits(&mut g, critic_store, sn, an);
                let q_rows = critic.expected_q(g.value(logits));
                let target = g.input(tp);
                let ce = g.softmax_cross_entropy(logits, target);
                let loss = g.mean(ce);
                let loss_val = g.value(loss).data[0];
                let scaled = g.scale(loss, 1.0 / b as f64);
                (loss_val, q_rows, g.param_grads(scaled))
            });
            self.critic_store.zero_grads();
            let mut q_sum = 0.0;
            for (loss_bi, q_rows, grads) in per_sample {
                metrics.critic_loss += loss_bi / b as f64;
                q_sum += q_rows.iter().sum::<f64>();
                for (pid, grad) in grads {
                    self.critic_store.params[pid].grad.add_assign(&grad);
                }
            }
            metrics.mean_q = q_sum / (l * b) as f64;
            self.critic_opt.step(&mut self.critic_store);
        }

        // ----- Policy improvement -----
        // Advantage weights computed without gradients.
        let weights: Vec<Vec<f64>> = if self.cfg.bc_only {
            vec![vec![1.0; b]; l]
        } else {
            self.advantage_weights(&states, &actions)
        };
        metrics.mean_weight = weights.iter().flatten().sum::<f64>() / (l * b) as f64;

        // Each sample is its own l-step unroll (the GRU hidden state never
        // crosses samples), so per-sample graphs of batch 1 carry the full
        // recurrent gradient. Loss per sample: mean weighted NLL over its l
        // steps, scaled by 1/b — summed in sample order these reproduce the
        // batch mean at every thread count.
        let d = self.cfg.net.input_dim();
        let (policy, store) = (&self.model.policy, &self.model.store);
        let per_sample = sage_util::par_map_range(self.cfg.threads, b, |bi| {
            let mut g = Graph::new();
            let mut h = policy.initial_hidden(&mut g, 1);
            let mut acc: Option<sage_nn::NodeId> = None;
            for t in 0..l {
                let mut row = Array::zeros(1, d);
                for c in 0..d {
                    *row.at_mut(0, c) = states[t].at(bi, c);
                }
                let x = g.input(row);
                let (nodes, h1) = policy.step(&mut g, store, x, h);
                h = h1;
                let a = g.input(Array::from_vec(1, 1, vec![actions[t][bi]]));
                let logp = policy.log_prob(&mut g, nodes, a);
                let w = g.input(Array::from_vec(1, 1, vec![weights[t][bi]]));
                let wl = g.mul(w, logp);
                let neg = g.scale(wl, -1.0);
                acc = Some(match acc {
                    Some(prev) => g.add(prev, neg),
                    None => neg,
                });
            }
            // lint:allow(P1): every constructed CrrConfig uses unroll >= 1 (default 8), so the loop above ran at least once and acc is Some; unroll = 0 is a programming error worth crashing on
            let loss = g.scale(acc.expect("unroll >= 1"), 1.0 / l as f64);
            let loss_val = g.value(loss).data[0];
            let scaled = g.scale(loss, 1.0 / b as f64);
            (loss_val, g.param_grads(scaled))
        });
        self.model.store.zero_grads();
        for (loss_bi, grads) in per_sample {
            metrics.policy_loss += loss_bi / b as f64;
            for (pid, grad) in grads {
                self.model.store.params[pid].grad.add_assign(&grad);
            }
        }
        // Observability taps: write-only exports, never read back by the
        // trainer, and the grad norm is computed only when obs is on (it
        // costs a pass over every parameter).
        if sage_obs::enabled() {
            let grad_sq: f64 = self
                .model
                .store
                .params
                .iter()
                .map(|p| p.grad.data.iter().map(|g| g * g).sum::<f64>())
                .sum();
            sage_obs::obs_gauge!("train.grad_norm").set(grad_sq.sqrt());
            sage_obs::obs_gauge!("train.policy_loss").set(metrics.policy_loss);
            sage_obs::obs_gauge!("train.critic_loss").set(metrics.critic_loss);
            sage_obs::obs_gauge!("train.mean_q").set(metrics.mean_q);
            sage_obs::obs_gauge!("train.mean_weight").set(metrics.mean_weight);
            sage_obs::obs_counter!("train.steps").inc();
            if let Some(start) = step_start {
                let secs = start.elapsed().as_secs_f64();
                if secs > 0.0 {
                    sage_obs::obs_gauge!("train.samples_per_sec").set((l * b) as f64 / secs);
                }
            }
        }
        self.policy_opt.step(&mut self.model.store);

        self.steps_done += 1;
        if !self.cfg.bc_only && self.steps_done.is_multiple_of(self.cfg.target_period) {
            self.target_policy_store.copy_values_from(&self.model.store);
            self.target_critic_store
                .copy_values_from(&self.critic_store);
        }
        metrics
    }

    /// CRR filter weights `clip(exp(A/beta))` with
    /// `A = Q(s,a) - mean_j Q(s, a_j)`, `a_j ~ pi(.|s)`.
    fn advantage_weights(&mut self, states: &[Array], actions: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let l = actions.len();
        let b = actions[0].len();
        let d = self.cfg.net.input_dim();
        let m = self.cfg.adv_samples;

        // Policy mixtures along the online unroll (no grad needed).
        let mut g = Graph::new();
        let mut h = self.model.policy.initial_hidden(&mut g, b);
        let mut sampled: Vec<Vec<Vec<f64>>> = Vec::with_capacity(l); // [t][j][b]
        for (t, action_row) in actions.iter().enumerate().take(l) {
            let _ = action_row;
            let x = g.input(states[t].clone());
            let (nodes, h1) = self.model.policy.step(&mut g, &self.model.store, x, h);
            h = h1;
            let mut per_j = Vec::with_capacity(m);
            for _ in 0..m {
                let mut row = vec![0.0; b];
                for (bi, slot) in row.iter_mut().enumerate() {
                    let mix = self.model.policy.mixture(&g, nodes, bi);
                    *slot = mix
                        .sample(&mut self.rng)
                        .clamp(SCALED_ACTION_MIN, SCALED_ACTION_MAX);
                }
                per_j.push(row);
            }
            sampled.push(per_j);
        }

        // Q for the data actions and for each sampled action, in one flat
        // critic pass of (1 + m) * l * b rows.
        let rows = (1 + m) * l * b;
        let mut flat_s = Array::zeros(rows, d);
        let mut flat_a = Array::zeros(rows, 1);
        let mut r = 0;
        for t in 0..l {
            for bi in 0..b {
                for c in 0..d {
                    *flat_s.at_mut(r, c) = states[t].at(bi, c);
                }
                flat_a.data[r] = actions[t][bi];
                r += 1;
            }
        }
        for t in 0..l {
            for j in 0..m {
                for bi in 0..b {
                    for c in 0..d {
                        *flat_s.at_mut(r, c) = states[t].at(bi, c);
                    }
                    flat_a.data[r] = sampled[t][j][bi];
                    r += 1;
                }
            }
        }
        let mut g2 = Graph::new();
        let sn = g2.input(flat_s);
        let an = g2.input(flat_a);
        let logits = self.critic.logits(&mut g2, &self.critic_store, sn, an);
        let q = self.critic.expected_q(g2.value(logits));

        let mut out = vec![vec![0.0; b]; l];
        for t in 0..l {
            for bi in 0..b {
                let q_data = q[t * b + bi];
                let mut q_base = 0.0;
                for j in 0..m {
                    q_base += q[l * b + (t * m + j) * b + bi];
                }
                q_base /= m as f64;
                let adv = q_data - q_base;
                out[t][bi] = (adv / self.cfg.beta).exp().min(self.cfg.weight_clip);
            }
        }
        out
    }

    /// Run `steps` gradient steps, reporting metrics every `report_every`.
    pub fn train(&mut self, pool: &Pool, steps: u64, mut progress: impl FnMut(u64, &StepMetrics)) {
        for i in 0..steps {
            let m = self.train_step(pool);
            progress(i, &m);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use sage_transport::cc::CaState;
    use sage_transport::SocketView;

    pub fn dummy_view(cwnd: f64) -> SocketView {
        SocketView {
            now: 0,
            mss: 1500,
            srtt: 0.05,
            rttvar: 0.002,
            latest_rtt: 0.05,
            prev_rtt: 0.05,
            min_rtt: 0.04,
            inflight_pkts: cwnd,
            inflight_bytes: (cwnd * 1500.0) as u64,
            delivery_rate_bps: 10e6,
            prev_delivery_rate_bps: 10e6,
            max_delivery_rate_bps: 12e6,
            prev_max_delivery_rate_bps: 12e6,
            ca_state: CaState::Open,
            delivered_bytes_total: 100_000,
            sent_bytes_total: 120_000,
            lost_bytes_total: 0,
            lost_pkts_total: 0,
            cwnd_pkts: cwnd,
            ssthresh_pkts: f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_collector::Trajectory;
    use sage_gr::STATE_DIM;

    /// A synthetic pool where the "good" policy (high reward) always takes
    /// action ratio 1.2 in state +1 and 0.8 in state -1, and a "bad" policy
    /// does the opposite for low reward. CRR should prefer the good actions.
    fn synthetic_pool(seed: u64) -> Pool {
        let mut rng = Rng::new(seed);
        let mut pool = Pool::new();
        for k in 0..6 {
            let good = k % 2 == 0;
            let steps = 120;
            let mut t = Trajectory {
                scheme: if good { "good".into() } else { "bad".into() },
                env_id: format!("env{k}"),
                set2: false,
                fair_share_bps: 1.0,
                ..Default::default()
            };
            for i in 0..steps {
                let flag = if (i / 3) % 2 == 0 { 1.0 } else { -1.0 };
                let mut state = vec![0.0f32; STATE_DIM];
                state[0] = flag as f32;
                state[1] = rng.range(-0.1, 0.1) as f32;
                t.states.extend(state);
                let correct = if flag > 0.0 { 1.2 } else { 0.8 };
                let wrong = if flag > 0.0 { 0.8 } else { 1.2 };
                let a = if good { correct } else { wrong };
                t.actions.push(a as f32);
                t.r1.push(if good { 1.0 } else { 0.0 });
                t.r2.push(0.0);
                t.thr.push(1e6);
                t.owd.push(0.02);
                t.cwnd.push(10.0);
            }
            pool.trajectories.push(t);
        }
        pool
    }

    fn tiny_cfg(bc: bool) -> CrrConfig {
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
            batch: 8,
            unroll: 4,
            bc_only: bc,
            lr: 1e-3,
            critic_lr: 1e-3,
            target_period: 20,
            seed: 5,
            ..CrrConfig::default()
        }
    }

    /// Deterministic policy log-ratio (raw ln-units) for a one-feature state.
    fn policy_action(model: &SageModel, flag: f64) -> f64 {
        let mut full = vec![0.0; STATE_DIM];
        full[0] = flag;
        let mut hidden = Array::zeros(1, model.cfg.hidden_dim());
        sage_gr::log_ratio(model.step_one(&full, &mut hidden).mean())
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow learning test: run with --release")]
    fn bc_clones_the_mixture_of_behaviours() {
        let pool = synthetic_pool(1);
        let mut tr = CrrTrainer::new(tiny_cfg(true), &pool);
        tr.train(&pool, 300, |_, _| {});
        // BC sees contradictory actions (half good, half bad) equally often:
        // the mixture mean collapses near ln(1.0) = 0 in both states.
        let a_pos = policy_action(tr.model(), 1.0);
        let a_neg = policy_action(tr.model(), -1.0);
        assert!(a_pos.abs() < 0.15, "bc a_pos {a_pos}");
        assert!(a_neg.abs() < 0.15, "bc a_neg {a_neg}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow learning test: run with --release")]
    fn crr_prefers_high_reward_actions() {
        let pool = synthetic_pool(2);
        let mut tr = CrrTrainer::new(tiny_cfg(false), &pool);
        let mut last = StepMetrics::default();
        tr.train(&pool, 3000, |_, m| last = *m);
        // The advantage filter should tilt toward the rewarded actions:
        // positive log-ratio in state +1, negative in state -1 — the same
        // actions BC above refuses to separate.
        let a_pos = policy_action(tr.model(), 1.0);
        let a_neg = policy_action(tr.model(), -1.0);
        assert!(
            a_pos > 0.08 && a_neg < -0.08,
            "crr should separate: a_pos {a_pos} a_neg {a_neg} (critic loss {})",
            last.critic_loss
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow learning test: run with --release")]
    fn critic_loss_decreases() {
        let pool = synthetic_pool(3);
        let mut tr = CrrTrainer::new(tiny_cfg(false), &pool);
        let mut early = 0.0;
        let mut late = 0.0;
        tr.train(&pool, 400, |i, m| {
            if i < 50 {
                early += m.critic_loss / 50.0;
            } else if i >= 350 {
                late += m.critic_loss / 50.0;
            }
        });
        assert!(late < early, "critic loss should fall: {early} -> {late}");
    }

    #[test]
    fn weights_are_clipped() {
        let pool = synthetic_pool(4);
        let mut tr = CrrTrainer::new(tiny_cfg(false), &pool);
        for _ in 0..50 {
            let m = tr.train_step(&pool);
            assert!(m.mean_weight <= tr.cfg.weight_clip);
            assert!(m.mean_weight > 0.0);
        }
    }
}
