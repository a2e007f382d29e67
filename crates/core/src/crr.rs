//! Critic-Regularized Regression (Wang et al. 2020) — Sage's main learning
//! algorithm (paper Eq. 5/6).
//!
//! Policy evaluation: a categorical distributional critic trained by
//! projected Bellman targets through target networks. Policy improvement:
//! advantage-weighted log-likelihood, `f = clip(exp(A/beta))`, which "learns
//! good actions from D and avoids taking unknown problematic actions".
//! With `bc_only` the filter is constant 1 — exactly the behavioral-cloning
//! baselines of §6.2.

#![expect(
    clippy::needless_range_loop,
    reason = "the trainer walks several parallel per-timestep arrays (states, actions, rewards, bootstrap values) with shared indices; index loops keep those alignments explicit where iterator zips would bury them"
)]

use crate::model::{
    CriticNet, NetConfig, PolicyNet, SageModel, SCALED_ACTION_MAX, SCALED_ACTION_MIN,
};
use sage_collector::Pool;
use sage_nn::gmm::{sample_row, GmmNodes};
use sage_nn::graph::softmax_rows_into;
use sage_nn::infer::Scratch;
use sage_nn::{Adam, Array, Graph, NodeId, ParamStore};
use sage_util::Rng;

/// One sampled training batch: per-timestep state matrices `[B, D]` (`L + 1`
/// of them), per-timestep actions (ln ratio) and rewards (`L` rows of `B`).
#[derive(Default)]
struct Batch {
    states: Vec<Array>,
    actions: Vec<Vec<f64>>,
    rewards: Vec<Vec<f64>>,
}

/// What a step computes outside the two tapes, kept by the trainer so that
/// a step after the first allocates nothing: the batch, the target
/// distributions, the policy tape's mixture nodes, the advantage weights,
/// the per-sample losses and expected Q values, and the buffers of every
/// graph-free pass ([`Scratch`]). Bounded by one step's live set.
#[derive(Default)]
struct StepBuffers {
    batch: Batch,
    /// `[B·L, atoms]`, the rows of [`critic_grads`].
    target: Array,
    mixtures: Vec<GmmNodes>,
    /// `L` rows of `B`.
    weights: Vec<Vec<f64>>,
    losses: Vec<f64>,
    q: Vec<f64>,
    scratch: Scratch,
}

/// `a` as a `rows x cols` matrix of zeros, in its own buffer.
fn zeroed(a: &mut Array, rows: usize, cols: usize) {
    a.data.clear();
    a.data.resize(rows * cols, 0.0);
    (a.rows, a.cols) = (rows, cols);
}

/// The atoms `(⌊pos⌋, ⌈pos⌉)` that share a projected return at atom position
/// `pos` (`0 <= pos <= atoms - 1`), without a libm call: `pos as usize`
/// truncates, which is the floor of a non-negative `pos`, and the ceiling is
/// one more unless `pos` is that integer. `±0.0` and `NaN` give `(0, 0)`, as
/// `floor` and `ceil` cast to `usize` do.
fn bracket(pos: f64) -> (usize, usize) {
    let lo = pos as usize;
    (lo, lo + usize::from(pos > lo as f64))
}

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
    /// Unread since the step became one batched graph per network (the
    /// gradient is a single ordered reduction, so there is nothing to fan
    /// out and the result cannot depend on a thread count). Kept because the
    /// frozen `benchmark/` names it; goes with the next change allowed to
    /// edit that directory (ROADMAP item 5).
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

/// Windows [`CrrTrainer::action_nll`] scores (rounded up to a whole number
/// per trajectory), and how many it folds into one batched forward.
const NLL_WINDOWS: usize = 256;
const NLL_BATCH: usize = 64;

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
    /// The tapes of [`critic_grads`] and [`policy_unroll`], cleared at the
    /// top of each and never rebuilt: every step runs the same schedule, so
    /// after the first no node value or gradient is allocated.
    critic_graph: Graph,
    policy_graph: Graph,
    buffers: StepBuffers,
    /// `cfg.net.support()`, made once.
    support: Vec<f64>,
    rng: Rng,
    steps_done: u64,
    sample_index: SampleIndex,
}

/// What window sampling needs to know about the pool, rebuilt when the pool
/// changes size (online learners grow their replay). The default is the
/// index of an empty pool.
#[derive(Default)]
struct SampleIndex {
    /// `(trajectories.len(), total_steps())` of the pool this was built from.
    key: (usize, usize),
    /// Per trajectory, the "active" steps (|ln a| above threshold), for
    /// prioritised window sampling.
    active: Vec<Vec<u32>>,
    /// Trajectories long enough to sample a window from (`unroll + 2` steps).
    eligible: Vec<usize>,
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
            critic_graph: Graph::new(),
            policy_graph: Graph::new(),
            buffers: StepBuffers::default(),
            support: cfg.net.support(),
            rng: Rng::new(cfg.seed ^ 0xBA7C),
            steps_done: 0,
            sample_index: SampleIndex::default(),
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

    /// Rebuild the sampling index if the pool changed size. Active steps are
    /// those whose action meaningfully deviates from ratio 1.0: the vast
    /// majority of per-10 ms cwnd ratios are exactly 1.0; sampling half of
    /// each batch around *active* steps sharpens the conditional signal the
    /// policy must learn (prioritised experience sampling).
    fn refresh_sample_index(&mut self, pool: &Pool) {
        let key = (pool.trajectories.len(), pool.total_steps());
        if self.sample_index.key == key {
            return;
        }
        let l = self.cfg.unroll;
        self.sample_index = SampleIndex {
            key,
            active: pool
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
                .collect(),
            eligible: pool
                .trajectories
                .iter()
                .enumerate()
                .filter(|(_, t)| t.len() >= l + 2)
                .map(|(i, _)| i)
                .collect(),
        };
    }

    /// Sample a batch of (L+1)-step windows into `batch`: per-timestep state
    /// matrices [B, D], per-timestep actions (ln ratio) and rewards. False,
    /// and `batch` untouched, when no trajectory is long enough.
    fn sample_batch(&mut self, pool: &Pool, batch: &mut Batch) -> bool {
        let l = self.cfg.unroll;
        self.refresh_sample_index(pool);
        let index = &self.sample_index;
        if index.eligible.is_empty() {
            return false;
        }
        let b = self.cfg.batch;
        let d = self.model.input_dim();
        batch.states.resize_with(l + 1, Array::default);
        batch.states.iter_mut().for_each(|s| zeroed(s, b, d));
        for rows in [&mut batch.actions, &mut batch.rewards] {
            rows.resize_with(l, Vec::new);
            for row in rows.iter_mut() {
                row.clear();
                row.resize(b, 0.0);
            }
        }
        let Batch {
            states,
            actions,
            rewards,
        } = batch;
        for bi in 0..b {
            let ti = *self.rng.choose(&index.eligible);
            let traj = &pool.trajectories[ti];
            let max_start = traj.len() - l - 1;
            let mut start = self.rng.below(max_start);
            // Half the batch: centre the window on an active step when the
            // trajectory has any.
            if bi % 2 == 0 {
                let actives = &index.active[ti];
                if !actives.is_empty() {
                    let pick = actives[self.rng.below(actives.len())] as usize;
                    start = pick.saturating_sub(l / 2).min(max_start - 1);
                }
            }
            for (step, full) in states.iter_mut().zip(traj.states.window(start, l + 1)) {
                let x = self.model.standardised(|i| full[i] as f64);
                step.data[bi * d..(bi + 1) * d]
                    .iter_mut()
                    .zip(x)
                    .for_each(|(slot, v)| *slot = v);
            }
            for t in 0..l {
                actions[t][bi] = sage_gr::encode_ratio(traj.actions[start + t] as f64);
                rewards[t][bi] = traj.reward(start + t + 1) as f64;
            }
        }
        true
    }

    /// One gradient step of policy evaluation + policy improvement: one
    /// batched graph per network (see [`critic_grads`], [`policy_unroll`]),
    /// the target networks and the critic's advantage pass on the graph-free
    /// `infer` path. The online policy runs forward once: the advantage
    /// weights sample from the mixtures of the tape its gradient is taken on.
    /// Both stores' gradients arrive zeroed: `Adam::step` zeroes each as its
    /// update reads it. Every buffer the step uses outside the tapes is the
    /// trainer's ([`StepBuffers`]).
    ///
    /// # Panics
    ///
    /// Panics if the configured `unroll` is zero — every constructed
    /// `CrrConfig` uses `unroll >= 1` (default 8), so this is a programming
    /// error worth crashing on.
    pub fn train_step(&mut self, pool: &Pool) -> StepMetrics {
        let mut buffers = std::mem::take(&mut self.buffers);
        let metrics = self.step_with(pool, &mut buffers);
        self.buffers = buffers;
        metrics
    }

    fn step_with(&mut self, pool: &Pool, buf: &mut StepBuffers) -> StepMetrics {
        if !self.sample_batch(pool, &mut buf.batch) {
            return StepMetrics::default();
        }
        let Batch {
            states,
            actions,
            rewards,
        } = &buf.batch;
        let l = self.cfg.unroll;
        let b = self.cfg.batch;
        let mut metrics = StepMetrics::default();

        // ----- Policy evaluation (critic), skipped in BC mode -----
        if !self.cfg.bc_only {
            self.target_distribution(states, rewards, &mut buf.scratch, &mut buf.target);
            metrics.mean_q = critic_grads(
                &mut self.critic_graph,
                &self.critic,
                &mut self.critic_store,
                (states, actions),
                &buf.target,
                (&mut buf.losses, &mut buf.q),
            );
            for loss_bi in &buf.losses {
                metrics.critic_loss += loss_bi / b as f64;
            }
            self.critic_opt.step(&mut self.critic_store);
        }

        // ----- Policy improvement -----
        policy_unroll(
            &mut self.policy_graph,
            &self.model.policy,
            &self.model.store,
            &states[..l],
            &mut buf.mixtures,
        );
        if self.cfg.bc_only {
            buf.weights.resize_with(l, Vec::new);
            for row in &mut buf.weights {
                row.clear();
                row.resize(b, 1.0);
            }
        } else {
            let weights = &mut buf.weights;
            self.advantage_weights(&buf.mixtures, states, actions, &mut buf.scratch, weights);
        }
        metrics.mean_weight = buf.weights.iter().flatten().sum::<f64>() / (l * b) as f64;

        policy_loss_grads(
            &mut self.policy_graph,
            &self.model.policy,
            &mut self.model.store,
            &buf.mixtures,
            (actions, &buf.weights),
            &mut buf.losses,
        );
        for loss_bi in &buf.losses {
            metrics.policy_loss += loss_bi / b as f64;
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

    /// N-step target distributions `[B·L, atoms]` into `target` (row
    /// `b·L + t`, the rows of [`critic_grads`]): project
    ///   G_t = sum_{k=t..L-1} gamma^{k-t} r_k + gamma^{L-t} Z(s_L, a')
    /// through the target critic at the single bootstrap state s_L, with
    /// a' ~ target policy (n-step returns bootstrap only at the end of the
    /// unroll window). No gradient is taken, so no graph is built.
    fn target_distribution(
        &mut self,
        states: &[Array],
        rewards: &[Vec<f64>],
        s: &mut Scratch,
        target: &mut Array,
    ) {
        let l = rewards.len();
        let b = rewards[0].len();
        let net = self.cfg.net;
        let (policy, store) = (&self.target_policy, &self.target_policy_store);
        let mut h = s.take();
        h.resize(b * net.hidden_dim(), 0.0);
        let mut h = Array::from_vec(b, net.hidden_dim(), h);
        for state in &states[..l] {
            let h1 = policy.advance_hidden_into(store, state, &h, s);
            s.give(std::mem::replace(&mut h, h1).data);
        }
        let (mix, h1) = policy.step_infer_into(store, &states[l], &h, s);
        s.give(h.data);
        s.give(h1.data);
        let mut boot = s.take();
        boot.extend(
            (0..b).map(|bi| {
                (mix.sample(bi, &mut self.rng)).clamp(SCALED_ACTION_MIN, SCALED_ACTION_MAX)
            }),
        );
        mix.give_to(s);
        let boot = Array::from_vec(b, 1, boot);
        let logits =
            (self.target_critic).logits_infer_into(&self.target_critic_store, &states[l], &boot, s);
        s.give(boot.data);
        let probs = softmax_rows_into(s.take(), &logits);
        s.give(logits.data);

        let atoms = net.atoms;
        let dz = (net.v_max - net.v_min) / (atoms - 1) as f64;
        zeroed(target, b * l, atoms);
        for (bi, probs) in probs.row_slices().enumerate() {
            for t in 0..l {
                let r = bi * l + t;
                // Partial discounted return within the window.
                let mut g_t = 0.0;
                let mut disc = 1.0;
                for k in t..l {
                    g_t += disc * rewards[k][bi];
                    disc *= self.cfg.gamma;
                }
                for (&pz, &z) in probs.iter().zip(&self.support) {
                    let tz = (g_t + disc * z).clamp(net.v_min, net.v_max);
                    let pos = (tz - net.v_min) / dz;
                    let (lo, hi) = bracket(pos);
                    if lo == hi {
                        *target.at_mut(r, lo) += pz;
                    } else {
                        *target.at_mut(r, lo) += pz * (hi as f64 - pos);
                        *target.at_mut(r, hi) += pz * (pos - lo as f64);
                    }
                }
            }
        }
        s.give(probs.data);
    }

    /// CRR filter weights `clip(exp(A/beta))` into `weights` (`L` rows of
    /// `B`) with `A = Q(s,a) - mean_j Q(s, a_j)`, `a_j ~ pi(.|s)` — the `pi`
    /// of `mixtures`, the nodes [`policy_unroll`] left on the policy tape:
    /// the forward pass the policy gradient is then taken on. The baseline
    /// actions are drawn step by step, sample `j` of every row before sample
    /// `j + 1`, from mixture rows read in place, each row's mixing weights
    /// computed once.
    fn advantage_weights(
        &mut self,
        mixtures: &[GmmNodes],
        states: &[Array],
        actions: &[Vec<f64>],
        s: &mut Scratch,
        weights: &mut Vec<Vec<f64>>,
    ) {
        let m = self.cfg.adv_samples;
        weights.resize_with(actions.len(), Vec::new);
        let steps = actions.iter().zip(mixtures).zip(states).zip(weights);
        for (((data, &nodes), state), out) in steps {
            let g = &self.policy_graph;
            let (means, log_stds) = (g.value(nodes.means), g.value(nodes.log_stds));
            let mix = softmax_rows_into(s.take(), g.value(nodes.logits));
            let mut acts = candidate_actions(s.take(), data, m);
            for j in 1..=m {
                for (bi, w) in mix.row_slices().enumerate() {
                    *acts.at_mut(bi, j) = sample_row(means, log_stds, bi, w, &mut self.rng)
                        .clamp(SCALED_ACTION_MIN, SCALED_ACTION_MAX);
                }
            }
            s.give(mix.data);
            self.step_weights(state, &acts, s, out);
            s.give(acts.data);
        }
    }

    /// One step's weights of [`CrrTrainer::advantage_weights`] into `out`,
    /// given the `[B, 1 + m]` actions of [`candidate_actions`] with the
    /// baseline samples filled in. Each state's critic fold is made once and
    /// shared by its `1 + m` actions ([`CriticNet::logits_infer_into`]); no
    /// state is copied.
    fn step_weights(&self, state: &Array, acts: &Array, s: &mut Scratch, out: &mut Vec<f64>) {
        let m = self.cfg.adv_samples;
        let logits = (self.critic).logits_infer_into(&self.critic_store, state, acts, s);
        let probs = softmax_rows_into(s.take(), &logits);
        s.give(logits.data);
        let mut q = s.take();
        self.critic.expected_q_into(&probs, &mut q);
        s.give(probs.data);
        out.clear();
        out.extend(q.chunks(1 + m).map(|q| {
            let mut q_base = 0.0;
            for q_j in &q[1..] {
                q_base += q_j;
            }
            q_base /= m as f64;
            let adv = q[0] - q_base;
            (adv / self.cfg.beta).exp().min(self.cfg.weight_clip)
        }));
        s.give(q);
    }

    /// Offline leak probe: the mean negative log-likelihood of the pool's
    /// actions under the current policy, over some [`NLL_WINDOWS`] windows of
    /// `unroll` steps at fixed, evenly spaced starts (each from a zero hidden
    /// state, as training unrolls them), with the features `zeroed` (indices
    /// into the full state) held at their normalisation mean. A policy whose
    /// NLL collapses without a feature is reading its label from it. Takes
    /// no gradient and draws nothing from the trainer's RNG, so calling it
    /// between steps changes no trained bit. `NaN` on a pool with no
    /// trajectory long enough to hold a window.
    pub fn action_nll(&self, pool: &Pool, zeroed: &[usize]) -> f64 {
        let l = self.cfg.unroll;
        let d = self.cfg.net.input_dim();
        let zeroed_cols: Vec<usize> = (self.cfg.net.mask().indices().iter())
            .enumerate()
            .filter(|(_, feature)| zeroed.contains(feature))
            .map(|(col, _)| col)
            .collect();
        let eligible: Vec<_> = (pool.trajectories.iter())
            .filter(|t| t.len() >= l + 2)
            .collect();
        let per = NLL_WINDOWS.div_ceil(eligible.len().max(1));
        let windows: Vec<_> = (eligible.iter())
            .flat_map(|&traj| (0..per).map(move |i| (traj, i * (traj.len() - l - 1) / per)))
            .collect();
        let (mut nll, mut count) = (0.0, 0usize);
        for batch in windows.chunks(NLL_BATCH) {
            let decoded: Vec<Vec<_>> = (batch.iter())
                .map(|(traj, start)| traj.states.window(*start, l).collect())
                .collect();
            let mut h = Array::zeros(batch.len(), self.cfg.net.hidden_dim());
            for t in 0..l {
                let mut x = Vec::with_capacity(batch.len() * d);
                for window in &decoded {
                    let full = &window[t];
                    x.extend(self.model.standardised(|i| full[i] as f64));
                    let row = x.len() - d;
                    zeroed_cols.iter().for_each(|&c| x[row + c] = 0.0);
                }
                let x = Array::from_vec(batch.len(), d, x);
                let (mix, h1) = self.model.policy.step_infer(&self.model.store, &x, &h);
                h = h1;
                for (bi, (traj, start)) in batch.iter().enumerate() {
                    let a = sage_gr::encode_ratio(traj.actions[start + t] as f64);
                    nll -= sage_nn::gmm::gmm_log_density(&mix.row(bi), a);
                    count += 1;
                }
            }
        }
        nll / count as f64
    }

    /// Run `steps` gradient steps, reporting metrics every `report_every`.
    pub fn train(&mut self, pool: &Pool, steps: u64, mut progress: impl FnMut(u64, &StepMetrics)) {
        for i in 0..steps {
            let m = self.train_step(pool);
            progress(i, &m);
        }
    }
}

/// One step's critic inputs for the advantage `[B, 1 + m]`, built in `buf`:
/// column 0 the data action of each sample, columns `1..=m` left for the
/// baseline samples.
fn candidate_actions(mut buf: Vec<f64>, data: &[f64], m: usize) -> Array {
    buf.clear();
    buf.resize(data.len() * (1 + m), 0.0);
    let mut acts = Array::from_vec(data.len(), 1 + m, buf);
    for (bi, &a) in data.iter().enumerate() {
        *acts.at_mut(bi, 0) = a;
    }
    acts
}

/// Critic cross-entropy gradient at `(s_t, a_t)` against `target_probs`,
/// accumulated into `store`: one feed-forward pass on the cleared tape `g`
/// over `[B·L, ·]` rows, sample `b` owning rows `b·L..(b+1)·L` (of
/// `target_probs` too, which the tape copies). A sample's loss is the mean
/// over its `L` rows, and the batch loss their mean, so every row is seeded
/// with `(1/B)/L` and the parameter gradients reduce in sample order
/// ([`Graph::backward_rows`]). Leaves the per-sample losses in `losses` and
/// every row's expected Q in `q`; returns the mean expected Q over all rows.
fn critic_grads(
    g: &mut Graph,
    critic: &CriticNet,
    store: &mut ParamStore,
    (states, actions): (&[Array], &[Vec<f64>]),
    target_probs: &Array,
    (losses, q): (&mut Vec<f64>, &mut Vec<f64>),
) -> f64 {
    let l = actions.len();
    let b = actions[0].len();
    let d = states[0].cols;
    g.clear();
    let sn = g.input_with(b * l, d, |s| {
        for bi in 0..b {
            for state in &states[..l] {
                s.extend_from_slice(&state.data[bi * d..(bi + 1) * d]);
            }
        }
    });
    let an = g.input_with(b * l, 1, |a| {
        a.extend((0..b).flat_map(|bi| actions.iter().map(move |step| step[bi])));
    });
    let logits = critic.logits(g, store, sn, an);
    let (rows, atoms) = target_probs.shape();
    let target = g.input_with(rows, atoms, |t| t.extend_from_slice(&target_probs.data));
    let ce = g.softmax_cross_entropy(logits, target);
    critic.expected_q_into(g.softmax_of(ce), q);
    g.backward_rows(ce, (1.0 / b as f64) / l as f64, b, store);
    losses.clear();
    let per_sample = g.value(ce).data.chunks(l);
    losses.extend(per_sample.map(|rows| rows.iter().sum::<f64>() / l as f64));
    let mut q_sum = 0.0;
    for rows in q.chunks(l) {
        q_sum += rows.iter().sum::<f64>();
    }
    q_sum / (l * b) as f64
}

/// The online policy's forward pass over one batch, on the cleared tape `g`
/// its gradient is then taken from; leaves the mixture nodes of every step
/// in `mixtures`.
///
/// One unroll over `[B, ·]` rows, a step per element of `states`, the GRU
/// state carried per row (it never crosses samples, so each row carries its
/// sample's full recurrent gradient). The step's one forward of the online
/// policy: the advantage weights read their mixtures from it (they need no
/// gradient, and a second, graph-free pass would compute the same bits),
/// then [`policy_loss_grads`] hangs the loss on it.
fn policy_unroll(
    g: &mut Graph,
    policy: &PolicyNet,
    store: &ParamStore,
    states: &[Array],
    mixtures: &mut Vec<GmmNodes>,
) {
    g.clear();
    mixtures.clear();
    let mut h = policy.initial_hidden(g, states[0].rows);
    for state in states {
        let x = g.input_with(state.rows, state.cols, |x| x.extend_from_slice(&state.data));
        let (nodes, h1) = policy.step(g, store, x, h);
        h = h1;
        mixtures.push(nodes);
    }
}

/// Advantage-weighted negative log-likelihood gradient, accumulated into
/// `store`, of the `mixtures` that [`policy_unroll`] left on `g`. A sample's
/// loss is the mean weighted NLL over its `L` steps and the batch loss their
/// mean, so every row is seeded with `1/B` (times the `1/L` of the last
/// node) and the parameter gradients reduce in sample order
/// ([`Graph::backward_rows`]). The loss nodes come after the whole unroll on
/// the tape; each node's consumers, and each parameter's, keep the order
/// they had when every step's loss followed that step, so backward folds the
/// same bits. Leaves the per-sample losses in `losses`.
fn policy_loss_grads(
    g: &mut Graph,
    policy: &PolicyNet,
    store: &mut ParamStore,
    mixtures: &[GmmNodes],
    (actions, weights): (&[Vec<f64>], &[Vec<f64>]),
    losses: &mut Vec<f64>,
) {
    let l = actions.len();
    let b = actions[0].len();
    let mut acc: Option<NodeId> = None;
    for (t, &nodes) in mixtures.iter().enumerate() {
        let a = g.input_with(b, 1, |a| a.extend_from_slice(&actions[t]));
        let logp = policy.log_prob(g, nodes, a);
        let w = g.input_with(b, 1, |w| w.extend_from_slice(&weights[t]));
        let wl = g.mul(w, logp);
        let neg = g.scale(wl, -1.0);
        acc = Some(match acc {
            Some(prev) => g.add(prev, neg),
            None => neg,
        });
    }
    #[expect(
        clippy::expect_used,
        reason = "every constructed CrrConfig uses unroll >= 1 (default 8), so the loop above ran at least once and acc is Some; unroll = 0 is a programming error worth crashing on"
    )]
    let loss = g.scale(acc.expect("unroll >= 1"), 1.0 / l as f64);
    g.backward_rows(loss, 1.0 / b as f64, b, store);
    losses.clear();
    losses.extend_from_slice(&g.value(loss).data);
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
                let mut state = [0.0f32; STATE_DIM];
                state[0] = flag as f32;
                state[1] = rng.range(-0.1, 0.1) as f32;
                t.states.push(&state);
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
        sage_gr::log_ratio(model.step_one(&full, &mut hidden).mean(0))
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

    type ParamGrads = Vec<(sage_nn::ParamId, Array)>;

    /// The critic step for sample `bi` as it ran before the batched
    /// [`critic_grads`]: the body of the old `par_map_range` closure, verbatim.
    fn critic_sample_oracle(
        critic: &CriticNet,
        critic_store: &ParamStore,
        states: &[Array],
        actions: &[Vec<f64>],
        target_probs: &Array,
        bi: usize,
    ) -> (f64, Vec<f64>, ParamGrads) {
        let (l, b) = (actions.len(), actions[0].len());
        let (d, atoms_n) = (states[0].cols, target_probs.cols);
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
                *tp.at_mut(t, j) = target_probs.at(bi * l + t, j);
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
    }

    /// The policy step for sample `bi` as it ran before the batched
    /// [`policy_grads`]: the body of the old `par_map_range` closure, verbatim.
    fn policy_sample_oracle(
        policy: &PolicyNet,
        store: &ParamStore,
        states: &[Array],
        actions: &[Vec<f64>],
        weights: &[Vec<f64>],
        bi: usize,
    ) -> (f64, ParamGrads) {
        let (l, b, d) = (actions.len(), actions[0].len(), states[0].cols);
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
        let loss = g.scale(acc.expect("unroll >= 1"), 1.0 / l as f64);
        let loss_val = g.value(loss).data[0];
        let scaled = g.scale(loss, 1.0 / b as f64);
        (loss_val, g.param_grads(scaled))
    }

    fn grad_bits(store: &ParamStore) -> Vec<Vec<u64>> {
        let bits = |a: &Array| a.iter().map(|v| v.to_bits()).collect();
        store.params.iter().map(|p| bits(&p.grad)).collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The batched policy step as `train_step` chains it.
    fn policy_grads(
        policy: &PolicyNet,
        store: &mut ParamStore,
        states: &[Array],
        actions: &[Vec<f64>],
        weights: &[Vec<f64>],
    ) -> Vec<f64> {
        let (mut g, mut mixtures, mut losses) = (Graph::new(), Vec::new(), Vec::new());
        policy_unroll(&mut g, policy, store, states, &mut mixtures);
        let data = (actions, weights);
        policy_loss_grads(&mut g, policy, store, &mixtures, data, &mut losses);
        losses
    }

    /// The property the batched step rests on: on shapes neither the golden
    /// nor the benchmark sees, [`policy_grads`] and [`critic_grads`] give,
    /// bit for bit, every parameter gradient, every per-sample loss and the
    /// `mean_q` of the per-sample step reduced in sample order.
    #[test]
    fn batched_grads_are_the_per_sample_grads_bit_for_bit() {
        on_oracle_grid("batched == per-sample grads", 0xC44, check);
    }

    /// Runs `case` on random small networks, whole and under each ablation,
    /// over a grid of batch sizes and unroll lengths.
    fn on_oracle_grid(
        what: &str,
        seed: u64,
        case: fn(&mut Rng, NetConfig, usize, usize) -> Result<(), String>,
    ) {
        use sage_util::prop::{forall, PropConfig};
        let pick = |rng: &mut Rng, xs: &[usize]| xs[(rng.next_u64() % xs.len() as u64) as usize];
        type Ablation = fn(&mut NetConfig);
        let ablations: [(&str, Ablation); 4] = [
            ("full", |_| {}),
            ("no gru", |c| c.gru = 0),
            ("no enc2", |c| c.enc2 = 0),
            ("one gaussian", |c| c.gmm_k = 1),
        ];
        for (i, (name, ablate)) in ablations.into_iter().enumerate() {
            forall(
                &format!("{what} ({name})"),
                PropConfig::new(3, seed + i as u64),
                |rng| {
                    // No width a multiple of 8, so every SIMD tail runs.
                    let mut net = NetConfig {
                        enc1: pick(rng, &[5, 9, 13]),
                        gru: pick(rng, &[7, 11]),
                        enc2: pick(rng, &[6, 10]),
                        fc: pick(rng, &[9, 12]),
                        residual_blocks: pick(rng, &[1, 2]),
                        gmm_k: pick(rng, &[2, 3]),
                        critic_hidden: pick(rng, &[7, 17]),
                        atoms: pick(rng, &[5, 11]),
                        ..NetConfig::default()
                    };
                    ablate(&mut net);
                    // Every pair: of these only (5, 7) tells the critic's
                    // (1/b)/l from the policy's (1/b)·(1/l).
                    for (b, l) in [1, 3, 5]
                        .into_iter()
                        .flat_map(|b| [1, 3, 7].map(|l| (b, l)))
                    {
                        case(rng, net, b, l)?;
                    }
                    Ok(())
                },
            );
        }
    }

    /// Values with exact zeros of both signs: the matmul's skip-zero
    /// shortcut on activations, and zero upstream gradients.
    fn spiked(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
        match rng.next_u64() % 6 {
            0 => 0.0,
            1 => -0.0,
            _ => rng.range(lo, hi),
        }
    }

    fn spiked_states(rng: &mut Rng, l: usize, b: usize, d: usize) -> Vec<Array> {
        (0..l)
            .map(|_| Array::from_vec(b, d, (0..b * d).map(|_| spiked(rng, -3.0, 3.0)).collect()))
            .collect()
    }

    /// One case of the oracle property: random parameters and inputs of the
    /// given shape through both paths.
    fn check(rng: &mut Rng, net: NetConfig, b: usize, l: usize) -> Result<(), String> {
        let d = net.input_dim();
        let shape = format!("b {b}, l {l}, {net:?}");

        let mut model = SageModel::new(net, vec![0.0; d], vec![1.0; d], rng.next_u64());
        let mut critic_store = ParamStore::new();
        let critic = CriticNet::new(&mut critic_store, "q", net, rng);
        // Move biases off zero and gains off one.
        for p in model
            .store
            .params
            .iter_mut()
            .chain(&mut critic_store.params)
        {
            for v in &mut p.value.data {
                *v += rng.range(-0.1, 0.1);
            }
        }
        let states = spiked_states(rng, l, b, d);
        let mut column = |lo, hi| -> Vec<Vec<f64>> {
            (0..l)
                .map(|_| (0..b).map(|_| spiked(rng, lo, hi)).collect())
                .collect()
        };
        let actions = column(-1.0, 1.0);
        let weights = column(0.0, 20.0);
        let mut target_probs = Array::zeros(b * l, net.atoms);
        for row in target_probs.data.chunks_mut(net.atoms) {
            row.iter_mut()
                .for_each(|p| *p = spiked(rng, 0.0, 1.0).abs());
            let sum = row.iter().sum::<f64>().max(1e-9);
            row.iter_mut().for_each(|p| *p /= sum);
        }

        // Policy: batched, then per sample reduced as before.
        model.store.zero_grads();
        let got_losses = policy_grads(&model.policy, &mut model.store, &states, &actions, &weights);
        let got = grad_bits(&model.store);
        model.store.zero_grads();
        let mut want_losses = Vec::new();
        for bi in 0..b {
            let (loss_bi, grads) =
                policy_sample_oracle(&model.policy, &model.store, &states, &actions, &weights, bi);
            want_losses.push(loss_bi);
            for (pid, grad) in grads {
                model.store.params[pid].grad.add_assign(&grad);
            }
        }
        if bits(&got_losses) != bits(&want_losses) {
            return Err(format!("policy losses differ ({shape})"));
        }
        if got != grad_bits(&model.store) {
            return Err(format!("policy gradients differ ({shape})"));
        }

        // Critic: likewise.
        critic_store.zero_grads();
        let (mut got_losses, mut q) = (Vec::new(), Vec::new());
        let got_mean_q = critic_grads(
            &mut Graph::new(),
            &critic,
            &mut critic_store,
            (&states, &actions),
            &target_probs,
            (&mut got_losses, &mut q),
        );
        let got = grad_bits(&critic_store);
        critic_store.zero_grads();
        let mut want_losses = Vec::new();
        let mut q_sum = 0.0;
        for bi in 0..b {
            let (loss_bi, q_rows, grads) =
                critic_sample_oracle(&critic, &critic_store, &states, &actions, &target_probs, bi);
            want_losses.push(loss_bi);
            q_sum += q_rows.iter().sum::<f64>();
            for (pid, grad) in grads {
                critic_store.params[pid].grad.add_assign(&grad);
            }
        }
        if bits(&got_losses) != bits(&want_losses) {
            return Err(format!("critic losses differ ({shape})"));
        }
        if got_mean_q.to_bits() != (q_sum / (l * b) as f64).to_bits() {
            return Err(format!("mean_q differs ({shape})"));
        }
        if got != grad_bits(&critic_store) {
            return Err(format!("critic gradients differ ({shape})"));
        }
        Ok(())
    }

    /// The advantage weights as they were computed before they read the
    /// gradient tape: the online unroll once more on the graph-free path and
    /// the sampling loop, both verbatim from the old `advantage_weights`.
    fn advantage_weights_oracle(
        tr: &mut CrrTrainer,
        states: &[Array],
        actions: &[Vec<f64>],
    ) -> Vec<Vec<f64>> {
        let l = actions.len();
        let b = actions[0].len();
        let m = tr.cfg.adv_samples;

        // Policy mixtures along the online unroll (no grad needed).
        let mut h = Array::zeros(b, tr.cfg.net.hidden_dim());
        let mut candidates = Vec::with_capacity(l);
        for t in 0..l {
            let (mix, h1) = tr.model.policy.step_infer(&tr.model.store, &states[t], &h);
            h = h1;
            let mixtures: Vec<_> = (0..b).map(|bi| mix.row(bi)).collect();
            let mut step = candidate_actions(Vec::new(), &actions[t], m);
            for j in 1..=m {
                for (bi, mixture) in mixtures.iter().enumerate() {
                    *step.at_mut(bi, j) = mixture
                        .sample(&mut tr.rng)
                        .clamp(SCALED_ACTION_MIN, SCALED_ACTION_MAX);
                }
            }
            candidates.push(step);
        }
        (states.iter().zip(&candidates))
            .map(|(state, acts)| {
                let mut weights = Vec::new();
                tr.step_weights(state, acts, &mut Scratch::default(), &mut weights);
                weights
            })
            .collect()
    }

    /// Sharing the unroll changes nothing observable: the weights sampled
    /// from the gradient tape's mixtures are, bit for bit, those sampled from
    /// a separate graph-free unroll, and the trainer's RNG is left where that
    /// left it (same draws, same order).
    #[test]
    fn advantage_weights_from_the_gradient_tape_match_a_graph_free_unroll() {
        on_oracle_grid("shared unroll == graph-free unroll", 0xAD7, check_unroll);
    }

    fn check_unroll(rng: &mut Rng, net: NetConfig, b: usize, l: usize) -> Result<(), String> {
        let d = net.input_dim();
        let cfg = CrrConfig {
            net,
            adv_samples: 1 + (rng.next_u64() % 4) as usize,
            seed: rng.next_u64(),
            ..CrrConfig::default()
        };
        // Two trainers in one state, biases off zero and gains off one.
        let mut trainers = [(); 2].map(|_| CrrTrainer::with_norm(cfg, vec![0.0; d], vec![1.0; d]));
        let nudge_seed = rng.next_u64();
        for tr in &mut trainers {
            let mut nudge = Rng::new(nudge_seed);
            let stores = [&mut tr.model.store, &mut tr.critic_store];
            for p in stores.into_iter().flat_map(|s| &mut s.params) {
                for v in &mut p.value.data {
                    *v += nudge.range(-0.1, 0.1);
                }
            }
        }
        let [want_tr, got_tr] = &mut trainers;
        let states = spiked_states(rng, l, b, d);
        let actions: Vec<Vec<f64>> = (0..l)
            .map(|_| (0..b).map(|_| spiked(rng, -1.0, 1.0)).collect())
            .collect();

        let want = advantage_weights_oracle(want_tr, &states, &actions);
        let mut mixtures = Vec::new();
        policy_unroll(
            &mut got_tr.policy_graph,
            &got_tr.model.policy,
            &got_tr.model.store,
            &states,
            &mut mixtures,
        );
        let mut got = Vec::new();
        got_tr.advantage_weights(
            &mixtures,
            &states,
            &actions,
            &mut Scratch::default(),
            &mut got,
        );
        let shape = format!("b {b}, l {l}, m {}, {net:?}", cfg.adv_samples);
        if want.len() != got.len() || want.iter().zip(&got).any(|(w, g)| bits(w) != bits(g)) {
            return Err(format!("weights differ ({shape})"));
        }
        if want_tr.rng.next_u64() != got_tr.rng.next_u64() {
            return Err(format!("trainer RNG left in a different state ({shape})"));
        }
        Ok(())
    }

    /// The probe reads the trainer and nothing else: interleaved with
    /// training it changes no loss and no trained bit.
    #[test]
    fn action_nll_leaves_training_untouched() {
        let pool = synthetic_pool(6);
        let mut trainers = [(); 2].map(|_| CrrTrainer::new(tiny_cfg(false), &pool));
        let [plain, probed] = &mut trainers;
        for _ in 0..3 {
            let nll = probed.action_nll(&pool, &[0]);
            assert!(nll.is_finite());
            assert_eq!(nll.to_bits(), probed.action_nll(&pool, &[0]).to_bits());
            let (want, got) = (plain.train_step(&pool), probed.train_step(&pool));
            assert_eq!(want.policy_loss.to_bits(), got.policy_loss.to_bits());
            assert_eq!(want.critic_loss.to_bits(), got.critic_loss.to_bits());
        }
        let bytes = |tr: &CrrTrainer| tr.model().to_bytes().unwrap();
        assert_eq!(bytes(plain), bytes(probed));
    }

    /// What the probe is for: on a pool whose action is a function of
    /// feature 0 (feature 1 is noise), a cloned policy's NLL collapses when
    /// feature 0 is held at its mean and does not move without feature 1.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow learning test: run with --release")]
    fn leak_probe_tells_the_informative_feature_from_noise() {
        let mut pool = synthetic_pool(7);
        pool.trajectories.retain(|t| t.scheme == "good");
        let mut tr = CrrTrainer::new(tiny_cfg(true), &pool);
        tr.train(&pool, 600, |_, _| {});
        let nll = tr.action_nll(&pool, &[]);
        let without_flag = tr.action_nll(&pool, &[0]);
        let without_noise = tr.action_nll(&pool, &[1]);
        assert!(
            without_flag > nll + 1.0,
            "zeroing the informative feature must raise NLL: {nll} -> {without_flag}"
        );
        assert!(
            (without_noise - nll).abs() < 0.1 * (without_flag - nll),
            "zeroing a noise feature must not: {nll} -> {without_noise} (flag: {without_flag})"
        );
    }

    /// The projection's atom pair is `(⌊pos⌋, ⌈pos⌉)` cast to `usize`, as
    /// libm's `floor` and `ceil` gave it: on integers, on the doubles next to
    /// them, on `±0.0`, on `atoms - 1` and on `NaN`.
    #[test]
    fn bracket_is_floor_and_ceil() {
        use sage_util::prop::{forall, PropConfig};
        let check = |pos: f64| {
            let want = (pos.floor() as usize, pos.ceil() as usize);
            assert_eq!(bracket(pos), want, "pos {pos:e} ({:#x})", pos.to_bits());
        };
        for pos in [0.0, -0.0, f64::NAN, f64::MIN_POSITIVE, 40.0, 41.0 - 1e-9] {
            check(pos);
        }
        forall(
            "bracket == (floor, ceil)",
            PropConfig::new(2000, 0xB7AC),
            |rng| {
                let atoms = 2 + rng.below(200);
                let i = rng.below(atoms) as f64;
                let near = |x: f64, up: bool| {
                    let bits = x.to_bits();
                    f64::from_bits(if up { bits + 1 } else { bits.saturating_sub(1) })
                };
                for pos in [
                    i,
                    near(i, true),
                    near(i, false),
                    rng.range(0.0, (atoms - 1) as f64),
                ] {
                    check(pos.clamp(0.0, (atoms - 1) as f64));
                }
                check((atoms - 1) as f64);
                Ok(())
            },
        );
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
