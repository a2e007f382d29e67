//! The serving runtime: batch every due flow into one matrix forward.
//!
//! Per tick the runtime (1) expires the timer wheel, (2) pulls each due
//! flow's observation through its [`sage_gr::CwndActor`], (3) folds the
//! fresh ones into a `[B, D]` input and `[B, H]` hidden matrix and runs a
//! **single** batched forward (`PolicyNet::step_infer`), then (4) hands each
//! row's action back to the flow's actor. The actor and `step_infer` are
//! the same two pieces [`sage_core::SagePolicy`] runs at B=1; the runtime
//! only splits the actor's `observe` and `apply` around the batch.
//!
//! Two serving modes exist: `Batched` (the production path) and
//! `SequentialGraph`, which evaluates each row through the autodiff `Graph`
//! training uses. The second is the reference the first is tested against
//! (identical digests, `tests/serve_modes.rs`).
//!
//! When [`ServeConfig::symbolic`] carries a distilled tree, flows are
//! admitted on the **symbolic fast tier**: actions come from a tree walk
//! over the raw GR state (never deferred, never consuming the NN batch
//! budget), and every `audit_every`-th action additionally runs an NN row
//! to refresh the flow's GRU hidden state and compare the two actions — a
//! disagreement beyond `escalate_log_ratio` escalates the flow to the NN
//! tier permanently. With `symbolic: None` the runtime (and its digests) is
//! bit-identical to the pre-tier implementation.
//!
//! Determinism: all control flow is keyed on tick counts, never wall-clock.
//! The batch is split into fixed 32-row chunks mapped by
//! [`sage_util::par_map_range`] (ordered reduction), so the flow-table
//! digest is byte-identical at any `SAGE_THREADS`. Wall-clock only feeds
//! [`ServeStats`], which no digest reads.

use crate::table::{FlowEntry, FlowKey, FlowTable, Tier};
use crate::wheel::TimerWheel;
use sage_core::model::SageModel;
use sage_core::{ActionMode, MAX_CWND};
use sage_distill::SymbolicModel;
use sage_gr::{log_ratio, CwndActor, GrConfig};
use sage_heuristics::fallback::TickAimd;
use sage_nn::gmm::GmmBatch;
use sage_nn::{Array, Graph};
use sage_obs::{record, Category, EventKind};
use sage_transport::{CongestionControl, SocketView, MIN_CWND};
use sage_util::{par_map_range, Fnv64, Rng};
use std::sync::Arc;
use std::time::Instant;

/// A flow whose action slipped more than this many ticks past its due tick
/// degrades to its [`TickAimd`] fallback for that action.
pub const STALENESS_TICKS: u64 = 4;

/// A flow is evicted after this many consecutive due ticks without an
/// observation (the connection is gone).
pub const EVICT_AFTER_MISSES: u32 = 16;

/// Fixed batch chunk: parallel workers each take whole 32-row chunks, so
/// the per-row arithmetic (row-independent by construction) is identical at
/// every thread count.
const CHUNK_ROWS: usize = 32;

/// The policy rows staged in a tick, `CHUNK_ROWS` to a chunk: each row's
/// input and hidden state are written once, into the `(inputs, hiddens)`
/// pair that infers them.
#[derive(Default)]
struct Chunks(Vec<(Array, Array)>);

impl Chunks {
    /// Append one row: its `input_dim` inputs and its `hidden_dim` state.
    fn push(
        &mut self,
        (input_dim, hidden_dim): (usize, usize),
        x: impl Iterator<Item = f64>,
        hidden: &[f64],
    ) {
        if self.0.last().is_none_or(|(x, _)| x.rows == CHUNK_ROWS) {
            let empty = |cols| Array {
                rows: 0,
                cols,
                data: Vec::with_capacity(CHUNK_ROWS * cols),
            };
            self.0.push((empty(input_dim), empty(hidden_dim)));
        }
        let last = self.0.len() - 1;
        let (xs, hs) = &mut self.0[last];
        xs.data.extend(x);
        hs.data.extend_from_slice(hidden);
        xs.rows += 1;
        hs.rows += 1;
        debug_assert_eq!(xs.data.len(), xs.rows * input_dim);
        debug_assert_eq!(hs.data.len(), hs.rows * hidden_dim);
    }
}

/// How the runtime evaluates the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// One batched graph-free forward per tick (production path).
    Batched,
    /// One autodiff graph per flow per tick (the reference the batched
    /// path is tested against, and its speedup baseline).
    SequentialGraph,
}

#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission cap; beyond it `admit` rejects.
    pub max_flows: usize,
    /// Deadline budget: at most this many policy rows per tick. Flows past
    /// the budget are deferred to the next tick (and eventually degraded).
    pub max_batch: usize,
    /// Worker threads for batched inference; 0 = `SAGE_THREADS`.
    pub threads: usize,
    pub mode: ServeMode,
    pub action: ActionMode,
    pub seed: u64,
    /// Distilled tree backing the symbolic fast tier. When set, flows are
    /// admitted at [`Tier::Symbolic`] and decided by a tree walk; `None`
    /// reproduces the pure-NN runtime (and its digests) exactly.
    pub symbolic: Option<Arc<SymbolicModel>>,
    /// Audit cadence for symbolic flows: every `audit_every`-th symbolic
    /// action also runs an NN row (batch budget permitting) and compares
    /// the two log-ratio actions. 0 disables auditing (never escalate).
    pub audit_every: u64,
    /// Escalation trigger: a symbolic-vs-NN action disagreement above this
    /// many log-ratio units flips the flow to the NN tier for good.
    pub escalate_log_ratio: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_flows: 1024,
            max_batch: 512,
            threads: 0,
            mode: ServeMode::Batched,
            action: ActionMode::Sample,
            seed: 1,
            symbolic: None,
            audit_every: 16,
            escalate_log_ratio: 0.15,
        }
    }
}

/// Serving counters and wall-clock timings. Timings are reporting-only and
/// never feed a digest.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    pub ticks: u64,
    pub batches: u64,
    pub nn_actions: u64,
    pub fallback_actions: u64,
    pub deferred: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub evicted: u64,
    /// Actions decided by the symbolic tree tier.
    pub symbolic_actions: u64,
    /// NN audit rows run for symbolic flows (no action emitted).
    pub audits: u64,
    /// Symbolic flows escalated to the NN tier on audit disagreement.
    pub escalations: u64,
    /// Wall-clock nanoseconds inside policy inference (both modes).
    pub infer_nanos: u64,
    /// Wall-clock nanoseconds inside symbolic tree walks.
    pub sym_infer_nanos: u64,
    /// Wall-clock latency of each per-tick inference call, nanoseconds.
    pub batch_latency_ns: Vec<u64>,
}

/// One action decided on a tick, to be applied to the flow's transport.
#[derive(Debug, Clone, Copy)]
pub struct ServeAction {
    pub key: FlowKey,
    /// Congestion window to enforce, packets.
    pub cwnd: f64,
    /// True when the heuristic fallback (not the policy) decided.
    pub fallback: bool,
    /// True when the symbolic tree tier (not the NN) decided.
    pub symbolic: bool,
}

pub struct ServeRuntime {
    model: Arc<SageModel>,
    gr_cfg: GrConfig,
    cfg: ServeConfig,
    table: FlowTable,
    wheel: TimerWheel,
    actions_digest: Fnv64,
    hidden_dim: usize,
    input_dim: usize,
    pub stats: ServeStats,
}

impl ServeRuntime {
    pub fn new(model: Arc<SageModel>, gr_cfg: GrConfig, cfg: ServeConfig) -> Self {
        let hidden_dim = model.cfg.hidden_dim();
        let input_dim = model.cfg.input_dim();
        ServeRuntime {
            model,
            gr_cfg,
            cfg,
            table: FlowTable::new(),
            wheel: TimerWheel::new(64),
            actions_digest: Fnv64::new(),
            hidden_dim,
            input_dim,
            stats: ServeStats::default(),
        }
    }

    pub fn flows(&self) -> usize {
        self.table.len()
    }

    pub fn contains(&self, key: FlowKey) -> bool {
        self.table.contains(key)
    }

    /// Admit a flow; its first action is due at `now_tick`. Returns false
    /// when the key is taken or the table is full.
    pub fn admit(&mut self, key: FlowKey, now_tick: u64, interval_ticks: u64) -> bool {
        if self.table.len() >= self.cfg.max_flows || self.table.contains(key) {
            self.stats.rejected += 1;
            record(Category::Serve, EventKind::Reject, now_tick, 0, key, 0);
            return false;
        }
        let interval_ticks = interval_ticks.max(1);
        let entry = FlowEntry {
            key,
            gen: 0,  // stamped by FlowTable::insert
            span: 0, // minted by FlowTable::insert
            // Flows start on the fast tier whenever a tree is configured;
            // audits escalate individual flows to the NN on disagreement.
            tier: if self.cfg.symbolic.is_some() {
                Tier::Symbolic
            } else {
                Tier::Nn
            },
            actor: CwndActor::new(self.gr_cfg),
            hidden: vec![0.0; self.hidden_dim],
            // Same stream construction as `SagePolicy::new`, keyed per flow.
            rng: Rng::new(self.cfg.seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5A6E),
            fallback: TickAimd::new(),
            next_due: now_tick,
            interval_ticks,
            missed_obs: 0,
            nn_actions: 0,
            fallback_actions: 0,
            sym_actions: 0,
            audits: 0,
        };
        #[expect(
            clippy::expect_used,
            reason = "insert only fails on a duplicate key or full table, both rejected by the guard at the top of admit"
        )]
        let slot = self.table.insert(entry).expect("key checked above");
        #[expect(
            clippy::expect_used,
            reason = "the entry was inserted on the line above"
        )]
        let e = self.table.get(slot).expect("just inserted");
        let (gen, span) = (e.gen, e.span);
        self.wheel.schedule(now_tick, slot, key, gen);
        self.stats.admitted += 1;
        record(
            Category::Serve,
            EventKind::Admit,
            now_tick,
            span,
            key,
            interval_ticks,
        );
        true
    }

    /// Current tier occupancy as `(symbolic, nn)` flow counts.
    pub fn tier_occupancy(&self) -> (usize, usize) {
        let sym = self
            .table
            .iter_slots()
            .filter(|(_, e)| e.tier == Tier::Symbolic)
            .count();
        (sym, self.table.len() - sym)
    }

    /// Remove a flow. Its pending timer (if any) is disarmed lazily: the
    /// wheel entry carries `(slot, key, gen)` and expired entries are
    /// checked against the live table — including the admission generation,
    /// so a reused `(slot, key)` pair cannot resurrect an old timer.
    pub fn evict(&mut self, key: FlowKey) -> bool {
        if let Some(e) = self.table.remove(key) {
            self.stats.evicted += 1;
            // External evicts carry no tick; the flow's next-due tick is
            // the closest deterministic timestamp.
            record(
                Category::Serve,
                EventKind::Evict,
                e.next_due,
                e.span,
                key,
                0,
            );
            true
        } else {
            false
        }
    }

    /// Fingerprint of the full serving state: flow table (slab order) plus
    /// the running digest of every action ever emitted. Byte-identical at
    /// any `SAGE_THREADS` and across `ServeMode`s.
    pub fn digest(&self) -> u64 {
        let mut h = self.actions_digest;
        h.write_u64(self.table.digest());
        h.finish()
    }

    /// Serve one tick: expire due flows, observe them through `observe`
    /// (return `None` when the flow has no view, e.g. the connection died),
    /// batch-infer, and return the decided actions in slab order.
    ///
    /// # Panics
    ///
    /// Panics only on an internal invariant violation (a slot the expiry
    /// pass retained vanishing from the flow table mid-tick) — a
    /// programming error, never an input condition.
    pub fn on_tick(
        &mut self,
        now_tick: u64,
        observe: &mut dyn FnMut(FlowKey) -> Option<SocketView>,
    ) -> Vec<ServeAction> {
        self.stats.ticks += 1;
        let mut expired = self.wheel.expire(now_tick);
        // Drop stale timers of evicted flows. The generation check matters
        // when a `(slot, key)` pair is reused after an evict + re-admit:
        // the old occupant's timer must not double-fire for the new one.
        expired.retain(|&(slot, key, gen)| {
            self.table
                .get(slot)
                .is_some_and(|e| e.key == key && e.gen == gen)
        });

        let mut actions = Vec::new();
        // Staged NN rows: `(slot, audit)` — audit rows belong to symbolic
        // flows and carry the symbolic log-ratio to compare against.
        let mut batch_slots: Vec<(usize, Option<f64>)> = Vec::new();
        let mut staged = Chunks::default();
        let dims = (self.input_dim, self.hidden_dim);
        // Wall-clock spent in symbolic tree walks this tick (reporting only).
        let mut sym_nanos_tick = 0u64;
        let audit_every = self.cfg.audit_every;
        let max_batch = self.cfg.max_batch;
        let symbolic = self.cfg.symbolic.clone();
        for (slot, key, _gen) in expired {
            let Some(view) = observe(key) else {
                #[expect(
                    clippy::expect_used,
                    reason = "the retain() above kept only slots still live in the flow table"
                )]
                let e = self.table.get_mut(slot).expect("retained above");
                e.missed_obs += 1;
                if e.missed_obs >= EVICT_AFTER_MISSES {
                    let (span, misses) = (e.span, e.missed_obs);
                    self.table.remove(key);
                    self.stats.evicted += 1;
                    record(
                        Category::Serve,
                        EventKind::Evict,
                        now_tick,
                        span,
                        key,
                        misses as u64,
                    );
                } else {
                    let due = now_tick + e.interval_ticks;
                    e.next_due = due;
                    let gen = e.gen;
                    self.wheel.schedule(due, slot, key, gen);
                }
                continue;
            };
            #[expect(
                clippy::expect_used,
                reason = "the retain() above kept only slots still live in the flow table"
            )]
            let e = self.table.get_mut(slot).expect("retained above");
            e.missed_obs = 0;
            // Keep the fallback warm on every observed tick so a takeover
            // starts from current loss/srtt state, not a cold window.
            e.fallback.on_tick(view.now, &view);
            if now_tick.saturating_sub(e.next_due) > STALENESS_TICKS {
                // Graceful degradation: this action comes from the
                // heuristic, deterministically (tick counts only).
                let cwnd = e.fallback.cwnd_pkts().clamp(MIN_CWND, MAX_CWND);
                e.actor.set_cwnd(cwnd);
                e.fallback_actions += 1;
                self.stats.fallback_actions += 1;
                record(
                    Category::Serve,
                    EventKind::Fallback,
                    now_tick,
                    e.span,
                    key,
                    cwnd.to_bits(),
                );
                self.actions_digest.write_u64(key);
                self.actions_digest.write_f64(cwnd);
                self.actions_digest.write_u64(1);
                actions.push(ServeAction {
                    key,
                    cwnd,
                    fallback: true,
                    symbolic: false,
                });
                let due = now_tick + e.interval_ticks;
                e.next_due = due;
                let gen = e.gen;
                self.wheel.schedule(due, slot, key, gen);
                continue;
            }
            if let (Tier::Symbolic, Some(tree)) = (e.tier, symbolic.as_ref()) {
                // Fast tier: observe + tree walk, never deferred and never
                // consuming the NN batch budget (the tree emits the mixture
                // mean, in the same scaled units as the NN rows below).
                let state = e.actor.observe(view.now, &view);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "latency measurement only — feeds stats.sym_infer_nanos, never control flow or digests"
                )]
                let t0 = Instant::now();
                let raw = tree.predict(&state);
                sym_nanos_tick += t0.elapsed().as_nanos() as u64;
                let sym_lr = e.actor.apply(raw);
                let cwnd = e.actor.cwnd();
                e.sym_actions += 1;
                self.stats.symbolic_actions += 1;
                record(
                    Category::Serve,
                    EventKind::SymAction,
                    now_tick,
                    e.span,
                    key,
                    cwnd.to_bits(),
                );
                self.actions_digest.write_u64(key);
                self.actions_digest.write_f64(cwnd);
                self.actions_digest.write_u64(2);
                actions.push(ServeAction {
                    key,
                    cwnd,
                    fallback: false,
                    symbolic: true,
                });
                let due = now_tick + e.interval_ticks;
                e.next_due = due;
                let gen = e.gen;
                self.wheel.schedule(due, slot, key, gen);
                // Periodic audit: run the same observation through the NN
                // (budget permitting) to refresh the GRU hidden state and
                // check the tiers still agree. No action is emitted for the
                // audit row, so skipping it (budget) only delays escalation.
                if audit_every > 0
                    && e.sym_actions.is_multiple_of(audit_every)
                    && batch_slots.len() < max_batch
                {
                    let row = self.model.standardised(|i| state[i]);
                    staged.push(dims, row, &e.hidden);
                    batch_slots.push((slot, Some(sym_lr)));
                }
                continue;
            }
            if batch_slots.len() >= self.cfg.max_batch {
                // Deadline budget exhausted: push the remainder to the next
                // tick without resetting `next_due`, so a flow that keeps
                // slipping crosses the staleness deadline and degrades.
                self.stats.deferred += 1;
                record(
                    Category::Serve,
                    EventKind::Defer,
                    now_tick,
                    e.span,
                    key,
                    max_batch as u64,
                );
                let gen = e.gen;
                self.wheel.schedule(now_tick + 1, slot, key, gen);
                continue;
            }
            // Fresh: observe and stage the policy input row.
            let state = e.actor.observe(view.now, &view);
            let row = self.model.standardised(|i| state[i]);
            staged.push(dims, row, &e.hidden);
            batch_slots.push((slot, None));
        }

        self.stats.sym_infer_nanos += sym_nanos_tick;

        if batch_slots.is_empty() {
            return actions;
        }

        #[expect(
            clippy::disallowed_methods,
            reason = "latency measurement only — dt lands in stats.infer_nanos and batch_latency_ns, never in control flow or digests"
        )]
        let t0 = Instant::now();
        let (mixes, new_h) = match self.cfg.mode {
            ServeMode::Batched => self.infer_batched(&staged.0),
            ServeMode::SequentialGraph => self.infer_sequential(&staged.0),
        };
        let dt = t0.elapsed().as_nanos() as u64;
        self.stats.infer_nanos += dt;
        self.stats.batch_latency_ns.push(dt);
        self.stats.batches += 1;

        // Row r of the tick's batch is row `mr` of one chunk's mixtures.
        let rows = mixes
            .iter()
            .flat_map(|m| (0..m.rows()).map(move |mr| (m, mr)));
        for ((r, &(slot, audit)), (mix, mr)) in batch_slots.iter().enumerate().zip(rows) {
            #[expect(
                clippy::expect_used,
                reason = "batch_slots was built this tick from live table entries; no removal happens between staging and here"
            )]
            let e = self.table.get_mut(slot).expect("staged");
            e.hidden
                .copy_from_slice(&new_h.data[r * self.hidden_dim..(r + 1) * self.hidden_dim]);
            if let Some(sym_lr) = audit {
                // Audit row for a symbolic flow: the hidden refresh above is
                // the point; compare the NN's deterministic (mean) action
                // against the tree's and escalate on disagreement. The
                // flow's sampling RNG is never consumed, and no action or
                // digest entry is emitted — the symbolic path already acted.
                let nn_lr = log_ratio(mix.mean(mr));
                e.audits += 1;
                self.stats.audits += 1;
                record(
                    Category::Serve,
                    EventKind::Audit,
                    now_tick,
                    e.span,
                    e.key,
                    (nn_lr - sym_lr).abs().to_bits(),
                );
                if (nn_lr - sym_lr).abs() > self.cfg.escalate_log_ratio {
                    e.tier = Tier::Nn;
                    self.stats.escalations += 1;
                    record(
                        Category::Serve,
                        EventKind::Escalate,
                        now_tick,
                        e.span,
                        e.key,
                        e.audits,
                    );
                }
                continue;
            }
            let raw = match self.cfg.action {
                ActionMode::Sample => mix.sample(mr, &mut e.rng),
                ActionMode::Deterministic => mix.mean(mr),
            };
            e.actor.apply(raw);
            let cwnd = e.actor.cwnd();
            e.nn_actions += 1;
            self.stats.nn_actions += 1;
            record(
                Category::Serve,
                EventKind::NnAction,
                now_tick,
                e.span,
                e.key,
                cwnd.to_bits(),
            );
            self.actions_digest.write_u64(e.key);
            self.actions_digest.write_f64(cwnd);
            self.actions_digest.write_u64(0);
            actions.push(ServeAction {
                key: e.key,
                cwnd,
                fallback: false,
                symbolic: false,
            });
            let due = now_tick + e.interval_ticks;
            e.next_due = due;
            let (key, gen) = (e.key, e.gen);
            self.wheel.schedule(due, slot, key, gen);
        }
        actions
    }

    /// Batched graph-free forward over the staged 32-row chunks, mapped in
    /// index order — bit-identical at every thread count and to the
    /// whole-batch (or per-row) evaluation, since every op is
    /// row-independent. Each chunk's mixtures stay in its batch.
    fn infer_batched(&self, chunks: &[(Array, Array)]) -> (Vec<GmmBatch>, Array) {
        let b = chunks.iter().map(|(x, _)| x.rows).sum();
        let model = &self.model;
        let results = par_map_range(self.cfg.threads, chunks.len(), |c| {
            let (x, h) = &chunks[c];
            model.policy.step_infer(&model.store, x, h)
        });
        let mut mixes = Vec::with_capacity(chunks.len());
        let mut h_out = Vec::with_capacity(b * self.hidden_dim);
        for (batch, h) in results {
            mixes.push(batch);
            h_out.extend_from_slice(&h.data);
        }
        (
            mixes,
            Array {
                rows: b,
                cols: self.hidden_dim,
                data: h_out,
            },
        )
    }

    /// The reference path: each row through the autodiff `Graph` that
    /// training interprets. No controller deploys this; tests hold
    /// `infer_batched` to its digests.
    fn infer_sequential(&self, chunks: &[(Array, Array)]) -> (Vec<GmmBatch>, Array) {
        let b = chunks.iter().map(|(x, _)| x.rows).sum();
        let mut mixes = Vec::with_capacity(b);
        let mut h_out = Vec::with_capacity(b * self.hidden_dim);
        let rows = chunks
            .iter()
            .flat_map(|(x, h)| x.row_slices().zip(h.row_slices()));
        for (x, h) in rows {
            let mut g = Graph::new();
            let xin = g.input(Array::row(x.to_vec()));
            let hin = g.input(Array::row(h.to_vec()));
            let (nodes, hout) = self.model.policy.step(&mut g, &self.model.store, xin, hin);
            h_out.extend_from_slice(&g.value(hout).data);
            mixes.push(GmmBatch::from_nodes(&g, nodes));
        }
        (
            mixes,
            Array {
                rows: b,
                cols: self.hidden_dim,
                data: h_out,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_core::model::NetConfig;
    use sage_gr::STATE_DIM;

    /// Admission allocates no signal history: each flow's ring grows with
    /// its observations, not with the largest window.
    #[test]
    fn admit_leaves_every_history_empty() {
        let cfg = NetConfig {
            enc1: 8,
            gru: 8,
            enc2: 8,
            fc: 8,
            residual_blocks: 1,
            critic_hidden: 8,
            ..NetConfig::default()
        };
        let model = SageModel::new(cfg, vec![0.0; STATE_DIM], vec![1.0; STATE_DIM], 3);
        let mut rt =
            ServeRuntime::new(Arc::new(model), GrConfig::default(), ServeConfig::default());
        for key in 0..64 {
            assert!(rt.admit(key, 0, 1));
        }
        let rows: Vec<usize> = (rt.table.iter_slots())
            .map(|(_, e)| e.actor.history_rows())
            .collect();
        assert_eq!(rows, vec![0; 64]);
    }
}
