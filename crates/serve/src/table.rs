//! Slab-allocated flow table.
//!
//! Per-flow serving state lives in a slab: a `Vec<Option<FlowEntry>>` whose
//! indices are stable for the lifetime of a flow, plus a LIFO free list and
//! a `BTreeMap` key index. There is deliberately **no hash map** — every
//! iteration the runtime performs (batch assembly, digesting) walks slab
//! indices or the ordered key index, so the visit order is a pure function
//! of the admission/eviction history, never of a hasher seed.

use sage_gr::CwndActor;
use sage_heuristics::fallback::TickAimd;
use sage_transport::CongestionControl;
use sage_util::{Fnv64, Rng};
use std::collections::BTreeMap;

/// Application-assigned flow identity (e.g. a connection id).
pub type FlowKey = u64;

/// Which inference path decides a flow's actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Distilled regression tree: ns-scale compare-walk per action.
    Symbolic,
    /// Batched neural policy (the PR 3 serving path).
    Nn,
}

/// Persistent serving state for one admitted flow.
pub struct FlowEntry {
    pub key: FlowKey,
    /// Admission generation, stamped by [`FlowTable::insert`]. Timer-wheel
    /// entries carry it so a timer armed by an earlier occupant of a reused
    /// `(slot, key)` pair can be recognised as stale and dropped.
    pub gen: u64,
    /// Serving tier; escalation flips `Symbolic -> Nn` (never back).
    pub tier: Tier,
    /// Causal span id for the flight recorder, minted at admission
    /// (`gen + 1`, so 0 stays "unscoped"). Like `gen`, observability
    /// metadata: deliberately not folded into [`FlowTable::digest`].
    pub span: u64,
    /// The flow's Execution block: GR observation windows, enforced
    /// congestion window and loss counter.
    pub actor: CwndActor,
    /// GRU hidden state carried across ticks (plain vector, graph-free).
    pub hidden: Vec<f64>,
    /// Per-flow sampling stream (mixture sampling in `ActionMode::Sample`).
    pub rng: Rng,
    /// Heuristic controller the flow degrades to when its action is stale.
    pub fallback: TickAimd,
    /// Tick at which the flow is next due for an action.
    pub next_due: u64,
    /// Monitor interval in ticks (1 = act every tick).
    pub interval_ticks: u64,
    /// Consecutive due ticks with no observation available.
    pub missed_obs: u32,
    pub nn_actions: u64,
    pub fallback_actions: u64,
    /// Actions decided by the symbolic tree tier.
    pub sym_actions: u64,
    /// NN audit rows run for this flow (tier-agreement checks).
    pub audits: u64,
}

/// Slab of flow entries + ordered key index + LIFO free list.
///
/// Iteration is by ascending slot index over the slab (`iter_slots`), and
/// slot assignment is a deterministic function of the admit/remove history,
/// so visit order never depends on hashing or timing.
#[derive(Default)]
pub struct FlowTable {
    slots: Vec<Option<FlowEntry>>,
    by_key: BTreeMap<FlowKey, usize>,
    free: Vec<usize>,
    /// Monotonic admission counter; stamped into `FlowEntry::gen`.
    next_gen: u64,
}

impl FlowTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    pub fn contains(&self, key: FlowKey) -> bool {
        self.by_key.contains_key(&key)
    }

    pub fn slot_of(&self, key: FlowKey) -> Option<usize> {
        self.by_key.get(&key).copied()
    }

    pub fn get(&self, slot: usize) -> Option<&FlowEntry> {
        self.slots.get(slot).and_then(|s| s.as_ref())
    }

    pub fn get_mut(&mut self, slot: usize) -> Option<&mut FlowEntry> {
        self.slots.get_mut(slot).and_then(|s| s.as_mut())
    }

    /// Insert a new entry, reusing the most recently freed slot (LIFO keeps
    /// the slab dense and cache-warm). Returns the slot, or `None` if the
    /// key is already present.
    pub fn insert(&mut self, mut entry: FlowEntry) -> Option<usize> {
        if self.by_key.contains_key(&entry.key) {
            return None;
        }
        entry.gen = self.next_gen;
        entry.span = entry.gen + 1;
        self.next_gen += 1;
        let key = entry.key;
        let slot = match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i].is_none());
                self.slots[i] = Some(entry);
                i
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        self.by_key.insert(key, slot);
        Some(slot)
    }

    pub fn remove(&mut self, key: FlowKey) -> Option<FlowEntry> {
        let slot = self.by_key.remove(&key)?;
        let entry = self.slots[slot].take();
        debug_assert!(entry.is_some());
        self.free.push(slot);
        entry
    }

    /// Occupied slots in slab order.
    pub fn iter_slots(&self) -> impl Iterator<Item = (usize, &FlowEntry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i, e)))
    }

    /// FNV-1a fingerprint of all persistent per-flow state, visited in slab
    /// order. Captures everything that feeds future actions (hidden state,
    /// cwnd, schedule, counters, fallback window); wall-clock timings are
    /// deliberately outside the table and outside this digest.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.by_key.len() as u64);
        for (slot, e) in self.iter_slots() {
            h.write_u64(slot as u64);
            h.write_u64(e.key);
            h.write_u64(e.hidden.len() as u64);
            for &v in &e.hidden {
                h.write_f64(v);
            }
            h.write_f64(e.actor.cwnd());
            h.write_u64(e.actor.prev_lost_bytes());
            h.write_u64(e.next_due);
            h.write_u64(e.interval_ticks);
            h.write_u64(e.missed_obs as u64);
            h.write_u64(e.nn_actions);
            h.write_u64(e.fallback_actions);
            h.write_f64(e.fallback.cwnd_pkts());
            // Append-only tier extension: folded only when the symbolic
            // tier ever touched this flow, so pure-NN configurations keep
            // their pre-tier digests (and goldens) byte for byte. `gen` is
            // schedule metadata and deliberately not folded.
            if e.tier == Tier::Symbolic || e.sym_actions > 0 || e.audits > 0 {
                h.write_u64(match e.tier {
                    Tier::Symbolic => 2,
                    Tier::Nn => 3,
                });
                h.write_u64(e.sym_actions);
                h.write_u64(e.audits);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_gr::GrConfig;

    fn entry(key: FlowKey) -> FlowEntry {
        FlowEntry {
            key,
            gen: 0,
            span: 0,
            tier: Tier::Nn,
            actor: CwndActor::new(GrConfig::default()),
            hidden: vec![0.0; 4],
            rng: Rng::new(key),
            fallback: TickAimd::new(),
            next_due: 0,
            interval_ticks: 1,
            missed_obs: 0,
            nn_actions: 0,
            fallback_actions: 0,
            sym_actions: 0,
            audits: 0,
        }
    }

    #[test]
    fn slots_are_reused_lifo() {
        let mut t = FlowTable::new();
        assert_eq!(t.insert(entry(10)), Some(0));
        assert_eq!(t.insert(entry(11)), Some(1));
        assert_eq!(t.insert(entry(12)), Some(2));
        assert!(t.remove(11).is_some());
        assert!(t.remove(10).is_some());
        // LIFO: last freed slot (10's slot 0) is handed out first.
        assert_eq!(t.insert(entry(13)), Some(0));
        assert_eq!(t.insert(entry(14)), Some(1));
        assert_eq!(t.len(), 3);
        assert_eq!(t.slot_of(12), Some(2));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let mut t = FlowTable::new();
        assert!(t.insert(entry(7)).is_some());
        assert!(t.insert(entry(7)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn digest_is_a_function_of_the_operation_history() {
        let build = || {
            let mut t = FlowTable::new();
            for k in [5u64, 9, 3, 14] {
                t.insert(entry(k));
            }
            t.remove(9);
            t.insert(entry(21));
            t
        };
        assert_eq!(build().digest(), build().digest());
        // State changes move the digest.
        let t2 = build();
        let mut t3 = build();
        t3.get_mut(t3.slot_of(21).unwrap())
            .unwrap()
            .actor
            .apply(1.0);
        assert_ne!(t2.digest(), t3.digest());
    }

    #[test]
    fn generations_are_unique_across_slot_reuse() {
        let mut t = FlowTable::new();
        t.insert(entry(1));
        let g1 = t.get(t.slot_of(1).unwrap()).unwrap().gen;
        t.remove(1);
        // Same key, same (reused) slot — but a fresh generation.
        let slot = t.insert(entry(1)).unwrap();
        assert_eq!(slot, 0);
        assert_ne!(t.get(slot).unwrap().gen, g1);
    }

    #[test]
    fn spans_are_minted_at_admission_and_not_digested() {
        let mut t = FlowTable::new();
        t.insert(entry(1));
        t.insert(entry(2));
        let e = t.get(t.slot_of(2).unwrap()).unwrap();
        assert_eq!(e.span, e.gen + 1, "span mints from the admission gen");
        assert_ne!(e.span, 0, "0 stays reserved for unscoped events");
        // Span is recorder metadata, never part of the digest contract.
        let base = t.digest();
        t.get_mut(t.slot_of(1).unwrap()).unwrap().span = 999;
        assert_eq!(t.digest(), base, "span must not move the digest");
    }

    #[test]
    fn digest_unchanged_by_untouched_tier_fields() {
        // A pure-NN entry must digest identically whether or not the tier
        // extension fields exist — the extension only folds once the
        // symbolic tier touches the flow.
        let mut t = FlowTable::new();
        t.insert(entry(5));
        let base = t.digest();
        let e = t.get_mut(t.slot_of(5).unwrap()).unwrap();
        e.tier = Tier::Symbolic;
        assert_ne!(t.digest(), base, "symbolic tier must move the digest");
        let e = t.get_mut(t.slot_of(5).unwrap()).unwrap();
        e.tier = Tier::Nn;
        e.audits = 1;
        assert_ne!(t.digest(), base, "audit history must move the digest");
    }

    #[test]
    fn iteration_is_in_slab_order() {
        let mut t = FlowTable::new();
        for k in [50u64, 40, 30] {
            t.insert(entry(k));
        }
        t.remove(40);
        t.insert(entry(60)); // reuses slot 1
        let keys: Vec<FlowKey> = t.iter_slots().map(|(_, e)| e.key).collect();
        assert_eq!(keys, vec![50, 60, 30]);
    }
}
