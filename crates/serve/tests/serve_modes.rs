//! Differential tests of the serving runtime.
//!
//! The load-bearing claims, each pinned here:
//! * `Batched` mode (one matrix forward per tick) produces **bit-identical**
//!   actions and digests to `SequentialGraph` mode (one autodiff graph per
//!   flow — the reference path), at test widths and at the deployed widths
//!   across 32-row chunks.
//! * The flow-table digest is byte-identical at `threads = 1, 2, 4`.
//! * The deadline budget defers overflow flows and degrades persistent
//!   stragglers to the heuristic fallback instead of starving them.
//! * Flows whose observations vanish are evicted.

use sage_core::model::{NetConfig, SageModel};
use sage_core::ActionMode;
use sage_gr::{GrConfig, STATE_DIM};
use sage_serve::runtime::EVICT_AFTER_MISSES;
use sage_serve::{ServeAction, ServeConfig, ServeMode, ServeRuntime};
use sage_transport::{CaState, SocketView};
use sage_util::Rng;
use std::sync::Arc;

fn model(cfg: NetConfig) -> Arc<SageModel> {
    Arc::new(SageModel::new(
        cfg,
        vec![0.0; STATE_DIM],
        vec![1.0; STATE_DIM],
        3,
    ))
}

fn tiny_model() -> Arc<SageModel> {
    model(NetConfig {
        enc1: 8,
        gru: 8,
        enc2: 8,
        fc: 8,
        residual_blocks: 1,
        critic_hidden: 8,
        ..NetConfig::default()
    })
}

/// Deterministic synthetic observation for flow `key` at `tick`.
fn synth_view(tick: u64, key: u64) -> SocketView {
    let mut rng = Rng::new(tick.wrapping_mul(0x9E37_79B9).wrapping_add(key) ^ 0xC0FFEE);
    let srtt = 0.02 + 0.02 * rng.uniform();
    SocketView {
        now: (tick + 1) * 10_000_000,
        mss: 1500,
        srtt,
        rttvar: 0.002 * rng.uniform(),
        latest_rtt: srtt * (0.9 + 0.2 * rng.uniform()),
        prev_rtt: srtt,
        min_rtt: 0.02,
        inflight_pkts: 8.0 + 8.0 * rng.uniform(),
        inflight_bytes: 12_000 + (12_000.0 * rng.uniform()) as u64,
        delivery_rate_bps: 8e6 * rng.uniform(),
        prev_delivery_rate_bps: 8e6 * rng.uniform(),
        max_delivery_rate_bps: 9e6,
        prev_max_delivery_rate_bps: 9e6,
        ca_state: CaState::Open,
        delivered_bytes_total: tick * 10_000,
        sent_bytes_total: tick * 11_000,
        lost_bytes_total: (tick / 7) * 1500,
        lost_pkts_total: tick / 7,
        cwnd_pkts: 10.0,
        ssthresh_pkts: f64::INFINITY,
    }
}

/// Drive a runtime over synthetic observations; return its digest and the
/// full action trace (cwnd captured as raw bits — exactness, not closeness).
fn drive(
    model: Arc<SageModel>,
    mode: ServeMode,
    threads: usize,
    flows: u64,
    ticks: u64,
) -> (u64, Vec<(u64, u64, bool)>, ServeRuntime) {
    let cfg = ServeConfig {
        mode,
        threads,
        action: ActionMode::Sample,
        ..ServeConfig::default()
    };
    let mut rt = ServeRuntime::new(model, GrConfig::default(), cfg);
    for k in 0..flows {
        assert!(rt.admit(k, 0, 1));
    }
    let mut trace = Vec::new();
    for t in 0..ticks {
        let actions = rt.on_tick(t, &mut |k| Some(synth_view(t, k)));
        for ServeAction {
            key,
            cwnd,
            fallback,
            ..
        } in actions
        {
            trace.push((key, cwnd.to_bits(), fallback));
        }
    }
    let digest = rt.digest();
    (digest, trace, rt)
}

#[test]
fn batched_bit_identical_to_sequential_graph() {
    // Widths of 8 in one chunk, then the deployed network over three chunks.
    let deployed = model(NetConfig::default());
    for (model, flows, ticks) in [(tiny_model(), 24, 40), (deployed, 70, 5)] {
        let (d_batch, t_batch, rt) = drive(model.clone(), ServeMode::Batched, 1, flows, ticks);
        let (d_seq, t_seq, _) = drive(model, ServeMode::SequentialGraph, 1, flows, ticks);
        assert_eq!(t_batch.len() as u64, flows * ticks);
        assert_eq!(t_batch, t_seq, "action traces diverged between modes");
        assert_eq!(d_batch, d_seq, "digests diverged between modes");
        assert_eq!(rt.stats.nn_actions, flows * ticks);
        assert_eq!(rt.stats.fallback_actions, 0);
    }
}

#[test]
fn digest_stable_across_thread_counts() {
    // 70 flows spans three 32-row chunks, so threads genuinely interleave.
    let (d1, t1, _) = drive(tiny_model(), ServeMode::Batched, 1, 70, 25);
    for threads in [2, 4] {
        let (d, t, _) = drive(tiny_model(), ServeMode::Batched, threads, 70, 25);
        assert_eq!(t1, t, "action trace changed at threads={threads}");
        assert_eq!(d1, d, "digest changed at threads={threads}");
    }
}

#[test]
fn deadline_budget_defers_then_degrades_to_fallback() {
    let cfg = ServeConfig {
        max_batch: 4,
        action: ActionMode::Deterministic,
        ..ServeConfig::default()
    };
    let mut rt = ServeRuntime::new(tiny_model(), GrConfig::default(), cfg);
    for k in 0..12u64 {
        assert!(rt.admit(k, 0, 1));
    }
    let mut fallback_keys = std::collections::BTreeSet::new();
    // 30 ticks: a deferred flow slips past the 4-tick `STALENESS_TICKS`
    // deadline many times over.
    for t in 0..30 {
        for a in rt.on_tick(t, &mut |k| Some(synth_view(t, k))) {
            if a.fallback {
                fallback_keys.insert(a.key);
            }
        }
    }
    assert!(rt.stats.deferred > 0, "budget never deferred anything");
    assert!(
        rt.stats.fallback_actions > 0,
        "stragglers never degraded to the fallback"
    );
    assert!(rt.stats.nn_actions > 0);
    // The flows beyond the budget are the ones that degrade; the in-budget
    // slab prefix stays on the policy.
    assert!(fallback_keys.iter().all(|&k| k >= 4), "{fallback_keys:?}");
}

#[test]
fn vanished_flows_are_evicted_after_missed_observations() {
    let mut rt = ServeRuntime::new(tiny_model(), GrConfig::default(), ServeConfig::default());
    for k in 0..5u64 {
        assert!(rt.admit(k, 0, 1));
    }
    // Past the eviction threshold, with ticks to spare.
    let ticks = EVICT_AFTER_MISSES as u64 + 4;
    for t in 0..ticks {
        // Flow 2 never produces an observation.
        rt.on_tick(t, &mut |k| (k != 2).then(|| synth_view(t, k)));
    }
    assert_eq!(rt.flows(), 4);
    assert!(!rt.contains(2));
    assert_eq!(rt.stats.evicted, 1);
    // The surviving flows kept acting every tick; flow 2 never did.
    assert_eq!(rt.stats.nn_actions, 4 * ticks);
}

#[test]
fn admission_respects_capacity_and_rejects_duplicates() {
    let cfg = ServeConfig {
        max_flows: 4,
        ..ServeConfig::default()
    };
    let mut rt = ServeRuntime::new(tiny_model(), GrConfig::default(), cfg);
    for k in 0..4u64 {
        assert!(rt.admit(k, 0, 1));
    }
    assert!(!rt.admit(99, 0, 1), "over-capacity admit must fail");
    assert!(!rt.admit(2, 0, 1), "duplicate admit must fail");
    assert_eq!(rt.stats.rejected, 2);
    // Evicting frees capacity; the freed slot is reused.
    assert!(rt.evict(1));
    assert!(rt.admit(99, 5, 1));
    assert_eq!(rt.flows(), 4);
}

#[test]
fn slot_reuse_does_not_resurrect_stale_timers() {
    let mut rt = ServeRuntime::new(tiny_model(), GrConfig::default(), ServeConfig::default());
    assert!(rt.admit(1, 0, 1));
    assert!(rt.admit(2, 0, 1));
    rt.on_tick(0, &mut |k| Some(synth_view(0, k)));
    // Evict flow 1 (its next timer at tick 1 is now stale), admit flow 3
    // into the reused slot with a later due tick.
    assert!(rt.evict(1));
    assert!(rt.admit(3, 4, 1));
    let acts = rt.on_tick(1, &mut |k| Some(synth_view(1, k)));
    // Only flow 2 acts: flow 1 is gone, flow 3 is not due until tick 4.
    assert_eq!(acts.len(), 1);
    assert_eq!(acts[0].key, 2);
    let acts = rt.on_tick(4, &mut |k| Some(synth_view(4, k)));
    assert!(acts.iter().any(|a| a.key == 3));
}
