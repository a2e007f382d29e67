//! Tiered-serving tests: the symbolic fast path, audit-driven escalation,
//! and the generation-checked timer disarm.
//!
//! Pinned claims:
//! * The action constants `sage-distill` mirrors (to stay below `core` in
//!   the dependency graph) are bit-equal to `sage-core`'s.
//! * A symbolic-tier runtime is byte-identical at `threads = 1, 2, 4`.
//! * A `symbolic: None` runtime digests identically to the pre-tier
//!   runtime (the goldens in `serve_golden.rs` enforce the absolute value;
//!   here we pin symbolic-vs-none divergence and none-vs-none agreement).
//! * Audits escalate a disagreeing flow to the NN tier exactly once, and
//!   escalation changes who decides subsequent actions.
//! * Regression: evicting a flow and re-admitting the same key (which
//!   reuses the slab slot, LIFO) must not leave the old occupant's timer
//!   live — the flow must get exactly one action per due tick.

use sage_core::model::{NetConfig, SageModel};
use sage_core::ActionMode;
use sage_distill::{Dataset, SymbolicModel, TreeConfig};
use sage_gr::{GrConfig, STATE_DIM};
use sage_serve::{ServeConfig, ServeRuntime};
use sage_transport::{CaState, SocketView};
use sage_util::Rng;
use std::sync::Arc;

fn tiny_model() -> Arc<SageModel> {
    let cfg = NetConfig {
        enc1: 8,
        gru: 8,
        enc2: 8,
        fc: 8,
        residual_blocks: 1,
        critic_hidden: 8,
        ..NetConfig::default()
    };
    Arc::new(SageModel::new(
        cfg,
        vec![0.0; STATE_DIM],
        vec![1.0; STATE_DIM],
        3,
    ))
}

/// A tree emitting a constant scaled action `y` for every state.
fn constant_tree(y: f64) -> Arc<SymbolicModel> {
    let mut rng = Rng::new(17);
    let mut ds = Dataset::new(STATE_DIM);
    for _ in 0..64 {
        let x: Vec<f64> = (0..STATE_DIM).map(|_| rng.uniform()).collect();
        ds.push(&x, y);
    }
    Arc::new(SymbolicModel::fit(&ds, &TreeConfig::default()))
}

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

fn drive(cfg: ServeConfig, flows: u64, ticks: u64) -> (u64, ServeRuntime) {
    let mut rt = ServeRuntime::new(tiny_model(), GrConfig::default(), cfg);
    for k in 0..flows {
        assert!(rt.admit(k, 0, 1));
    }
    for t in 0..ticks {
        rt.on_tick(t, &mut |k| Some(synth_view(t, k)));
    }
    let d = rt.digest();
    (d, rt)
}

#[test]
fn symbolic_tier_is_thread_invariant() {
    let cfg = |threads| ServeConfig {
        threads,
        action: ActionMode::Sample,
        symbolic: Some(constant_tree(0.5)),
        audit_every: 4,
        ..ServeConfig::default()
    };
    let (d1, rt1) = drive(cfg(1), 48, 30);
    let (d2, _) = drive(cfg(2), 48, 30);
    let (d4, _) = drive(cfg(4), 48, 30);
    assert_eq!(d1, d2);
    assert_eq!(d1, d4);
    assert!(rt1.stats.symbolic_actions > 0);
    assert!(rt1.stats.audits > 0, "audit cadence must fire");
}

#[test]
fn disabled_symbolic_config_matches_the_plain_runtime() {
    // `symbolic: None` must reproduce the pure-NN runtime exactly — the
    // digest extension only folds when the symbolic tier touches a flow.
    let plain = ServeConfig {
        action: ActionMode::Sample,
        ..ServeConfig::default()
    };
    let (d_plain, rt) = drive(plain.clone(), 16, 20);
    let (d_again, _) = drive(plain, 16, 20);
    assert_eq!(d_plain, d_again);
    assert_eq!(rt.stats.symbolic_actions, 0);
    assert_eq!(rt.tier_occupancy(), (0, 16));
    // And a symbolic config must diverge (different decider, tagged digest).
    let sym = ServeConfig {
        action: ActionMode::Sample,
        symbolic: Some(constant_tree(0.5)),
        ..ServeConfig::default()
    };
    let (d_sym, srt) = drive(sym, 16, 20);
    assert_ne!(d_plain, d_sym);
    assert_eq!(srt.tier_occupancy().1, 0, "no flow escalated spuriously");
}

#[test]
fn audit_disagreement_escalates_to_nn_exactly_once() {
    // A tree pinned at the positive action clamp disagrees violently with
    // the near-neutral untrained NN, so the first audit escalates.
    let cfg = ServeConfig {
        action: ActionMode::Deterministic,
        symbolic: Some(constant_tree(1e3)),
        audit_every: 3,
        escalate_log_ratio: 0.05,
        ..ServeConfig::default()
    };
    let mut rt = ServeRuntime::new(tiny_model(), GrConfig::default(), cfg);
    assert!(rt.admit(7, 0, 1));
    assert_eq!(rt.tier_occupancy(), (1, 0));
    let mut sym_actions = 0u64;
    let mut nn_actions = 0u64;
    for t in 0..12 {
        for a in rt.on_tick(t, &mut |k| Some(synth_view(t, k))) {
            if a.symbolic {
                sym_actions += 1;
            } else if !a.fallback {
                nn_actions += 1;
            }
        }
    }
    assert_eq!(rt.stats.escalations, 1, "escalation is one-way and once");
    assert_eq!(rt.tier_occupancy(), (0, 1));
    // Exactly audit_every symbolic actions before the flip, NN after.
    assert_eq!(sym_actions, 3);
    assert_eq!(nn_actions, 12 - 3);
    assert_eq!(rt.stats.symbolic_actions, sym_actions);
    assert_eq!(rt.stats.nn_actions, nn_actions);
}

#[test]
fn agreeing_audits_never_escalate() {
    let cfg = ServeConfig {
        action: ActionMode::Deterministic,
        symbolic: Some(constant_tree(0.0)), // log-ratio 0 ≈ untrained mean
        audit_every: 2,
        escalate_log_ratio: 1.0, // generous tolerance
        ..ServeConfig::default()
    };
    let (_, rt) = drive(cfg, 8, 20);
    assert!(rt.stats.audits > 0);
    assert_eq!(rt.stats.escalations, 0);
    assert_eq!(rt.tier_occupancy(), (8, 0));
}

#[test]
fn evict_and_readmit_same_key_does_not_double_fire_timers() {
    // Regression: the wheel disarms lazily by checking (slot, key) against
    // the live table. Evicting a flow and re-admitting the same key reuses
    // the slab slot (LIFO free list), so without the generation stamp the
    // OLD timer also matches and the flow acts twice per tick.
    let run = |symbolic: Option<Arc<SymbolicModel>>| {
        let cfg = ServeConfig {
            action: ActionMode::Deterministic,
            symbolic,
            audit_every: 1,
            escalate_log_ratio: 0.0, // escalate on the first audit
            ..ServeConfig::default()
        };
        let mut rt = ServeRuntime::new(tiny_model(), GrConfig::default(), cfg);
        assert!(rt.admit(42, 0, 1));
        // Let the flow act (and, in the symbolic run, escalate to NN).
        for t in 0..3 {
            let acts = rt.on_tick(t, &mut |k| Some(synth_view(t, k)));
            assert_eq!(acts.len(), 1, "tick {t}: exactly one action");
        }
        // Evict while its next-due timer (tick 3) is still armed, then
        // re-admit the same key into the same (reused) slot, due at 3.
        assert!(rt.evict(42));
        assert!(rt.admit(42, 3, 1));
        for t in 3..10 {
            let acts = rt.on_tick(t, &mut |k| Some(synth_view(t, k)));
            assert_eq!(
                acts.len(),
                1,
                "tick {t}: stale timer of the evicted occupant double-fired"
            );
        }
        rt
    };
    // Exercise both the pure-NN path and the escalated-symbolic path (the
    // escalated flow is the case the bug report named).
    let rt = run(None);
    assert_eq!(rt.stats.nn_actions, 10);
    let rt = run(Some(constant_tree(1e3)));
    assert_eq!(rt.stats.escalations, 2, "both admissions escalate");
}

#[test]
fn escalated_flow_keeps_tier_on_table_and_digest_moves() {
    let cfg = ServeConfig {
        action: ActionMode::Deterministic,
        symbolic: Some(constant_tree(1e3)),
        audit_every: 1,
        escalate_log_ratio: 0.0,
        ..ServeConfig::default()
    };
    let mut rt = ServeRuntime::new(tiny_model(), GrConfig::default(), cfg);
    assert!(rt.admit(1, 0, 1));
    rt.on_tick(0, &mut |k| Some(synth_view(0, k)));
    let d_before = rt.digest();
    rt.on_tick(1, &mut |k| Some(synth_view(1, k)));
    assert_ne!(rt.digest(), d_before);
    // After escalation the entry must remember it was audited/escalated.
    assert_eq!(rt.tier_occupancy(), (0, 1));
    assert_eq!(rt.stats.audits, 1);
}

#[test]
fn symbolic_actions_bypass_the_batch_budget() {
    // max_batch 1 would defer most NN flows; symbolic flows never consume
    // the budget, so every flow still acts every tick.
    let cfg = ServeConfig {
        action: ActionMode::Deterministic,
        symbolic: Some(constant_tree(0.0)),
        max_batch: 1,
        audit_every: 0, // no audits: the budget is for NN rows only
        ..ServeConfig::default()
    };
    let mut rt = ServeRuntime::new(tiny_model(), GrConfig::default(), cfg);
    for k in 0..32 {
        assert!(rt.admit(k, 0, 1));
    }
    for t in 0..5 {
        let acts = rt.on_tick(t, &mut |k| Some(synth_view(t, k)));
        assert_eq!(acts.len(), 32, "tick {t}");
        assert!(acts.iter().all(|a| a.symbolic));
    }
    assert_eq!(rt.stats.deferred, 0);
    assert_eq!(rt.stats.audits, 0);
}
