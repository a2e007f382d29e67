//! End-to-end checks of learned-policy plumbing that cross module
//! boundaries: ablated architectures must deploy, hybrids must track Cubic,
//! and BC-trained models must imitate a strongly biased dataset.

use sage_collector::{collect_pool, training_envs, Pool, Trajectory};
use sage_core::baselines::HybridPolicy;
use sage_core::policy::{ActionMode, SagePolicy};
use sage_core::{CrrConfig, CrrTrainer, NetConfig, SageModel};
use sage_gr::{FeatureMask, GrConfig, STATE_DIM};
use sage_netsim::link::LinkModel;
use sage_netsim::time::from_secs;
use sage_transport::sim::NullMonitor;
use sage_transport::{FlowConfig, SimConfig, Simulation};
use std::sync::Arc;

fn tiny(mask: FeatureMask, gru: usize, gmm_k: usize) -> NetConfig {
    NetConfig {
        enc1: 8,
        gru,
        enc2: 8,
        fc: 8,
        residual_blocks: 1,
        critic_hidden: 16,
        atoms: 11,
        gmm_k,
        ..NetConfig::default()
    }
    .with_mask(mask)
}

fn deploy(model: Arc<SageModel>) -> u64 {
    let cfg = SimConfig::new(
        LinkModel::Constant { mbps: 24.0 },
        240_000,
        40.0,
        from_secs(3.0),
    );
    let cca = SagePolicy::new(model, GrConfig::default(), 3, ActionMode::Sample);
    let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(cca))]);
    sim.run(&mut NullMonitor).remove(0).delivered_bytes
}

#[test]
fn every_ablated_architecture_deploys() {
    for (mask, gru, k) in [
        (FeatureMask::Full, 8, 3),
        (FeatureMask::NoMinMax, 8, 3),
        (FeatureMask::NoRttVar, 8, 3),
        (FeatureMask::NoLossInflight, 8, 3),
        (FeatureMask::Full, 0, 3), // no GRU
        (FeatureMask::Full, 8, 1), // no GMM
    ] {
        let model = Arc::new(SageModel::new(
            tiny(mask, gru, k),
            vec![0.0; STATE_DIM],
            vec![1.0; STATE_DIM],
            5,
        ));
        assert!(
            deploy(model) > 0,
            "ablation {mask:?} gru={gru} k={k} failed to move data"
        );
    }
}

#[test]
fn hybrid_policy_deploys_and_respects_cubic_scale() {
    let model = Arc::new(SageModel::new(
        tiny(FeatureMask::Full, 8, 3),
        vec![0.0; STATE_DIM],
        vec![1.0; STATE_DIM],
        5,
    ));
    let cfg = SimConfig::new(
        LinkModel::Constant { mbps: 24.0 },
        240_000,
        40.0,
        from_secs(5.0),
    );
    let cca = HybridPolicy::new(model, GrConfig::default());
    let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(cca))]);
    let stats = sim.run(&mut NullMonitor).remove(0);
    // Untrained multiplier stays near 1: behaves roughly like Cubic alone.
    assert!(
        stats.avg_goodput_mbps > 12.0,
        "hybrid thr {}",
        stats.avg_goodput_mbps
    );
}

/// Build a synthetic "always grow 5%" expert pool and verify BC clones it.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow learning test: run with --release")]
fn bc_clones_a_consistent_expert() {
    let mut pool = Pool::new();
    for k in 0..4 {
        let steps = 150;
        let mut t = Trajectory {
            scheme: "expert".into(),
            env_id: format!("e{k}"),
            ..Default::default()
        };
        for i in 0..steps {
            let mut s = [0.0f32; STATE_DIM];
            s[0] = (i % 7) as f32 * 0.1;
            t.states.push(&s);
            t.actions.push(1.05);
            t.r1.push(0.5);
            t.r2.push(0.5);
            t.thr.push(1e6);
            t.owd.push(0.02);
            t.cwnd.push(10.0);
        }
        pool.trajectories.push(t);
    }
    let cfg = CrrConfig {
        net: tiny(FeatureMask::Full, 8, 3),
        batch: 8,
        unroll: 4,
        bc_only: true,
        lr: 1e-3,
        seed: 3,
        ..CrrConfig::default()
    };
    let mut tr = CrrTrainer::new(cfg, &pool);
    tr.train(&pool, 800, |_, _| {});
    // Deploy: the cloned policy must grow its window steadily.
    let model = Arc::new(tr.into_model());
    let p = SagePolicy::new(model, GrConfig::default(), 1, ActionMode::Deterministic);
    let mut cca: Box<dyn sage_transport::CongestionControl> = Box::new(p);
    let view = dummy_view(10.0);
    let w0 = cca.cwnd_pkts();
    for i in 1..100u64 {
        cca.on_tick(i * 10_000_000, &view);
    }
    assert!(
        cca.cwnd_pkts() > w0 * 2.0,
        "cloned 5%-growth expert should grow: {} -> {}",
        w0,
        cca.cwnd_pkts()
    );
}

fn dummy_view(cwnd: f64) -> sage_transport::SocketView {
    sage_transport::SocketView {
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
        ca_state: sage_transport::cc::CaState::Open,
        delivered_bytes_total: 100_000,
        sent_bytes_total: 120_000,
        lost_bytes_total: 0,
        lost_pkts_total: 0,
        cwnd_pkts: cwnd,
        ssthresh_pkts: f64::INFINITY,
    }
}

#[test]
fn collected_pool_feature_stats_are_usable() {
    let envs = training_envs(2, 1, 3.0, 31);
    let pool = collect_pool(&envs, &["cubic"], GrConfig::default(), 31, |_, _| {});
    let (mean, std) = pool.feature_stats();
    assert_eq!(mean.len(), STATE_DIM);
    assert!(std.iter().all(|&s| s > 0.0 && s.is_finite()));
    assert!(mean.iter().all(|m| m.is_finite()));
}
