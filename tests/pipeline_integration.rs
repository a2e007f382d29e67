//! Cross-crate integration tests: the full Sage pipeline at miniature scale —
//! environments -> pool -> offline training -> deployment -> league — plus
//! invariants that span crate boundaries.

use sage::collector::{collect_pool, training_envs, Pool};
use sage::core::policy::{ActionMode, SagePolicy};
use sage::core::{CrrConfig, CrrTrainer, NetConfig};
use sage::eval::league::rank_league;
use sage::eval::matrix::{league_scores, run_matrix, Family, MatrixSpec, ScenarioSpec};
use sage::eval::runner::Contender;
use sage::eval::similarity::DistanceIndex;
use sage::gr::{GrConfig, STATE_DIM};
use sage::netsim::link::LinkModel;
use sage::netsim::time::from_secs;
use sage::transport::sim::NullMonitor;
use sage::transport::{FlowConfig, SimConfig, Simulation};
use std::sync::Arc;

fn tiny_net() -> NetConfig {
    NetConfig {
        enc1: 8,
        gru: 8,
        enc2: 8,
        fc: 8,
        residual_blocks: 1,
        critic_hidden: 16,
        atoms: 11,
        ..NetConfig::default()
    }
}

#[test]
fn pool_round_trips_through_disk() {
    let envs = training_envs(2, 1, 3.0, 3);
    let pool = collect_pool(
        &envs,
        &["cubic", "vegas"],
        GrConfig::default(),
        3,
        |_, _| {},
    );
    let path = std::env::temp_dir().join("sage_it_pool.bin");
    pool.save_file(&path).unwrap();
    let loaded = Pool::load_file(&path).unwrap();
    assert_eq!(loaded.total_steps(), pool.total_steps());
    assert_eq!(loaded.schemes(), pool.schemes());
    std::fs::remove_file(path).ok();
}

#[test]
fn full_pipeline_trains_and_deploys() {
    // Collect.
    let envs = training_envs(3, 1, 5.0, 11);
    let pool = collect_pool(
        &envs,
        &["cubic", "vegas", "bbr2"],
        GrConfig::default(),
        11,
        |_, _| {},
    );
    assert!(pool.total_steps() > 1000);

    // Train (few steps: we only verify the plumbing, not quality).
    let cfg = CrrConfig {
        net: tiny_net(),
        batch: 4,
        unroll: 4,
        seed: 11,
        ..CrrConfig::default()
    };
    let mut trainer = CrrTrainer::new(cfg, &pool);
    trainer.train(&pool, 30, |_, _| {});
    let model = Arc::new(trainer.into_model());

    // Deploy in a fresh environment; must transfer data.
    let sim_cfg = SimConfig::new(
        LinkModel::Constant { mbps: 24.0 },
        240_000,
        40.0,
        from_secs(4.0),
    );
    let cca = SagePolicy::new(model.clone(), GrConfig::default(), 2, ActionMode::Sample);
    let mut sim = Simulation::new(sim_cfg, vec![FlowConfig::at_start(Box::new(cca))]);
    let stats = sim.run(&mut NullMonitor).remove(0);
    assert!(stats.delivered_bytes > 0, "learned policy must move data");

    // League the model against its teachers.
    let contenders = vec![
        Contender::Heuristic("cubic"),
        Contender::Model {
            name: "mini",
            model,
            gr_cfg: GrConfig::default(),
        },
    ];
    let spec = MatrixSpec {
        schemes: contenders,
        scenarios: envs.into_iter().map(ScenarioSpec::from_env).collect(),
        seeds: vec![11],
        alpha: 2.0,
        threads: 0,
    };
    let report = run_matrix(&spec, |_, _| {});
    let table = rank_league(&league_scores(&report.cells, Family::SetI, false), 0.10);
    assert_eq!(table.len(), 2);
}

#[test]
fn model_persists_and_reloads_identically() {
    let envs = training_envs(1, 0, 3.0, 5);
    let pool = collect_pool(&envs, &["cubic"], GrConfig::default(), 5, |_, _| {});
    let cfg = CrrConfig {
        net: tiny_net(),
        batch: 4,
        unroll: 4,
        bc_only: true,
        seed: 5,
        ..CrrConfig::default()
    };
    let mut trainer = CrrTrainer::new(cfg, &pool);
    trainer.train(&pool, 10, |_, _| {});
    let path = std::env::temp_dir().join("sage_it_model.bin");
    trainer.model().save_file(&path).unwrap();
    let loaded = sage::core::SageModel::load_file(&path).unwrap();
    assert_eq!(loaded.cfg, trainer.model().cfg);
    // Deterministic deployment of the two must agree exactly.
    let run = |m: Arc<sage::core::SageModel>| {
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps: 12.0 },
            120_000,
            20.0,
            from_secs(2.0),
        );
        let cca = SagePolicy::new(m, GrConfig::default(), 1, ActionMode::Deterministic);
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(cca))]);
        sim.run(&mut NullMonitor).remove(0).delivered_bytes
    };
    let a = run(Arc::new(loaded));
    let b = run(Arc::new(sage::core::SageModel::load_file(&path).unwrap()));
    assert_eq!(a, b);
    std::fs::remove_file(path).ok();
}

#[test]
fn gr_trajectories_match_state_dim_everywhere() {
    let envs = training_envs(2, 1, 3.0, 7);
    let pool = collect_pool(&envs, &["yeah"], GrConfig::default(), 7, |_, _| {});
    for t in &pool.trajectories {
        assert_eq!(t.states.len(), t.len() * STATE_DIM);
        assert_eq!(t.actions.len(), t.len());
        assert_eq!(t.r1.len(), t.len());
        assert_eq!(t.r2.len(), t.len());
        assert!(t.actions.iter().all(|a| a.is_finite() && *a > 0.0));
    }
}

#[test]
fn distance_index_separates_pool_members_from_novel_schemes() {
    let envs = training_envs(2, 0, 4.0, 9);
    let pool = collect_pool(
        &envs,
        &["vegas", "cubic"],
        GrConfig::default(),
        9,
        |_, _| {},
    );
    let idx = DistanceIndex::new(&pool.trajectories, 10_000, 9);
    // Re-running a pool scheme gives near-zero distances.
    let rerun = collect_pool(&envs[..1], &["vegas"], GrConfig::default(), 9, |_, _| {});
    let d_same = idx.distances(&rerun.trajectories[0]);
    let med_same = sage::util::percentile(&d_same, 50.0);
    assert!(med_same < 0.05, "pool member median distance {med_same}");
}

#[test]
fn set2_envs_reward_friendliness_not_power() {
    let envs = training_envs(0, 2, 4.0, 13);
    let pool = collect_pool(&envs, &["cubic"], GrConfig::default(), 13, |_, _| {});
    for t in &pool.trajectories {
        assert!(t.set2);
        assert!(t.fair_share_bps > 0.0);
        // R2 bounded in [0,1]; reward() must select it in Set II.
        for i in 0..t.len() {
            assert!((0.0..=1.0).contains(&(t.reward(i) as f64)));
        }
    }
}
