//! Figure 11: handling distributional shift. Roll Sage, Vegas and BC in a
//! step environment (24 -> 96 Mbit/s), compute each transition's cosine
//! Distance to the pool, and print the CDFs. Expected shape: Vegas ~ 0
//! (it is in the pool), BC and Sage clearly shifted, yet Sage performs well.

use sage_bench::{comparator, default_gr, model_path, pool_path, print_table, SEED};
use sage_collector::{rollout, EnvSpec, Pool, SetKind};
use sage_core::policy::{ActionMode, SagePolicy};
use sage_core::SageModel;
use sage_eval::similarity::DistanceIndex;
use sage_heuristics::build;
use sage_netsim::link::LinkModel;
use sage_netsim::time::from_secs;
use sage_util::percentile;
use std::sync::Arc;

fn main() {
    let pool = Pool::load_file(&pool_path()).expect("collect first");
    let idx = DistanceIndex::new(&pool.trajectories, 20_000, SEED);
    println!("distance index over {} pool transitions", idx.len());

    let env = EnvSpec {
        id: "fig11-step-24-96".into(),
        set: SetKind::SetI,
        link: LinkModel::Step {
            before_mbps: 24.0,
            after_mbps: 96.0,
            at: from_secs(15.0),
        },
        rtt_ms: 40.0,
        buffer_bytes: 480_000,
        aqm: sage_netsim::aqm::AqmKind::TailDrop,
        random_loss: 0.0,
        duration: from_secs(30.0),
        competing_cubic: 0,
        test_flow_start: 0,
        capacity_mbps: 60.0,
        seed: SEED,
        faults: sage_netsim::faults::FaultPlan::default(),
        topology: sage_netsim::Topology::single(),
        self_flows: 1,
        self_stagger: 0,
    };
    let gr = default_gr();
    let sage_model = Arc::new(SageModel::load_file(&model_path("sage")).expect("train first"));
    let bc_model = comparator("bc");

    let mut rows = Vec::new();
    let runs: Vec<(&str, Box<dyn sage_transport::CongestionControl>)> = vec![
        ("vegas", build("vegas", SEED).unwrap()),
        (
            "sage",
            Box::new(SagePolicy::new(
                sage_model,
                gr,
                SEED,
                ActionMode::Deterministic,
            )),
        ),
        (
            "bc",
            Box::new(
                SagePolicy::new(bc_model, gr, SEED, ActionMode::Deterministic).with_name("bc"),
            ),
        ),
    ];
    for (name, cca) in runs {
        let res = rollout(&env, name, cca, gr, SEED);
        let d = idx.distances(&res.traj);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", percentile(&d, 50.0)),
            format!("{:.3}", percentile(&d, 65.0)),
            format!("{:.3}", percentile(&d, 95.0)),
            format!("{:.1}", res.stats.avg_goodput_mbps),
            format!("{:.1}", res.stats.avg_owd_ms),
        ]);
    }
    print_table(
        "Fig.11 Distance CDF summary + performance",
        &[
            "scheme", "p50 dist", "p65 dist", "p95 dist", "thr Mbps", "owd ms",
        ],
        &rows,
    );
}
