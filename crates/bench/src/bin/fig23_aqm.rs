//! Figure 23 (Appendix E.2): robustness to AQM. A 48 Mbit/s, 20 ms mRTT,
//! 240 KB-buffer bottleneck running head-drop, tail-drop, PIE, BoDe and
//! CoDel; a good learned policy should not depend on the queue discipline.

use sage_bench::{default_gr, evaluate, model_path, print_table, SEED};
use sage_collector::{EnvSpec, SetKind};
use sage_core::SageModel;
use sage_eval::runner::Contender;
use sage_netsim::aqm::AqmKind;
use sage_netsim::link::LinkModel;
use sage_netsim::time::from_secs;
use std::sync::Arc;

fn main() {
    let model = Arc::new(SageModel::load_file(&model_path("sage")).expect("train first"));
    let contenders = vec![
        Contender::Model {
            name: "sage",
            model,
            gr_cfg: default_gr(),
        },
        Contender::Heuristic("cubic"),
        Contender::Heuristic("bbr2"),
        Contender::Heuristic("vegas"),
        Contender::Heuristic("yeah"),
        Contender::Heuristic("westwood"),
    ];
    let aqms = [
        AqmKind::HeadDrop,
        AqmKind::TailDrop,
        AqmKind::Pie,
        AqmKind::BoundedDelay,
        AqmKind::CoDel,
    ];
    let envs: Vec<EnvSpec> = aqms
        .iter()
        .map(|&aqm| EnvSpec {
            id: format!("fig23-{}", aqm.name()),
            set: SetKind::SetI,
            link: LinkModel::Constant { mbps: 48.0 },
            rtt_ms: 20.0,
            buffer_bytes: 240_000,
            aqm,
            random_loss: 0.0,
            duration: from_secs(30.0),
            competing_cubic: 0,
            test_flow_start: 0,
            capacity_mbps: 48.0,
            seed: SEED,
            faults: sage_netsim::faults::FaultPlan::default(),
            topology: sage_netsim::Topology::single(),
            self_flows: 1,
            self_stagger: 0,
        })
        .collect();
    let cells = evaluate(&contenders, &envs);
    let mut rows = Vec::new();
    for c in &contenders {
        let mut row = vec![c.name().to_string()];
        let mut thrs = Vec::new();
        for env in &envs {
            let r = cells
                .iter()
                .find(|r| r.scheme == c.name() && r.scenario == env.id)
                .unwrap();
            row.push(format!("{:.1}/{:.0}", r.goodput_mbps, r.avg_owd_ms));
            thrs.push(r.goodput_mbps);
        }
        // Spread across AQMs: max/min throughput ratio (1.0 = AQM-independent).
        let spread = thrs.iter().cloned().fold(0.0, f64::max)
            / thrs.iter().cloned().fold(f64::INFINITY, f64::min).max(0.01);
        row.push(format!("{spread:.2}"));
        rows.push(row);
    }
    print_table(
        "Fig.23 AQM robustness (thr Mbps / owd ms per AQM)",
        &[
            "scheme",
            "HDrop",
            "TDrop",
            "PIE",
            "BoDe",
            "CoDel",
            "thr spread",
        ],
        &rows,
    );
}
