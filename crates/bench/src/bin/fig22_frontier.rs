//! Figure 22 (Appendix E.1): Sage as the performance frontier. Two constant
//! environments — shallow buffer and deep buffer — throughput vs delay of
//! the 13 heuristics and Sage.

use sage_bench::{default_gr, evaluate, model_path, print_table, SEED};
use sage_collector::{EnvSpec, SetKind};
use sage_core::SageModel;
use sage_eval::runner::Contender;
use sage_netsim::aqm::AqmKind;
use sage_netsim::link::LinkModel;
use sage_netsim::time::from_secs;
use std::sync::Arc;

fn env(id: &str, buf_mult: f64) -> EnvSpec {
    let bdp = (48.0 * 1e6 / 8.0 * 0.040) as u64;
    EnvSpec {
        id: id.into(),
        set: SetKind::SetI,
        link: LinkModel::Constant { mbps: 48.0 },
        rtt_ms: 40.0,
        buffer_bytes: (bdp as f64 * buf_mult) as u64,
        aqm: AqmKind::TailDrop,
        random_loss: 0.0,
        duration: from_secs(20.0),
        competing_cubic: 0,
        test_flow_start: 0,
        capacity_mbps: 48.0,
        seed: SEED,
        faults: sage_netsim::faults::FaultPlan::default(),
        topology: sage_netsim::Topology::single(),
        self_flows: 1,
        self_stagger: 0,
    }
}

fn main() {
    let model = Arc::new(SageModel::load_file(&model_path("sage")).expect("train first"));
    let mut contenders: Vec<Contender> = sage_bench::pool_schemes()
        .into_iter()
        .map(Contender::Heuristic)
        .collect();
    contenders.push(Contender::Model {
        name: "sage",
        model,
        gr_cfg: default_gr(),
    });
    for (label, buf) in [
        ("shallow buffer (0.5 BDP)", 0.5),
        ("deep buffer (8 BDP)", 8.0),
    ] {
        let cells = evaluate(&contenders, &[env(label, buf)]);
        let mut rows: Vec<Vec<String>> = cells
            .iter()
            .map(|r| {
                vec![
                    r.scheme.clone(),
                    format!("{:.1}", r.goodput_mbps),
                    format!("{:.1}", r.avg_owd_ms),
                ]
            })
            .collect();
        rows.sort_by(|a, b| b[1].partial_cmp(&a[1]).unwrap());
        print_table(
            &format!("Fig.22 frontier — {label}"),
            &["scheme", "thr Mbps", "owd ms"],
            &rows,
        );
    }
}
