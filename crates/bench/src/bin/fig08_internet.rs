//! Figure 8: consistent high performance on "Internet" paths — normalized
//! average delay, 95th-percentile delay, and normalized average throughput
//! over three regimes: (a) intra-continental, (b) inter-continental,
//! (c) highly-variable (cellular) links.
//!
//! The paper measures real GENI/AWS paths; we substitute the synthetic
//! profiles of `sage_netsim::internet` (see DESIGN.md).

use sage_bench::{default_gr, evaluate, model_path, print_table, SEED};
use sage_collector::{EnvSpec, SetKind};
use sage_core::SageModel;
use sage_eval::runner::Contender;
use sage_netsim::internet::InternetProfile;
use sage_netsim::time::from_secs;
use sage_util::Rng;
use std::sync::Arc;

fn profile_envs(profile: InternetProfile, n: usize, secs: f64, seed: u64) -> Vec<EnvSpec> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let s = profile.sample(&mut rng, from_secs(secs));
            EnvSpec {
                id: format!("{}-{}-{}", profile.name(), i, s.label),
                set: SetKind::SetI,
                link: s.link.clone(),
                rtt_ms: s.rtt_ms,
                buffer_bytes: s.buffer_bytes,
                aqm: sage_netsim::aqm::AqmKind::TailDrop,
                random_loss: s.random_loss,
                duration: from_secs(secs),
                competing_cubic: 0,
                test_flow_start: 0,
                capacity_mbps: s.link.mean_mbps(from_secs(secs)),
                seed: seed + i as u64,
                faults: sage_netsim::faults::FaultPlan::default(),
                topology: sage_netsim::Topology::single(),
                self_flows: 1,
                self_stagger: 0,
            }
        })
        .collect()
}

fn main() {
    let model = Arc::new(SageModel::load_file(&model_path("sage")).expect("train first"));
    let contenders: Vec<Contender> = vec![
        Contender::Model {
            name: "sage",
            model,
            gr_cfg: default_gr(),
        },
        Contender::Heuristic("bbr2"),
        Contender::Heuristic("cubic"),
        Contender::Heuristic("vegas"),
        Contender::Heuristic("westwood"),
        Contender::Heuristic("yeah"),
        Contender::Heuristic("copa"),
        Contender::Heuristic("c2tcp"),
        Contender::Heuristic("sprout"),
        Contender::Heuristic("illinois"),
    ];
    let n = sage_bench::envvar("SAGE_FIG8_N", 8);
    for profile in [
        InternetProfile::IntraContinental,
        InternetProfile::InterContinental,
        InternetProfile::Cellular,
    ] {
        let envs = profile_envs(profile, n, 12.0, SEED ^ 0xF18);
        let cells = evaluate(&contenders, &envs);
        // Aggregate per scheme; normalise delay by the per-env minimum and
        // throughput by the per-env maximum (as the paper does).
        let mut rows = Vec::new();
        for c in &contenders {
            let mut nd = Vec::new();
            let mut nd95 = Vec::new();
            let mut nt = Vec::new();
            for env in &envs {
                let of_env: Vec<_> = cells.iter().filter(|r| r.scenario == env.id).collect();
                let min_d = of_env
                    .iter()
                    .map(|r| r.avg_owd_ms)
                    .fold(f64::INFINITY, f64::min);
                let max_t = of_env.iter().map(|r| r.goodput_mbps).fold(0.0, f64::max);
                if let Some(r) = of_env.iter().find(|r| r.scheme == c.name()) {
                    nd.push(r.avg_owd_ms / min_d.max(1e-9));
                    nd95.push(r.p95_owd_ms / min_d.max(1e-9));
                    nt.push(r.goodput_mbps / max_t.max(1e-9));
                }
            }
            rows.push(vec![
                c.name().to_string(),
                format!("{:.2}", sage_util::mean(&nd)),
                format!("{:.2}", sage_util::mean(&nd95)),
                format!("{:.2}", sage_util::mean(&nt)),
            ]);
        }
        rows.sort_by(|a, b| b[3].partial_cmp(&a[3]).unwrap());
        print_table(
            &format!("Fig.8 {} ({} paths)", profile.name(), n),
            &["scheme", "norm avg delay", "norm p95 delay", "norm avg thr"],
            &rows,
        );
    }
}
