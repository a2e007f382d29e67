//! Figures 18 & 27 (§7.7): fairness among flows of the same scheme. Every
//! 25 s another flow of the same scheme joins a shared bottleneck; Fig. 18
//! is Sage, Fig. 27 repeats the experiment for other schemes.
//!
//! A view over the evaluation matrix: the shared-bottleneck setting is
//! the declarative `fairness` scenario (`EnvSpec::self_flows` staggered
//! joins through the factory-based `rollout_with`), so every scheme's cell
//! carries the per-flow mean goodputs and the Jain index directly.

use sage_bench::{default_gr, evaluate, model_path, print_table};
use sage_core::SageModel;
use sage_eval::matrix::scenario_fairness;
use sage_eval::runner::Contender;
use std::sync::Arc;

fn main() {
    let model = Arc::new(SageModel::load_file(&model_path("sage")).expect("train first"));
    let mut schemes = vec![Contender::Model {
        name: "sage",
        model,
        gr_cfg: default_gr(),
    }];
    schemes.extend(
        [
            "cubic", "bbr2", "vegas", "yeah", "westwood", "copa", "vivace",
        ]
        .map(Contender::Heuristic),
    );
    println!(
        "fig18: {} schemes x 4 staggered self flows, 120 s",
        schemes.len()
    );
    let cells = evaluate(&schemes, &[scenario_fairness(4, 120.0, 25.0).env]);

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.scheme.clone(),
                c.flow_goodputs
                    .iter()
                    .map(|g| format!("{g:.1}"))
                    .collect::<Vec<_>>()
                    .join("/"),
                format!("{:.3}", c.fairness),
            ]
        })
        .collect();
    print_table(
        "Fig.18/27 Jain fairness index (4 same-scheme flows, mean Mbps per flow)",
        &["scheme", "per-flow mbps", "Jain"],
        &rows,
    );
    sage_obs::flush_trace();
}
