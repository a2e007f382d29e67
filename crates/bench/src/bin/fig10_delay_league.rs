//! Figure 10 (and Fig. 21 margin-5% + Table 2 alpha=3 variants): the league
//! of delay-based designs — Sage vs BBR2, Copa, C2TCP, LEDBAT, Vegas,
//! Sprout.
//!
//! A view over the evaluation matrix (see `fig09_ml_league`).

use sage_bench::{default_envs, default_gr, evaluate, model_path, print_league_from_cells};
use sage_core::SageModel;
use sage_eval::runner::Contender;
use std::sync::Arc;

fn main() {
    let model = Arc::new(SageModel::load_file(&model_path("sage")).expect("train first"));
    let mut contenders: Vec<Contender> = sage_heuristics::delay_league_names()
        .into_iter()
        .map(Contender::Heuristic)
        .collect();
    contenders.push(Contender::Model {
        name: "sage",
        model,
        gr_cfg: default_gr(),
    });
    let envs = default_envs();
    println!(
        "fig10: {} contenders x {} envs",
        contenders.len(),
        envs.len()
    );
    let cells = evaluate(&contenders, &envs);
    print_league_from_cells(&cells, "Fig.10 delay-based league");
}
