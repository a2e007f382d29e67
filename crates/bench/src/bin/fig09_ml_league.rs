//! Figure 9 (and Fig. 20 margin-5% + Table 3 alpha=3 variants): the league
//! of ML-based designs — Sage vs BC variants, OnlineRL, Aurora-like,
//! Indigo(v2)-like and Orca(v2)-like hybrids.
//!
//! A view over the evaluation matrix: the contender roster runs through the
//! canonical Set I/II environments and the league tables are printed
//! straight from the cells.

use sage_bench::{
    comparator, default_envs, default_gr, evaluate, model_path, print_league_from_cells,
};
use sage_core::SageModel;
use sage_eval::runner::Contender;
use std::sync::Arc;

fn main() {
    let gr_cfg = default_gr();
    let model = |name, file| Contender::Model {
        name,
        model: comparator(file),
        gr_cfg,
    };
    let hybrid = |name| Contender::Hybrid {
        name,
        model: comparator(name),
        gr_cfg,
    };
    let contenders = vec![
        Contender::Model {
            name: "sage",
            model: Arc::new(SageModel::load_file(&model_path("sage")).expect("train first")),
            gr_cfg,
        },
        model("bc", "bc"),
        model("bc-top", "bc_top"),
        model("bc-top3", "bc_top3"),
        model("bcv2", "bcv2"),
        model("onlinerl", "onlinerl"),
        model("aurora", "aurora"),
        model("indigo", "indigo"),
        model("indigov2", "indigov2"),
        hybrid("orca"),
        hybrid("orcav2"),
        Contender::Heuristic("vivace"),
    ];
    let envs = default_envs();
    println!(
        "fig09: {} contenders x {} envs",
        contenders.len(),
        envs.len()
    );
    let cells = evaluate(&contenders, &envs);
    print_league_from_cells(&cells, "Fig.9 ML-based league");
}
