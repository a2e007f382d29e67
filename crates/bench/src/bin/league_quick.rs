//! Quick league check: Sage vs the 13 pool heuristics on the canonical
//! environment set (winning rates, both sets). Used to validate the pipeline;
//! `fig01`/`fig07`/`fig09`/`fig10` are the full reproductions.

use sage_bench::{default_envs, default_gr, evaluate, model_path, print_table};
use sage_core::SageModel;
use sage_eval::league::rank_league;
use sage_eval::matrix::{league_scores, Family};
use sage_eval::runner::Contender;
use std::sync::Arc;

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
    let cells = evaluate(&contenders, &default_envs());
    for (family, label) in [
        (Family::SetI, "Set I (single-flow)"),
        (Family::SetII, "Set II (vs Cubic)"),
    ] {
        let table = rank_league(&league_scores(&cells, family, false), 0.10);
        let rows: Vec<Vec<String>> = table
            .iter()
            .map(|e| vec![e.scheme.clone(), format!("{:.2}%", e.winning_rate * 100.0)])
            .collect();
        print_table(label, &["scheme", "winning rate"], &rows);
    }
}
