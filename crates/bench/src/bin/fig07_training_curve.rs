//! Figure 7: Sage's winning rate against the pool league after each training
//! "day" (checkpoint), in both Set I and Set II. The paper's headline: Sage
//! crosses the heuristics within the training budget and keeps climbing.

use sage_bench::{default_envs, default_gr, evaluate, model_path, pool_schemes, print_table};
use sage_core::SageModel;
use sage_eval::league::rank_league;
use sage_eval::matrix::{league_scores, Family};
use sage_eval::runner::Contender;
use std::sync::Arc;

fn main() {
    let envs = default_envs();
    let heuristics: Vec<Contender> = pool_schemes()
        .into_iter()
        .map(Contender::Heuristic)
        .collect();
    // The heuristics' cells do not depend on the checkpoint: run them once
    // and merge each day's Sage cells in (the winner margins are recomputed
    // per merged league).
    let heuristic_cells = evaluate(&heuristics, &envs);
    sage_obs::obs_info!("heuristic baseline runs done");
    let mut rows = Vec::new();
    for day in 1..=7 {
        let path = model_path(&format!("sage_d{day}"));
        if !path.exists() {
            sage_obs::obs_warn!("checkpoint {day} missing — run train_sage");
            continue;
        }
        let model = Arc::new(SageModel::load_file(&path).expect("load ckpt"));
        let sage_only = vec![Contender::Model {
            name: "sage",
            model,
            gr_cfg: default_gr(),
        }];
        let mut cells = evaluate(&sage_only, &envs);
        cells.extend(heuristic_cells.iter().cloned());
        let rate_of = |family: Family| -> (f64, f64) {
            let table = rank_league(&league_scores(&cells, family, false), 0.10);
            let sage = table
                .iter()
                .find(|e| e.scheme == "sage")
                .map(|e| e.winning_rate)
                .unwrap_or(0.0);
            let best_h = table
                .iter()
                .filter(|e| e.scheme != "sage")
                .map(|e| e.winning_rate)
                .fold(0.0, f64::max);
            (sage, best_h)
        };
        let (s1, h1) = rate_of(Family::SetI);
        let (s2, h2) = rate_of(Family::SetII);
        rows.push(vec![
            format!("{day}"),
            format!("{:.2}%", s1 * 100.0),
            format!("{:.2}%", h1 * 100.0),
            format!("{:.2}%", s2 * 100.0),
            format!("{:.2}%", h2 * 100.0),
        ]);
        sage_obs::obs_info!("day {day} done");
    }
    print_table(
        "Fig.7 Sage winning rate during training",
        &[
            "day",
            "SetI sage",
            "SetI best-heuristic",
            "SetII sage",
            "SetII best-heuristic",
        ],
        &rows,
    );
}
