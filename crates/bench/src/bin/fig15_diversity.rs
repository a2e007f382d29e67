//! Figure 15 (§7.5, "The More the Merrier"): retrain Sage on narrower pools —
//! Sage-Top (only {vegas, cubic}: the top-ranked scheme of each set) and
//! Sage-Top4 (the four top-ranked of each set) — and show the diverse pool
//! wins.

use sage_bench::{
    default_envs, default_gr, default_train_cfg, envvar, evaluate, load_or_train, model_path,
    pool_path, pool_schemes, print_table, train_crr,
};
use sage_collector::Pool;
use sage_core::SageModel;
use sage_eval::league::rank_league;
use sage_eval::matrix::{league_scores, Family};
use sage_eval::runner::Contender;
use std::sync::Arc;

fn main() {
    let pool = Pool::load_file(&pool_path()).expect("collect first");
    let steps = envvar("SAGE_DIVERSITY_STEPS", 4000) as u64;
    // Top-ranked of each set: {vegas} (Set I) and {cubic} (Set II).
    let top = pool.filter_schemes(&["vegas", "cubic"]);
    // Top four of each set (paper: {Vegas, BBR2, YeAH, Illinois} and
    // {Cubic, HTCP, BIC, Highspeed}).
    let top4 = pool.filter_schemes(&[
        "vegas",
        "bbr2",
        "yeah",
        "illinois",
        "cubic",
        "htcp",
        "bic",
        "highspeed",
    ]);
    let gr = default_gr();
    let mut contenders: Vec<Contender> = pool_schemes()
        .into_iter()
        .map(Contender::Heuristic)
        .collect();
    contenders.push(Contender::Model {
        name: "sage",
        model: Arc::new(SageModel::load_file(&model_path("sage")).expect("train first")),
        gr_cfg: gr,
    });
    contenders.push(Contender::Model {
        name: "sage-top",
        model: load_or_train("sage_top", || train_crr(default_train_cfg(), steps, &top)),
        gr_cfg: gr,
    });
    contenders.push(Contender::Model {
        name: "sage-top4",
        model: load_or_train("sage_top4", || train_crr(default_train_cfg(), steps, &top4)),
        gr_cfg: gr,
    });

    let cells = evaluate(&contenders, &default_envs());
    let s1 = rank_league(&league_scores(&cells, Family::SetI, false), 0.10);
    let s2 = rank_league(&league_scores(&cells, Family::SetII, false), 0.10);
    let mut rows = Vec::new();
    for name in ["sage", "sage-top4", "sage-top"] {
        let r1 = s1
            .iter()
            .find(|e| e.scheme == name)
            .map(|e| e.winning_rate)
            .unwrap_or(0.0);
        let r2 = s2
            .iter()
            .find(|e| e.scheme == name)
            .map(|e| e.winning_rate)
            .unwrap_or(0.0);
        rows.push(vec![
            name.into(),
            format!("{:.2}%", r1 * 100.0),
            format!("{:.2}%", r2 * 100.0),
        ]);
    }
    print_table(
        "Fig.15 pool diversity (winning rate vs pool league)",
        &["model", "Set I", "Set II"],
        &rows,
    );
}
