//! Figure 12 (§7.3): ablation study. Retrain six variants under a shortened
//! regime — input ablations (no Min/Max, no rttVar, no Loss/Inf) and
//! architecture ablations (no GRU, no Encoder, no GMM) — and compare
//! winning rates against the pool league in both sets.

use sage_bench::{
    default_envs, default_gr, default_train_cfg, envvar, evaluate, load_or_train, model_path,
    pool_path, pool_schemes, print_table, train_crr,
};
use sage_collector::Pool;
use sage_core::{CrrConfig, NetConfig, SageModel};
use sage_eval::league::rank_league;
use sage_eval::matrix::{league_scores, Family};
use sage_eval::runner::Contender;
use sage_gr::FeatureMask;
use std::sync::Arc;

fn main() {
    let pool = Pool::load_file(&pool_path()).expect("collect first");
    let steps = envvar("SAGE_ABLATION_STEPS", 3000) as u64;
    let base = default_train_cfg();
    let gr = default_gr();

    let variants: Vec<(&str, CrrConfig)> = vec![
        (
            "abl_nominmax",
            CrrConfig {
                net: base.net.with_mask(FeatureMask::NoMinMax),
                ..base
            },
        ),
        (
            "abl_norttvar",
            CrrConfig {
                net: base.net.with_mask(FeatureMask::NoRttVar),
                ..base
            },
        ),
        (
            "abl_nolossinf",
            CrrConfig {
                net: base.net.with_mask(FeatureMask::NoLossInflight),
                ..base
            },
        ),
        (
            "abl_nogru",
            CrrConfig {
                net: NetConfig { gru: 0, ..base.net },
                ..base
            },
        ),
        (
            "abl_noencoder",
            CrrConfig {
                net: NetConfig {
                    enc2: 0,
                    ..base.net
                },
                ..base
            },
        ),
        (
            "abl_nogmm",
            CrrConfig {
                net: NetConfig {
                    gmm_k: 1,
                    ..base.net
                },
                ..base
            },
        ),
    ];

    let mut contenders: Vec<Contender> = pool_schemes()
        .into_iter()
        .map(Contender::Heuristic)
        .collect();
    contenders.push(Contender::Model {
        name: "sage",
        model: Arc::new(SageModel::load_file(&model_path("sage")).expect("train first")),
        gr_cfg: gr,
    });
    for (name, cfg) in &variants {
        let model = load_or_train(name, || train_crr(*cfg, steps, &pool));
        let static_name: &'static str = Box::leak(name.to_string().into_boxed_str());
        contenders.push(Contender::Model {
            name: static_name,
            model,
            gr_cfg: gr,
        });
    }

    let cells = evaluate(&contenders, &default_envs());
    let mut rows = Vec::new();
    let s1 = rank_league(&league_scores(&cells, Family::SetI, false), 0.10);
    let s2 = rank_league(&league_scores(&cells, Family::SetII, false), 0.10);
    for name in std::iter::once("sage").chain(variants.iter().map(|(n, _)| *n)) {
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
            name.to_string(),
            format!("{:.2}%", r1 * 100.0),
            format!("{:.2}%", r2 * 100.0),
        ]);
    }
    print_table(
        "Fig.12 ablations (winning rate vs pool league)",
        &["variant", "Set I", "Set II"],
        &rows,
    );
}
