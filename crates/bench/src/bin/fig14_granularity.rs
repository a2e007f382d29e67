//! Figures 14 & 16 (§7.4): impact of input-statistic granularity. Re-collect
//! pools with uniform observation windows (Small=10, Medium=200, Large=1000
//! ticks), train Sage-s / Sage-m / Sage-l, and compare winning rates.
//! Also dumps the last-hidden-layer t-SNE coordinates over seven Set II
//! environments (Fig. 16).

use sage_bench::{
    default_envs, default_gr, default_train_cfg, envvar, evaluate, load_or_train, model_path,
    pool_schemes, print_table, train_crr, SEED,
};
use sage_collector::{collect_pool, rollout, SetKind};
use sage_core::policy::{ActionMode, SagePolicy};
use sage_core::SageModel;
use sage_eval::league::rank_league;
use sage_eval::matrix::{league_scores, Family};
use sage_eval::runner::Contender;
use sage_eval::tsne::{tsne, TsneConfig};
use sage_gr::{GrConfig, STATE_DIM};
use sage_nn::{Array, Graph};
use std::sync::Arc;

fn main() {
    let steps = envvar("SAGE_GRAN_STEPS", 3000) as u64;
    let variants: Vec<(&'static str, GrConfig)> = vec![
        ("sage_s", GrConfig::uniform(10)),
        ("sage_m", GrConfig::uniform(200)),
        ("sage_l", GrConfig::uniform(1000)),
    ];
    let mut contenders: Vec<Contender> = pool_schemes()
        .into_iter()
        .map(Contender::Heuristic)
        .collect();
    contenders.push(Contender::Model {
        name: "sage",
        model: Arc::new(SageModel::load_file(&model_path("sage")).expect("train first")),
        gr_cfg: default_gr(),
    });
    for (name, gr) in &variants {
        let model = load_or_train(name, || {
            let pool = collect_pool(&default_envs(), &pool_schemes(), *gr, SEED, |_, _| {});
            train_crr(default_train_cfg(), steps, &pool)
        });
        contenders.push(Contender::Model {
            name,
            model,
            gr_cfg: *gr,
        });
    }
    let envs = default_envs();
    let cells = evaluate(&contenders, &envs);
    let s1 = rank_league(&league_scores(&cells, Family::SetI, false), 0.10);
    let s2 = rank_league(&league_scores(&cells, Family::SetII, false), 0.10);
    let mut rows = Vec::new();
    for name in ["sage", "sage_s", "sage_m", "sage_l"] {
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
        "Fig.14 granularity (winning rate vs pool league)",
        &["model", "Set I", "Set II"],
        &rows,
    );

    // ---- Fig. 16: t-SNE of the last hidden layer over 7 Set II envs ----
    let mut set2_envs: Vec<_> = envs
        .iter()
        .filter(|e| e.set == SetKind::SetII)
        .cloned()
        .collect();
    set2_envs.truncate(7);
    for (name, gr) in &variants {
        let model = Arc::new(SageModel::load_file(&model_path(name)).unwrap());
        let mut feats: Vec<Vec<f64>> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        for (ei, env) in set2_envs.iter().enumerate() {
            let run = rollout(
                env,
                name,
                Box::new(SagePolicy::new(
                    model.clone(),
                    *gr,
                    SEED,
                    ActionMode::Deterministic,
                )),
                *gr,
                SEED,
            );
            // Recompute hidden features over the recorded states
            // (subsampled to keep t-SNE O(n^2) small).
            let n = run.traj.len();
            let stride = (n / 30).max(1);
            let mut g = Graph::new();
            let mut h = model.policy.initial_hidden(&mut g, 1);
            for t in 0..n {
                let full: Vec<f64> = run.traj.state(t).iter().map(|&x| x as f64).collect();
                debug_assert_eq!(full.len(), STATE_DIM);
                let x = model.prepare_input(&full);
                let xin = g.input(Array::row(x));
                let (_, h1, trunk) = model
                    .policy
                    .step_with_features(&mut g, &model.store, xin, h);
                h = h1;
                if t % stride == 0 {
                    feats.push(g.value(trunk).data.clone());
                    labels.push(ei);
                }
                if g.value(h).rows != 1 {
                    unreachable!();
                }
            }
        }
        let coords = tsne(
            &feats,
            TsneConfig {
                perplexity: 15.0,
                iterations: 300,
                ..Default::default()
            },
        );
        println!("\n== Fig.16 t-SNE coordinates: {name} (env_idx x y) ==");
        for (i, (x, y)) in coords.iter().enumerate() {
            println!("{}\t{x:.2}\t{y:.2}", labels[i]);
        }
        // Cluster-separation diagnostic: silhouette-like ratio.
        let mut intra = (0.0, 0usize);
        let mut inter = (0.0, 0usize);
        for i in 0..coords.len() {
            for j in (i + 1)..coords.len() {
                let d = ((coords[i].0 - coords[j].0).powi(2) + (coords[i].1 - coords[j].1).powi(2))
                    .sqrt();
                if labels[i] == labels[j] {
                    intra.0 += d;
                    intra.1 += 1;
                } else {
                    inter.0 += d;
                    inter.1 += 1;
                }
            }
        }
        println!(
            "{name}: mean intra-env dist {:.2}, inter-env {:.2}, separation ratio {:.2}",
            intra.0 / intra.1.max(1) as f64,
            inter.0 / inter.1.max(1) as f64,
            (inter.0 / inter.1.max(1) as f64) / (intra.0 / intra.1.max(1) as f64)
        );
    }
}
