//! Adversarial scenario search: coordinate descent + evolutionary restarts
//! over the full netsim parameter space (rate steps, burst loss, jitter,
//! blackouts, flaps, ACK compression, reordering, AQM, cross traffic,
//! multi-bottleneck hops), scoring each candidate by the learned policy's
//! regret against the best heuristic. The ranked hardest scenarios go to
//! `artifacts/results/ADV_hardest.json` (crash-safe write; byte-identical
//! at any `SAGE_THREADS` — `crates/eval/tests/adv_differential.rs`).
//! `SAGE_SECS` sets the seconds per rollout (default 6).

use sage_bench::{default_gr, envvar, model_path, print_table, SEED};
use sage_core::SageModel;
use sage_eval::adversary::{decode, report_json, search, AdvConfig};
use sage_eval::runner::Contender;
use std::sync::Arc;

/// The heuristic roster the target's regret is measured against: the
/// strongest loss-based, model-based and delay-based pool schemes.
const ROSTER: [&str; 4] = ["cubic", "bbr2", "vegas", "newreno"];

fn main() {
    let cfg = AdvConfig {
        budget: 64,
        secs: envvar("SAGE_SECS", 6) as f64,
        seed: SEED,
        ..AdvConfig::default()
    };

    let target = match SageModel::load_file(&model_path("sage")) {
        Ok(model) => Contender::Model {
            name: "sage",
            model: Arc::new(model),
            gr_cfg: default_gr(),
        },
        Err(e) => {
            sage_obs::obs_warn!("no learned policy ({e}); searching against vivace instead");
            Contender::Heuristic("vivace")
        }
    };
    let roster: Vec<Contender> = ROSTER.into_iter().map(Contender::Heuristic).collect();

    println!(
        "adversarial search: target={} vs {:?}, budget {} x {} s (SAGE_SECS)",
        target.name(),
        ROSTER,
        cfg.budget,
        cfg.secs
    );
    let report = search(&cfg, &target, &roster, |d, t| {
        sage_obs::obs_info!("  {d}/{t} candidates");
    });

    let rows: Vec<Vec<String>> = report
        .ranked
        .iter()
        .enumerate()
        .map(|(rank, o)| {
            let env = decode(&o.genome, cfg.secs);
            vec![
                (rank + 1).to_string(),
                o.id.clone(),
                format!("{:+.3}", o.regret),
                format!("{:.3}", o.target_score),
                format!("{}:{:.3}", o.best_scheme, o.best_score),
                format!("{:.3}", o.fairness),
                if o.target_survived { "yes" } else { "NO" }.to_string(),
                format!(
                    "{:.0}mbps/{:.0}ms/h{}/x{}",
                    env.capacity_mbps,
                    env.rtt_ms,
                    env.topology.hops(),
                    env.competing_cubic
                ),
            ]
        })
        .collect();
    print_table(
        "Hardest scenarios (regret descending)",
        &[
            "rank", "id", "regret", "target", "best", "jain", "ok", "env",
        ],
        &rows,
    );

    // Stable one-line records for run_experiments.sh's summary grep.
    for (k, o) in report.ranked.iter().take(3).enumerate() {
        println!(
            "HARD[{}] id={} regret={:+.4} best={} fairness={:.3}",
            k + 1,
            o.id,
            o.regret,
            o.best_scheme,
            o.fairness
        );
    }

    let path = sage_bench::write_report("ADV_hardest.json", &report_json(&cfg, &report));
    println!(
        "\nevaluated {} candidates in {} rounds, digest {:016x}\nreport: {}",
        report.evaluated,
        report.rounds,
        report.digest,
        path.display()
    );
    sage_obs::flush_trace();
}
