//! Single-flow showdown (the paper's Set I in miniature): run every pool
//! heuristic through a small grid of environments, score them with the
//! interval Power score, and print the league table.
//!
//! ```sh
//! cargo run --release --example single_flow_showdown
//! ```

use sage::eval::league::rank_league;
use sage::eval::matrix::{league_scores, run_matrix, scenarios_set12, Family, MatrixSpec};
use sage::eval::runner::Contender;

fn main() {
    let spec = MatrixSpec {
        schemes: sage::heuristics::pool_names()
            .into_iter()
            .map(Contender::Heuristic)
            .collect(),
        scenarios: scenarios_set12(8, 0, 10.0, 7),
        seeds: vec![7],
        alpha: 2.0,
        threads: 0,
    };
    println!(
        "running {} schemes x {} environments...",
        spec.schemes.len(),
        spec.scenarios.len()
    );
    let report = run_matrix(&spec, |done, total| {
        if done % 26 == 0 {
            println!("  {done}/{total}");
        }
    });
    let table = rank_league(&league_scores(&report.cells, Family::SetI, false), 0.10);
    println!("\nSet I league (margin 10%):");
    for e in table {
        println!(
            "  {:10} {:6.2}%  ({} wins / {} cells)",
            e.scheme,
            e.winning_rate * 100.0,
            e.wins,
            e.cells
        );
    }
}
