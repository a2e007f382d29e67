//! Figure 1: winning rates of representative heuristic CC schemes in Set I
//! (single-flow) and Set II (vs Cubic) — the "empty half of the glass":
//! rankings in the two sets are roughly opposite.

use sage_bench::{default_envs, evaluate, print_league_from_cells};
use sage_eval::runner::Contender;

fn main() {
    // The schemes shown in Fig. 1.
    let contenders: Vec<Contender> = ["vegas", "yeah", "copa", "bbr2", "cubic", "htcp", "bic"]
        .into_iter()
        .map(Contender::Heuristic)
        .collect();
    let envs = default_envs();
    println!("fig01: {} schemes x {} envs", contenders.len(), envs.len());
    let cells = evaluate(&contenders, &envs);
    print_league_from_cells(&cells, "Fig.1 heuristics");
    sage_obs::flush_trace();
}
