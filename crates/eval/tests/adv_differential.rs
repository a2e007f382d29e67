//! Differential determinism gate for the adversarial search: the ranked
//! report — the exact bytes `figures adv` writes to `ADV_hardest.json` —
//! must be identical at 1, 2 and 4 worker threads. Proposal is serial and
//! evaluation fans out through an ordered reduction, so any scheduling
//! dependence is a bug, not noise.

use sage_eval::adversary::{report_json, search, AdvConfig};
use sage_eval::runner::Contender;

fn run(threads: usize) -> String {
    let cfg = AdvConfig {
        budget: 8,
        init: 4,
        batch: 4,
        secs: 2.0,
        threads,
        top_k: 8,
        ..AdvConfig::default()
    };
    let target = Contender::Heuristic("vivace");
    let roster = [
        Contender::Heuristic("cubic"),
        Contender::Heuristic("bbr2"),
        Contender::Heuristic("vegas"),
        Contender::Heuristic("newreno"),
    ];
    let report = search(&cfg, &target, &roster, |_, _| {});
    report_json(&cfg, &report).to_string()
}

#[test]
fn adversarial_report_is_thread_count_invariant() {
    let serial = run(1);
    let two = run(2);
    let four = run(4);
    assert_eq!(serial, two, "report differs between 1 and 2 threads");
    assert_eq!(serial, four, "report differs between 1 and 4 threads");
    // The report really ranked a populated search, not an empty shell.
    let parsed = sage_util::Json::parse(&serial).expect("report parses");
    let hardest = parsed.get("hardest").and_then(|j| j.as_arr()).unwrap();
    assert_eq!(hardest.len(), 8);
    let regrets: Vec<f64> = hardest
        .iter()
        .map(|h| h.get("regret").and_then(|r| r.as_f64()).unwrap())
        .collect();
    assert!(regrets.windows(2).all(|w| w[0] >= w[1]), "not ranked");
}
