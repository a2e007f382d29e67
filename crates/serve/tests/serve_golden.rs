//! Golden regression: a fixed-seed 64-flow shared-bottleneck serving run
//! must reproduce the checked-in flow-table digest exactly. The runtime's
//! determinism contract says the digest is byte-identical at any
//! `SAGE_THREADS`, so `scripts/check.sh` runs this test under both
//! `SAGE_THREADS=1` and `SAGE_THREADS=4` against the same golden file.
//!
//! This is the only test that reads the golden, so a regeneration pass never
//! compares another binary against a file it has yet to rewrite; the
//! metrics-off/on differential (`obs_differential`) runs the same scenario
//! and compares its two reports with each other. The file is checked by
//! `sage_util::golden::check`; an intentional change moves it with every
//! other pin, through `run_experiments.sh`.

mod scenario;

#[test]
fn serve_64_flow_digest_matches_golden() {
    let (report, _) = scenario::run();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/serve_64flow.txt");
    sage_util::golden::check(path, report).unwrap();
}
