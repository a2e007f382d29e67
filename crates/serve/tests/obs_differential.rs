//! Observability differential: enabling metrics must never perturb results.
//!
//! Runs the same fixed-seed 64-flow shared-bottleneck scenario as
//! `serve_golden` twice in one process — once with obs force-disabled, once
//! force-enabled — and demands byte-identical action digests, plus agreement
//! with the checked-in golden digest. `scripts/check.sh` runs this at
//! `SAGE_THREADS=1` and `SAGE_THREADS=4`, so the combination proves the
//! digest is invariant in both the metrics switch and the thread count.
//!
//! The counters must see only the metrics-enabled run: it advances
//! `netsim.pkts_enqueued` and `netsim.pkts_delivered`, the disabled run
//! advances neither.

use sage_core::model::{NetConfig, SageModel};
use sage_gr::{GrConfig, STATE_DIM};
use sage_netsim::ManyFlowScenario;
use sage_serve::{run_many_flow, ServeConfig, ServeMode};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_64flow.txt")
}

/// Counters the scenario's bottleneck folds in when it drops.
const COUNTERS: [&str; 2] = ["netsim.pkts_enqueued", "netsim.pkts_delivered"];

/// The fixed-seed 64-flow scenario of `serve_golden::run`, returning the
/// action-history digest and what the run added to each of [`COUNTERS`].
fn run_digest() -> (u64, [u64; 2]) {
    let counters = COUNTERS.map(sage_obs::counter);
    let before = counters.each_ref().map(|c| c.value());
    let mut sc = ManyFlowScenario::shared_bottleneck(64, 4, 42);
    sc.secs = 3.0;
    let cfg = NetConfig {
        enc1: 8,
        gru: 8,
        enc2: 8,
        fc: 8,
        residual_blocks: 1,
        critic_hidden: 8,
        ..NetConfig::default()
    };
    let model = Arc::new(SageModel::new(
        cfg,
        vec![0.0; STATE_DIM],
        vec![1.0; STATE_DIM],
        7,
    ));
    let report = run_many_flow(
        &sc,
        model,
        GrConfig::default(),
        ServeConfig {
            mode: ServeMode::Batched,
            threads: 0, // resolve from SAGE_THREADS: check.sh varies it
            ..ServeConfig::default()
        },
    );
    let added = std::array::from_fn(|i| counters[i].value() - before[i]);
    (report.digest, added)
}

/// One test (not several) because the obs kill switch is process-global and
/// the default harness runs tests concurrently.
#[test]
fn metrics_on_and_off_produce_identical_digests() {
    sage_obs::force_enabled(false);
    let (digest_off, added_off) = run_digest();

    sage_obs::force_enabled(true);
    let (digest_on, added_on) = run_digest();

    assert_eq!(
        digest_off, digest_on,
        "enabling metrics changed the serve action digest"
    );

    // Re-assert the checked-in golden digest (first line: `digest <hex>`).
    let golden = std::fs::read_to_string(golden_path()).expect("golden file present");
    let want = golden
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("digest "))
        .map(|h| u64::from_str_radix(h.trim(), 16).expect("golden digest parses"))
        .expect("golden file starts with a digest line");
    assert_eq!(
        digest_on, want,
        "metrics-enabled digest diverged from the golden file"
    );

    for (name, (off, on)) in COUNTERS.iter().zip(added_off.into_iter().zip(added_on)) {
        assert_eq!(off, 0, "the metrics-disabled run advanced {name}");
        assert!(on > 0, "the metrics-enabled run did not advance {name}");
    }
}
