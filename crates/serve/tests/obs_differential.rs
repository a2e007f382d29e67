//! Observability differential: enabling metrics must never perturb results.
//!
//! Runs `serve_golden`'s scenario twice in one process, with obs
//! force-disabled and then force-enabled, and demands the same report. It
//! does not read the golden: `serve_golden` pins the report, so together they
//! hold the report invariant in the metrics switch, and `scripts/check.sh`'s
//! two suite passes hold it in the thread count.
//!
//! The counters must see only the metrics-enabled run: it advances
//! `netsim.pkts_enqueued` and `netsim.pkts_delivered`, the disabled run
//! advances neither.

mod scenario;

/// One test (not several) because the obs kill switch is process-global and
/// the default harness runs tests concurrently.
#[test]
fn metrics_on_and_off_produce_identical_digests() {
    sage_obs::force_enabled(false);
    let (off, added_off) = scenario::run();
    sage_obs::force_enabled(true);
    let (on, added_on) = scenario::run();

    assert_eq!(off, on, "enabling metrics changed the serve report");
    for (name, (off, on)) in scenario::COUNTERS
        .iter()
        .zip(added_off.into_iter().zip(added_on))
    {
        assert_eq!(off, 0, "the metrics-disabled run advanced {name}");
        assert!(on > 0, "the metrics-enabled run did not advance {name}");
    }
}
