//! A panic inside supervised collection must not lose observability: the
//! flight recorder dumps a post-mortem from the `catch_unwind` recovery
//! path, so the causal tail is on disk even though the cell died.
//!
//! Own integration-test binary: the dump path is read from the environment,
//! which must be set before the panics.

use sage_collector::collect_pool_with_threads;
use sage_gr::GrConfig;

#[test]
fn panic_dumps_flight_postmortem() {
    let dir = std::env::temp_dir().join(format!("sage-trace-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let flight_path = dir.join("FLIGHT_panic.jsonl");
    std::env::set_var("SAGE_FLIGHT_FILE", &flight_path);
    sage_obs::log::force_level(None);
    sage_obs::force_record("collect");
    sage_obs::force_enabled(true);
    let retries = sage_obs::counter("collect.retries");
    let retries_before = retries.value();

    // Silence the default panic printer: the induced panics are the point.
    std::panic::set_hook(Box::new(|_| {}));
    let envs = sage_collector::env::training_envs(1, 0, 2.0, 3);
    // An unknown scheme name panics inside the supervised catch_unwind on
    // every attempt, so the cell is retried twice and then abandoned.
    let pool = collect_pool_with_threads(
        &envs,
        &["no-such-scheme"],
        GrConfig::default(),
        1,
        0,
        |_, _| {},
    );
    let _ = std::panic::take_hook();

    assert!(pool.trajectories.is_empty());
    assert_eq!(
        retries.value() - retries_before,
        3,
        "attempt 0 + 2 retries, each counted"
    );

    // The flight recorder dumped a post-mortem with the panic markers.
    let flight = std::fs::read_to_string(&flight_path).expect("flight post-mortem written");
    let header = sage_util::Json::parse(flight.lines().next().expect("header")).expect("header");
    assert_eq!(
        header.get("postmortem").and_then(|j| j.as_bool()),
        Some(true)
    );
    let panics = flight
        .lines()
        .skip(1)
        .filter(|l| {
            sage_util::Json::parse(l)
                .expect("event line parses")
                .get("kind")
                == Some(&sage_util::Json::str("panic"))
        })
        .count();
    assert_eq!(panics, 3, "one panic marker per failed attempt: {flight}");

    sage_obs::force_record("off");
    sage_obs::reset_recorder();
    std::fs::remove_dir_all(&dir).ok();
}
