//! A panic inside supervised collection must not lose observability: the
//! buffered `SAGE_TRACE_FILE` JSONL tail is flushed and the flight
//! recorder dumps a post-mortem from the `catch_unwind` recovery path, so
//! the on-disk trace is complete and parseable even though the cell died.
//!
//! Own integration-test binary: the trace sink binds its path once per
//! process, so the env vars must be set before any obs call.

use sage_collector::supervise::{collect_pool_supervised, SuperviseConfig};
use sage_gr::GrConfig;

#[test]
fn panic_flushes_trace_and_dumps_flight_postmortem() {
    let dir = std::env::temp_dir().join(format!("sage-trace-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.jsonl");
    let flight_path = dir.join("FLIGHT_panic.jsonl");
    // Must precede the first obs call in this process: the sink caches its
    // path on first use.
    std::env::set_var(sage_obs::log::TRACE_FILE_ENV, &trace_path);
    std::env::set_var("SAGE_FLIGHT_FILE", &flight_path);
    sage_obs::log::force_level(Some(sage_obs::Level::Warn));
    sage_obs::force_record("collect");

    // Silence the default panic printer: the induced panics are the point.
    std::panic::set_hook(Box::new(|_| {}));
    let envs = sage_collector::env::training_envs(1, 0, 2.0, 3);
    let sup = SuperviseConfig {
        max_retries: 1,
        ..SuperviseConfig::default()
    };
    // An unknown scheme name panics inside the supervised catch_unwind on
    // every attempt, so the cell is retried once and then abandoned.
    let (pool, report) = collect_pool_supervised(
        &envs,
        &["no-such-scheme"],
        GrConfig::default(),
        1,
        0,
        &sup,
        |_, _| {},
    );
    let _ = std::panic::take_hook();

    assert_eq!(report.panicked, 1);
    assert_eq!(report.retries, 2, "attempt 0 + 1 retry");
    assert_eq!(report.completed, 0);
    assert!(pool.trajectories.is_empty());
    assert_eq!(report.failed.len(), 1);
    assert!(
        report.failed[0].starts_with("no-such-scheme@"),
        "{:?}",
        report.failed
    );

    // The trace file was flushed from the panic path (no explicit
    // flush_trace here), is complete, and every line parses.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written on panic");
    let lines: Vec<&str> = trace.lines().filter(|l| !l.is_empty()).collect();
    assert!(
        lines.len() >= 2,
        "expected both panic warnings in the trace, got {}",
        lines.len()
    );
    let mut saw_panic_msg = false;
    for line in &lines {
        let j = sage_util::Json::parse(line).expect("every trace line parses");
        assert!(j.get("ts_us").is_some() && j.get("level").is_some());
        let msg = j.get("msg").and_then(|m| m.as_str()).unwrap_or("");
        saw_panic_msg |= msg.contains("rollout panicked");
    }
    assert!(
        saw_panic_msg,
        "trace must carry the panic warnings: {trace}"
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
    assert_eq!(panics, 2, "one panic marker per failed attempt: {flight}");

    sage_obs::force_record("off");
    sage_obs::reset_recorder();
    std::fs::remove_dir_all(&dir).ok();
}
