//! Causal flow-trace reconstruction from a flight-recorder dump.
//!
//! Reads a `FLIGHT_*.jsonl` file (header line + one event per line; the
//! only writer is the panic post-mortem path, which puts it at
//! `SAGE_FLIGHT_FILE` or `FLIGHT_panic.jsonl`) and reconstructs one flow's
//! causal timeline: every event stamped with the requested span id,
//! tick-sorted, across serve / transport / netsim / eval / collect —
//! admission to eviction, enqueue to drop.
//!
//! Usage:
//!   sage_trace <flight.jsonl>              list spans by event count
//!   sage_trace <flight.jsonl> <span-hex>   print that span's timeline
//!
//! Span ids are the lowercase hex strings the dump carries (serve flows:
//! `gen + 1`; sim flows: `cell_span_base + flow_id + 1`). Exits non-zero on
//! unreadable input or an empty timeline, so scripts can gate on it.

use sage_util::Json;
use std::collections::BTreeMap;

struct Ev {
    tick: u64,
    cat: String,
    kind: String,
    a: u64,
    b: u64,
}

fn hex(j: Option<&Json>) -> u64 {
    j.and_then(|v| v.as_str())
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .unwrap_or(0)
}

fn fail(msg: &str) -> ! {
    eprintln!("sage_trace: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 2 || args.len() > 3 {
        fail("usage: sage_trace <flight.jsonl> [span-hex]");
    }
    let text = std::fs::read_to_string(&args[1])
        .unwrap_or_else(|e| fail(&format!("read {}: {e}", args[1])));
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let header = Json::parse(lines.next().unwrap_or_else(|| fail("empty dump")))
        .unwrap_or_else(|_| fail("unparseable header line"));
    let total = header.get("events").and_then(|j| j.as_f64()).unwrap_or(0.0);
    let dropped = header
        .get("dropped")
        .and_then(|j| j.as_f64())
        .unwrap_or(0.0);
    let postmortem = header.get("postmortem").and_then(|j| j.as_bool()) == Some(true);
    println!(
        "flight dump: {} events, {} dropped{}",
        total,
        dropped,
        if postmortem {
            " (post-mortem tail)"
        } else {
            ""
        }
    );

    // span -> events (or event count in listing mode).
    let mut by_span: BTreeMap<u64, Vec<Ev>> = BTreeMap::new();
    for line in lines {
        let j =
            Json::parse(line).unwrap_or_else(|_| fail(&format!("unparseable event line: {line}")));
        let span = hex(j.get("span"));
        by_span.entry(span).or_default().push(Ev {
            tick: j.get("tick").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64,
            cat: j
                .get("cat")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string(),
            kind: j
                .get("kind")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string(),
            a: hex(j.get("a")),
            b: hex(j.get("b")),
        });
    }

    let Some(want) = args.get(2) else {
        println!("\n{:>16}  {:>7}  categories", "span", "events");
        for (span, evs) in &by_span {
            let mut cats: Vec<&str> = evs.iter().map(|e| e.cat.as_str()).collect();
            cats.sort_unstable();
            cats.dedup();
            println!("{span:>16x}  {:>7}  {}", evs.len(), cats.join(","));
        }
        return;
    };
    let span = u64::from_str_radix(want.trim_start_matches("0x"), 16)
        .unwrap_or_else(|_| fail(&format!("bad span hex: {want}")));
    let Some(evs) = by_span.get_mut(&span) else {
        fail(&format!("no events for span {span:x}"));
    };
    evs.sort_by_key(|e| e.tick);
    println!("\ntimeline for span {span:x} ({} events):", evs.len());
    println!(
        "{:>12}  {:<9}  {:<10}  {:>16}  {:>16}",
        "tick", "cat", "kind", "a", "b"
    );
    for e in evs.iter() {
        println!(
            "{:>12}  {:<9}  {:<10}  {:>16x}  {:>16x}",
            e.tick, e.cat, e.kind, e.a, e.b
        );
    }
}
