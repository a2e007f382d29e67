//! The `sage_trace` bin on a post-mortem dump written by the flight
//! recorder: list mode counts each span's events and names its categories,
//! span mode prints one span's kinds in tick order, and input it cannot use
//! exits 2.

use sage_obs::{dump_postmortem, force_record, record, reset_recorder, Category, EventKind};
use std::path::{Path, PathBuf};
use std::process::Output;

fn trace(dump: &Path, span: Option<&str>) -> Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_sage_trace"));
    cmd.arg(dump).args(span);
    cmd.output().expect("sage_trace runs")
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "{out:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The whitespace-separated fields of every line of `text`.
fn rows(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .map(|l| l.split_whitespace().collect())
        .collect()
}

#[test]
fn sage_trace_lists_spans_and_prints_one_timeline() {
    force_record("all");
    reset_recorder();
    // Span a1 gets three categories, recorded out of tick order.
    record(Category::Serve, EventKind::Admit, 5, 0xa1, 1, 2);
    record(Category::Transport, EventKind::Rto, 3, 0xa1, 0, 0);
    record(Category::Netsim, EventKind::Drop, 4, 0xa1, 7, 0);
    record(Category::Netsim, EventKind::Enqueue, 1, 0xb2, 0, 0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let dump = dir.join("sage_trace_dump.jsonl");
    dump_postmortem(&dump, 64).expect("the dump is written");
    force_record("off");
    reset_recorder();

    let list = stdout(&trace(&dump, None));
    assert!(
        list.starts_with("flight dump: 4 events, 0 dropped (post-mortem tail)"),
        "{list}"
    );
    let list = rows(&list);
    assert!(list.contains(&vec!["a1", "3", "netsim,serve,transport"]));
    assert!(list.contains(&vec!["b2", "1", "netsim"]));

    // The recorder dumps in tick order; the same events in reverse file
    // order show that `sage_trace` sorts a span by tick itself.
    let text = std::fs::read_to_string(&dump).expect("the dump reads back");
    let mut lines: Vec<&str> = text.lines().collect();
    lines[1..].reverse();
    let reversed = dir.join("sage_trace_reversed.jsonl");
    std::fs::write(&reversed, lines.join("\n")).expect("the reversed dump is written");
    for file in [&dump, &reversed] {
        let timeline = stdout(&trace(file, Some("a1")));
        assert!(
            timeline.contains("timeline for span a1 (3 events)"),
            "{timeline}"
        );
        let timeline = rows(&timeline);
        let header = timeline
            .iter()
            .position(|r| r.first() == Some(&"tick"))
            .expect("the timeline has a header row");
        let events: Vec<[&str; 3]> = timeline[header + 1..]
            .iter()
            .map(|r| [r[0], r[1], r[2]])
            .collect();
        assert_eq!(
            events,
            [
                ["3", "transport", "rto"],
                ["4", "netsim", "drop"],
                ["5", "serve", "admit"]
            ]
        );
    }

    assert_eq!(trace(&dump, Some("c3")).status.code(), Some(2));
    let empty = dir.join("sage_trace_empty.jsonl");
    std::fs::write(&empty, "").expect("the empty file is written");
    assert_eq!(trace(&empty, None).status.code(), Some(2));
}
