//! In-memory spans recorded by the benchmark's own code around its calls
//! into a layer. Nothing inside the measured crates is touched: a span is
//! two clock readings taken outside the call, or two consecutive progress
//! callbacks of a library loop.
//!
//! The spans are the one record of a pass. Its laps — the consecutive
//! pieces its timed region is cut into — are the spans nothing else names
//! as parent, so the end-to-end times and the per-layer table are read off
//! the same clock readings, and a traced run differs from an untraced one
//! only in what it computes and writes after the passes.

use sage_util::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a pass root.
    pub parent: Option<usize>,
    /// Operation id: every span of one pass shares the pass number.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The one clock every span is read from. `Copy`, so a progress callback
/// can own one while the tracer is borrowed elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock was started.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Records the spans of one pass.
pub struct Tracer {
    pub clock: Clock,
    op: u64,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for pass number `op`, reading `clock`.
    pub fn new(clock: Clock, op: u64) -> Self {
        Tracer {
            clock,
            op,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let now = self.clock.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let now = self.clock.now_ns();
        let id = self.open.pop().expect("end() without begin()");
        self.spans[id].end_ns = now;
    }

    /// Record a finished child of the innermost open span from two clock
    /// readings taken elsewhere (consecutive progress callbacks).
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// One leaf per lap: `marks[i]` is the reading at the end of lap `i`,
    /// `start_ns` the reading before the first.
    pub fn laps(&mut self, name: &'static str, start_ns: u64, marks: &[u64]) {
        let mut prev = start_ns;
        for &m in marks {
            self.leaf(name, prev, m);
            prev = m;
        }
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover. Children are clipped to the parent and overlapping
/// children are counted once, so self time is never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if hi > lo {
                kids[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let (mut covered, mut edge) = (0u64, s.start_ns);
            for &(lo, hi) in k.iter() {
                let lo = lo.max(edge);
                if hi > lo {
                    covered += hi - lo;
                    edge = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The spans no other span names as parent, in recording order: the laps
/// of a pass.
pub fn leaves(spans: &[Span]) -> impl Iterator<Item = &Span> {
    let mut has_child = vec![false; spans.len()];
    for p in spans.iter().filter_map(|s| s.parent) {
        has_child[p] = true;
    }
    spans
        .iter()
        .zip(has_child)
        .filter(|(_, parent)| !parent)
        .map(|(s, _)| s)
}

/// Durations (ns) of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

pub fn spans_json(spans: &[Span]) -> Json {
    let selfs = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, &self_ns))| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op", Json::Num(s.op as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_nested_adjacent_and_zero_length() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two adjacent children and a grandchild.
            span("a", 10, 40, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            // A zero-length child takes nothing from its parent.
            span("empty", 80, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10, 0]);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_parent() {
        let spans = vec![
            span("root", 10, 50, None),
            span("x", 0, 30, Some(0)),  // starts before the parent
            span("y", 20, 60, Some(0)), // overlaps x, ends after the parent
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
        let spans = vec![span("root", 0, 50, None), span("x", 10, 20, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![40, 10]);
    }

    #[test]
    fn leaves_are_the_spans_without_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("stage", 0, 60, Some(0)),
            span("lap", 0, 25, Some(1)),
            span("lap", 25, 60, Some(1)),
            // A stage that reports no operations of its own is one lap.
            span("bare", 60, 100, Some(0)),
        ];
        let laps: Vec<(&str, u64)> = leaves(&spans).map(|s| (s.name, s.dur_ns())).collect();
        assert_eq!(laps, [("lap", 25), ("lap", 35), ("bare", 40)]);
    }

    #[test]
    fn laps_become_children_of_the_open_span() {
        let mut t = Tracer::new(Clock::start(), 3);
        t.begin("stage");
        t.laps("lap", 100, &[130, 190]);
        t.end();
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1], span_op("lap", 100, 130, Some(0), 3));
        assert_eq!(t.spans[2], span_op("lap", 130, 190, Some(0), 3));
        assert_eq!(durations_ns(&t.spans, "lap"), vec![30.0, 60.0]);
        let json = spans_json(&t.spans);
        let back = Json::parse(&json.to_string()).unwrap();
        assert_eq!(back, json);
        assert_eq!(
            back.as_arr().unwrap()[2].get("parent"),
            Some(&Json::Num(0.0))
        );
    }

    fn span_op(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> Span {
        Span {
            op,
            ..span(name, start_ns, end_ns, parent)
        }
    }
}
