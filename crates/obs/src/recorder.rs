//! Deterministic flight recorder: fixed-capacity per-thread rings of
//! compact binary events, drained through an ordered merge.
//!
//! Every event is six integers — `(tick, span, category, kind, a, b)` —
//! stamped with *simulation* ticks, never wall clock, so a recording is a
//! pure function of the run's inputs. Each thread writes into its own
//! fixed-capacity ring (overwrite-oldest), so recording never allocates on
//! the hot path after the first event and never blocks another thread.
//! Draining collects every ring and sorts by the full event tuple; because
//! events are value-deterministic (they carry no thread or time identity),
//! the merged dump is **byte-identical at any `SAGE_THREADS`** as long as
//! no ring overflowed (`dropped == 0` in the dump header — overflow trims
//! per-ring, and ring population depends on work distribution).
//!
//! Recording is off unless `SAGE_RECORD` selects categories
//! (`SAGE_RECORD=serve,transport`, or `all`); the disabled hot path is one
//! relaxed load and a mask test. `SAGE_RECORD_CAP` sizes each ring
//! (default 65536 events). Dumps are JSONL (`FLIGHT_*.jsonl`): a header
//! line with totals, then one object per event with `span`/`a`/`b` as hex
//! strings so 64-bit payloads survive the f64-based JSON parser.
//!
//! The post-mortem path ([`postmortem_jsonl`] / [`dump_postmortem`]) keeps
//! only the last N events per thread — what the `catch_unwind` recovery
//! paths in supervised collection and the eval matrix write next to a
//! panic so the causal tail (enqueue → drop → RTO → escalate) survives.

use sage_util::env_cfg;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// Default per-thread ring capacity.
pub const DEFAULT_RING_CAP: usize = 65536;

/// Event source category; one mask bit each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Category {
    /// Serve runtime: admission, tiers, deadlines, eviction.
    Serve = 0,
    /// Transport flows: retransmits, RTOs, restarts.
    Transport = 1,
    /// Netsim queues: enqueue, drop, delivery, stalls.
    Netsim = 2,
    /// Eval matrix cell lifecycle.
    Eval = 3,
    /// Collection supervision (panic markers).
    Collect = 4,
}

impl Category {
    pub const ALL: [Category; 5] = [
        Category::Serve,
        Category::Transport,
        Category::Netsim,
        Category::Eval,
        Category::Collect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Category::Serve => "serve",
            Category::Transport => "transport",
            Category::Netsim => "netsim",
            Category::Eval => "eval",
            Category::Collect => "collect",
        }
    }

    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// What happened. Kinds are shared across categories; the pair
/// `(category, kind)` names the tap site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    // Serve runtime.
    Admit = 0,
    Reject = 1,
    Defer = 2,
    Fallback = 3,
    SymAction = 4,
    NnAction = 5,
    Audit = 6,
    Escalate = 7,
    Evict = 8,
    // Transport.
    Retx = 9,
    Rto = 10,
    Restart = 11,
    // Netsim.
    Enqueue = 12,
    Drop = 13,
    Deliver = 14,
    LinkStall = 15,
    // Eval / collect lifecycle.
    CellStart = 16,
    CellEnd = 17,
    Panic = 18,
}

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Reject => "reject",
            EventKind::Defer => "defer",
            EventKind::Fallback => "fallback",
            EventKind::SymAction => "sym_action",
            EventKind::NnAction => "nn_action",
            EventKind::Audit => "audit",
            EventKind::Escalate => "escalate",
            EventKind::Evict => "evict",
            EventKind::Retx => "retx",
            EventKind::Rto => "rto",
            EventKind::Restart => "restart",
            EventKind::Enqueue => "enqueue",
            EventKind::Drop => "drop",
            EventKind::Deliver => "deliver",
            EventKind::LinkStall => "link_stall",
            EventKind::CellStart => "cell_start",
            EventKind::CellEnd => "cell_end",
            EventKind::Panic => "panic",
        }
    }
}

/// One recorded event. Field order is the sort key: tick first, then span,
/// so a merged dump reads as a global timeline and `sage_trace` can slice
/// one span out of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Simulation tick (or serve tick) — never wall clock.
    pub tick: u64,
    /// Causal span: one flow's admission or one eval cell (0 = unscoped).
    pub span: u64,
    pub cat: Category,
    pub kind: EventKind,
    /// First payload word (usually the flow key / id).
    pub a: u64,
    /// Second payload word (kind-specific: seq, cwnd bits, count...).
    pub b: u64,
}

impl Event {
    fn jsonl_line(&self) -> String {
        format!(
            "{{\"tick\":{},\"span\":\"{:x}\",\"cat\":\"{}\",\"kind\":\"{}\",\"a\":\"{:x}\",\"b\":\"{:x}\"}}",
            self.tick,
            self.span,
            self.cat.name(),
            self.kind.name(),
            self.a,
            self.b
        )
    }
}

/// Fixed-capacity overwrite-oldest ring of events.
struct Ring {
    buf: Vec<Event>,
    cap: usize,
    /// Next overwrite position once full (oldest event).
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::new(),
            cap: cap.max(1),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events in push order (oldest retained first).
    fn ordered(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Bit marking the mask as initialised (so an all-zero mask is distinct
/// from "not parsed yet").
const INIT_BIT: u32 = 1 << 31;

static RECORD_STATE: AtomicU32 = AtomicU32::new(0);
static RING_CAP: AtomicUsize = AtomicUsize::new(0);
/// Bumped by [`reset_recorder`]; stale thread-local rings re-register.
static EPOCH: AtomicU64 = AtomicU64::new(1);

fn rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: RefCell<Option<(u64, Arc<Mutex<Ring>>)>> = const { RefCell::new(None) };
}

/// Parse a `SAGE_RECORD`-style spec into a category mask; `None` when a
/// part names no category.
fn parse_mask(spec: &str) -> Option<u32> {
    let spec = spec.trim().to_ascii_lowercase();
    match spec.as_str() {
        "" | "0" | "off" | "false" | "no" | "none" => return Some(0),
        "all" | "1" | "on" | "true" | "yes" => {
            return Some(Category::ALL.iter().map(|c| c.bit()).sum());
        }
        _ => {}
    }
    spec.split(',').try_fold(0, |mask, part| {
        let cat = Category::ALL
            .into_iter()
            .find(|c| c.name() == part.trim())?;
        Some(mask | cat.bit())
    })
}

/// The mask `spec` asks for; a spec that does not parse arms nothing, and
/// says so, rather than arming the parts that happened to be spelled right.
fn mask_or_warn(spec: &str) -> u32 {
    parse_mask(spec).unwrap_or_else(|| {
        env_cfg::warn_rejected(
            env_cfg::RECORD,
            spec,
            "off, all, or a comma-separated list of serve, transport, netsim, eval, collect",
            "off",
        );
        0
    })
}

#[cold]
fn init_mask() -> u32 {
    let mask = env_cfg::record().map_or(0, |v| mask_or_warn(&v));
    RECORD_STATE.store(mask | INIT_BIT, Relaxed);
    mask
}

fn mask() -> u32 {
    let state = RECORD_STATE.load(Relaxed);
    if state & INIT_BIT != 0 {
        state & !INIT_BIT
    } else {
        init_mask()
    }
}

/// Whether `cat` is being recorded — the hot-path guard: one relaxed load
/// plus a mask test when initialised.
#[inline]
pub fn recording(cat: Category) -> bool {
    mask() & cat.bit() != 0
}

/// Override the category mask, bypassing `SAGE_RECORD` (tests/benches).
/// Accepts the same spec syntax (`"all"`, `"serve,transport"`, `"off"`).
pub fn force_record(spec: &str) {
    RECORD_STATE.store(mask_or_warn(spec) | INIT_BIT, Relaxed);
}

/// Override the per-thread ring capacity, bypassing `SAGE_RECORD_CAP`.
/// Affects rings created after the next [`reset_recorder`].
pub fn force_record_cap(cap: usize) {
    RING_CAP.store(cap.max(1), Relaxed);
}

fn ring_cap() -> usize {
    let cap = RING_CAP.load(Relaxed);
    if cap != 0 {
        return cap;
    }
    let cap = env_cfg::record_cap().map_or(DEFAULT_RING_CAP, |v| {
        env_cfg::parse_positive(&v).unwrap_or_else(|| {
            env_cfg::warn_rejected(
                env_cfg::RECORD_CAP,
                &v,
                "a positive integer",
                &DEFAULT_RING_CAP.to_string(),
            );
            DEFAULT_RING_CAP
        })
    });
    RING_CAP.store(cap, Relaxed);
    cap
}

/// Record one event. A masked-out category costs one load and a branch.
#[inline]
pub fn record(cat: Category, kind: EventKind, tick: u64, span: u64, a: u64, b: u64) {
    if !recording(cat) {
        return;
    }
    push_event(Event {
        tick,
        span,
        cat,
        kind,
        a,
        b,
    });
}

#[cold]
fn push_event(ev: Event) {
    let epoch = EPOCH.load(Relaxed);
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = match &*slot {
            Some((e, _)) => *e != epoch,
            None => true,
        };
        if stale {
            let ring = Arc::new(Mutex::new(Ring::new(ring_cap())));
            rings()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            *slot = Some((epoch, ring));
        }
        if let Some((_, ring)) = &*slot {
            ring.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
        }
    });
}

/// Drop every ring and start a fresh recording epoch. Thread-local rings
/// from the old epoch re-register on their next event.
pub fn reset_recorder() {
    EPOCH.fetch_add(1, Relaxed);
    rings().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Collect every ring's events into one sorted timeline plus the total
/// overwritten-event count. Non-destructive.
pub fn drain_events() -> (Vec<Event>, u64) {
    let rings = rings().lock().unwrap_or_else(|e| e.into_inner());
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in rings.iter() {
        let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        events.extend_from_slice(&ring.buf);
        dropped += ring.dropped;
    }
    drop(rings);
    events.sort_unstable();
    (events, dropped)
}

fn render_jsonl(events: &[Event], dropped: u64, postmortem: bool) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str(&format!(
        "{{\"flight\":\"v1\",\"events\":{},\"dropped\":{},\"postmortem\":{}}}\n",
        events.len(),
        dropped,
        postmortem
    ));
    for ev in events {
        out.push_str(&ev.jsonl_line());
        out.push('\n');
    }
    out
}

/// The full merged dump as JSONL: a header line
/// (`{"flight":"v1","events":N,"dropped":D,"postmortem":false}`) followed
/// by one object per event in sorted order. Byte-identical at any thread
/// count when `dropped == 0`.
pub fn dump_jsonl() -> String {
    let (events, dropped) = drain_events();
    render_jsonl(&events, dropped, false)
}

/// Post-mortem dump: the last `per_thread` events of each ring (push
/// order), merged and sorted. This is what panic recovery writes — the
/// causal tail per thread, bounded however full the rings were.
pub fn postmortem_jsonl(per_thread: usize) -> String {
    let rings = rings().lock().unwrap_or_else(|e| e.into_inner());
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in rings.iter() {
        let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        let ordered = ring.ordered();
        let skip = ordered.len().saturating_sub(per_thread);
        events.extend_from_slice(&ordered[skip..]);
        dropped += ring.dropped;
    }
    drop(rings);
    events.sort_unstable();
    render_jsonl(&events, dropped, true)
}

/// Where panic-recovery paths dump the post-mortem tail:
/// `SAGE_FLIGHT_FILE`, or `FLIGHT_panic.jsonl` in the working directory.
pub fn panic_dump_path() -> std::path::PathBuf {
    env_cfg::flight_file()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("FLIGHT_panic.jsonl"))
}

/// Write a post-mortem dump if anything was recorded; silently a no-op
/// when the recorder is idle (so panic paths cost nothing by default).
pub fn dump_postmortem(path: &std::path::Path, per_thread: usize) -> std::io::Result<()> {
    if rings().lock().unwrap_or_else(|e| e.into_inner()).is_empty() {
        return Ok(());
    }
    sage_util::fsio::atomic_write(path, postmortem_jsonl(per_thread).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that touch the process-global recorder.
    fn rec_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn ev(tick: u64, span: u64, a: u64) -> Event {
        Event {
            tick,
            span,
            cat: Category::Serve,
            kind: EventKind::Admit,
            a,
            b: 0,
        }
    }

    #[test]
    fn mask_parsing() {
        for off in ["", "0", "off", "false", "no", "none"] {
            assert_eq!(parse_mask(off), Some(0), "{off:?}");
        }
        for all in ["all", "1", "on", "true", "yes", "ALL"] {
            assert_eq!(parse_mask(all), Some(0b11111), "{all:?}");
        }
        for c in Category::ALL {
            assert_eq!(parse_mask(c.name()), Some(c.bit()));
        }
        assert_eq!(
            parse_mask("serve,netsim"),
            Some(Category::Serve.bit() | Category::Netsim.bit())
        );
        assert_eq!(parse_mask(" Transport , eval "), Some(0b1010));
        // A misspelled part rejects the whole spec: `serv,transport` must
        // not quietly arm `transport` alone.
        for bad in ["serv,transport", "bogus", "serve,", "all,serve"] {
            assert_eq!(parse_mask(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn category_filter_drops_unselected_events() {
        let _guard = rec_lock();
        force_record("serve");
        reset_recorder();
        record(Category::Serve, EventKind::Admit, 1, 7, 0, 0);
        record(Category::Netsim, EventKind::Drop, 2, 7, 0, 0);
        record(Category::Transport, EventKind::Rto, 3, 7, 0, 0);
        let (events, dropped) = drain_events();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cat, Category::Serve);
        force_record("off");
        reset_recorder();
    }

    #[test]
    fn ring_wraparound_keeps_last_cap_events() {
        let mut r = Ring::new(4);
        for t in 0..10u64 {
            r.push(ev(t, 1, 0));
        }
        assert_eq!(r.dropped, 6);
        let ordered = r.ordered();
        let ticks: Vec<u64> = ordered.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_wraparound_property_many_sizes() {
        // For any cap and push count, the ring holds exactly the last
        // min(cap, n) events in push order and reports the rest dropped.
        for cap in [1usize, 2, 3, 7, 8, 64] {
            for n in [0u64, 1, 5, 8, 63, 64, 65, 200] {
                let mut r = Ring::new(cap);
                for t in 0..n {
                    r.push(ev(t, 1, 0));
                }
                let kept = (cap as u64).min(n);
                assert_eq!(r.dropped, n - kept, "cap={cap} n={n}");
                let ticks: Vec<u64> = r.ordered().iter().map(|e| e.tick).collect();
                let want: Vec<u64> = (n - kept..n).collect();
                assert_eq!(ticks, want, "cap={cap} n={n}");
            }
        }
    }

    #[test]
    fn merged_dump_is_thread_count_invariant() {
        let _guard = rec_lock();
        force_record("all");
        force_record_cap(4096);
        // The same 300 value-deterministic events, distributed across
        // different worker counts, must merge to the same dump.
        let run = |threads: usize| -> String {
            reset_recorder();
            sage_util::par_map_range(threads, 300, |i| {
                let i = i as u64;
                record(Category::Netsim, EventKind::Enqueue, i / 3, i % 7, i, i * 2);
                0u8
            });
            dump_jsonl()
        };
        let d1 = run(1);
        let d2 = run(2);
        let d4 = run(4);
        assert_eq!(d1, d2, "1 vs 2 threads");
        assert_eq!(d1, d4, "1 vs 4 threads");
        assert!(d1.starts_with("{\"flight\":\"v1\",\"events\":300,\"dropped\":0"));
        force_record("off");
        force_record_cap(DEFAULT_RING_CAP);
        reset_recorder();
    }

    #[test]
    fn dump_lines_parse_as_json() {
        let _guard = rec_lock();
        force_record("all");
        reset_recorder();
        record(Category::Serve, EventKind::Admit, 5, 0xdead, 42, u64::MAX);
        record(Category::Transport, EventKind::Rto, 6, 0xdead, 1, 2);
        let dump = dump_jsonl();
        let mut lines = dump.lines();
        let header = sage_util::Json::parse(lines.next().expect("header")).expect("header json");
        assert_eq!(header.get("events").and_then(|j| j.as_f64()), Some(2.0));
        for line in lines {
            let j = sage_util::Json::parse(line).expect("event json");
            assert_eq!(j.get("span").and_then(|j| j.as_str()), Some("dead"));
            // Hex payloads round-trip even at u64::MAX (no f64 precision loss).
            let a = j.get("a").and_then(|j| j.as_str()).expect("a");
            assert!(u64::from_str_radix(a, 16).is_ok());
        }
        assert!(dump.contains("\"b\":\"ffffffffffffffff\""));
        force_record("off");
        reset_recorder();
    }

    #[test]
    fn postmortem_keeps_last_n_per_thread() {
        let _guard = rec_lock();
        force_record("all");
        force_record_cap(1024);
        reset_recorder();
        for t in 0..50u64 {
            record(Category::Serve, EventKind::Admit, t, 1, t, 0);
        }
        let pm = postmortem_jsonl(5);
        let lines: Vec<&str> = pm.lines().collect();
        assert_eq!(lines.len(), 6, "header + 5 events");
        assert!(lines[0].contains("\"postmortem\":true"));
        assert!(lines[1].contains("\"tick\":45"));
        assert!(lines[5].contains("\"tick\":49"));
        force_record("off");
        force_record_cap(DEFAULT_RING_CAP);
        reset_recorder();
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let _guard = rec_lock();
        force_record("off");
        reset_recorder();
        record(Category::Serve, EventKind::Admit, 1, 1, 1, 1);
        let (events, _) = drain_events();
        assert!(events.is_empty());
    }
}
