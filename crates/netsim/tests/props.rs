//! Property-style tests for link models, the event queue and the bottleneck
//! path, driven by the workspace's own deterministic RNG (no external
//! property-testing framework: the build must work offline).

use sage_netsim::aqm::TailDrop;
use sage_netsim::engine::EventQueue;
use sage_netsim::link::LinkModel;
use sage_netsim::packet::Packet;
use sage_netsim::queue::{BottleneckPath, EnqueueOutcome};
use sage_netsim::time::SECONDS;
use sage_util::prop::{ensure, forall, PropConfig};
use sage_util::Rng;

#[test]
fn finish_time_monotone_in_bits() {
    let mut rng = Rng::new(0x66FF);
    for _ in 0..200 {
        let mbps = rng.range(1.0, 200.0);
        let start = rng.next_u64() % SECONDS;
        let bits_a = rng.range(1.0, 1e6);
        let bits_b = rng.range(1.0, 1e6);
        let l = LinkModel::Constant { mbps };
        let (small, large) = if bits_a <= bits_b {
            (bits_a, bits_b)
        } else {
            (bits_b, bits_a)
        };
        assert!(l.finish_time(start, small) <= l.finish_time(start, large));
        assert!(l.finish_time(start, small) > start);
    }
}

#[test]
fn step_rate_integral_conserved() {
    // Serving `bits` across the step boundary must take exactly as long
    // as integrating the two-rate profile predicts.
    let mut rng = Rng::new(0x7700);
    for _ in 0..200 {
        let before = rng.range(1.0, 100.0);
        let after = rng.range(1.0, 100.0);
        let at_ms = 1 + rng.below(999) as u64;
        let bits = rng.range(1e3, 1e7);
        let at = at_ms * 1_000_000;
        let l = LinkModel::Step {
            before_mbps: before,
            after_mbps: after,
            at,
        };
        let f = l.finish_time(0, bits);
        let first_phase_bits = before * 1e6 * (at as f64 / SECONDS as f64);
        let expected = if bits <= first_phase_bits {
            bits / (before * 1e6)
        } else {
            at as f64 / SECONDS as f64 + (bits - first_phase_bits) / (after * 1e6)
        };
        let actual = f as f64 / SECONDS as f64;
        assert!(
            (actual - expected).abs() < 1e-6,
            "actual {actual} expected {expected}"
        );
    }
}

#[test]
fn event_queue_pops_sorted() {
    let mut rng = Rng::new(0x8811);
    for _ in 0..50 {
        let n = 1 + rng.below(199);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(rng.next_u64() % 1_000_000, i);
        }
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }
}

/// Model test of the lanes: a queue that spreads events over FIFO lanes and
/// the heap pops exactly what a heap-only queue pops, fed the same
/// `(at, seq, ev)` — whatever the interleaving of plain, lane and reserved
/// scheduling with pops, and however late a lane event is (monotone times,
/// jitter of a few places, arbitrary times that overrun the back-walk; a
/// narrow time range makes equal-time ties common).
#[test]
fn lanes_pop_in_heap_order() {
    let mut fallbacks = 0;
    forall(
        "lanes pop in heap order",
        PropConfig::new(300, 0x1A9E5),
        |rng| {
            let n_lanes = 1 + rng.below(4);
            let regime = rng.below(3);
            let mut lanes = EventQueue::with_lanes(n_lanes);
            let mut heap = EventQueue::new();
            let mut lane_clock = vec![0u64; n_lanes];
            let mut reserved: Vec<u64> = Vec::new();
            let mut now = 0;
            for id in 0..400u32 {
                match rng.below(8) {
                    0 => {
                        let at = now + rng.below(40) as u64;
                        lanes.schedule(at, id);
                        heap.schedule(at, id);
                    }
                    1 => {
                        let seq = lanes.reserve_seq();
                        ensure(seq == heap.reserve_seq(), || {
                            "sequence counters apart".into()
                        })?;
                        reserved.push(seq);
                    }
                    2 if !reserved.is_empty() => {
                        let seq = reserved.swap_remove(rng.below(reserved.len()));
                        let at = now + rng.below(40) as u64;
                        lanes.schedule_reserved(at, seq, id);
                        heap.schedule_reserved(at, seq, id);
                    }
                    3 | 4 => {
                        let popped = lanes.pop();
                        ensure(popped == heap.pop(), || format!("pop {id}: {popped:?}"))?;
                        if let Some((t, _)) = popped {
                            now = t;
                        }
                    }
                    _ => {
                        let lane = rng.below(n_lanes);
                        let clock = &mut lane_clock[lane];
                        *clock = (*clock).max(now) + rng.below(3) as u64;
                        let at = match regime {
                            0 => *clock,
                            1 => *clock + rng.below(6) as u64,
                            _ => now + rng.below(60) as u64,
                        };
                        lanes.schedule_lane(lane, at, id);
                        heap.schedule(at, id);
                    }
                }
                ensure(
                    (lanes.len(), lanes.is_empty(), lanes.peek_time())
                        == (heap.len(), heap.is_empty(), heap.peek_time()),
                    || format!("len/peek_time apart after op {id}"),
                )?;
            }
            // Monotone times never leave their lane; arbitrary ones must
            // reach the heap often enough for this test to cover that path.
            ensure(regime != 0 || lanes.heap_fallbacks() == 0, || {
                format!("{} fallbacks at monotone times", lanes.heap_fallbacks())
            })?;
            fallbacks += lanes.heap_fallbacks();
            while let Some(popped) = heap.pop() {
                ensure(lanes.pop() == Some(popped), || format!("drain: {popped:?}"))?;
            }
            ensure(lanes.pop().is_none() && lanes.is_empty(), || {
                "left over".into()
            })
        },
    );
    assert!(fallbacks > 1000, "only {fallbacks} heap fallbacks");
}

#[test]
fn path_conserves_packets() {
    let mut rng = Rng::new(0x9922);
    for _ in 0..50 {
        let mbps = rng.range(1.0, 100.0);
        let cap_pkts = 1 + rng.below(63) as u64;
        let n = 1 + rng.below(199);
        let mut p = BottleneckPath::new(
            LinkModel::Constant { mbps },
            cap_pkts * 1500,
            Box::new(TailDrop),
            0.0,
            1,
        );
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        for i in 0..n {
            match p.enqueue(0, Packet::new(0, i as u64, 1500, 0)) {
                EnqueueOutcome::Queued => accepted += 1,
                EnqueueOutcome::Dropped(_) => dropped += 1,
            }
        }
        let mut delivered = 0u64;
        while let Some(t) = p.next_completion() {
            p.complete(t);
            delivered += 1;
        }
        assert_eq!(accepted + dropped, n as u64);
        assert_eq!(delivered, accepted);
        assert_eq!(p.total_dropped, dropped);
        assert_eq!(p.backlog_packets(), 0);
    }
}
