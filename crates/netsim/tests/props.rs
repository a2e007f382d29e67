//! Property-style tests for link models, the event queue and the bottleneck
//! path, driven by the workspace's own deterministic RNG (no external
//! property-testing framework: the build must work offline).

use sage_netsim::aqm::TailDrop;
use sage_netsim::engine::EventQueue;
use sage_netsim::link::LinkModel;
use sage_netsim::packet::Packet;
use sage_netsim::queue::{BottleneckPath, EnqueueOutcome};
use sage_netsim::time::{Nanos, SECONDS};
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

/// Model test of the lanes, the slots and the cached front keys: a queue
/// that spreads events over FIFO lanes, single-event slots and the heap pops
/// exactly what a heap-only queue pops, fed the same `(at, seq, ev)` —
/// whatever the interleaving of plain, lane, reserved and slot scheduling
/// with pops, and however late a lane event is (monotone times, jitter of a
/// few places, arbitrary times that overrun the back-walk or sort to the
/// front; a narrow time range makes equal-time ties common). After every
/// operation `len`, `is_empty`, `peek_time` and each slot's time agree with
/// the model, so a cached key left stale by an insert or a pop shows at once.
#[test]
fn lanes_pop_in_heap_order() {
    let mut fallbacks = 0;
    let mut slot_pops = 0;
    forall(
        "lanes pop in heap order",
        PropConfig::new(300, 0x1A9E5),
        |rng| {
            let n_lanes = 1 + rng.below(4);
            let n_slots = rng.below(4);
            let regime = rng.below(3);
            let mut lanes = EventQueue::with_lanes(n_lanes, n_slots);
            let mut heap = EventQueue::new();
            let mut lane_clock = vec![0u64; n_lanes];
            let mut reserved: Vec<u64> = Vec::new();
            // The model of each slot: the event it holds.
            let mut slots: Vec<Option<(u64, u32)>> = vec![None; n_slots];
            let mut now = 0;
            for id in 0..400u32 {
                match rng.below(10) {
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
                        if let Some((t, ev)) = popped {
                            now = t;
                            for slot in slots.iter_mut() {
                                if *slot == Some((t, ev)) {
                                    *slot = None;
                                }
                            }
                        }
                    }
                    5 | 6 if n_slots > 0 => {
                        let slot = rng.below(n_slots);
                        if slots[slot].is_none() {
                            let at = now + rng.below(40) as u64;
                            lanes.schedule_slot(slot, at, id);
                            heap.schedule(at, id);
                            slots[slot] = Some((at, id));
                        } else {
                            // A taken slot takes nothing: keep the counters
                            // in step.
                            ensure(lanes.reserve_seq() == heap.reserve_seq(), || {
                                "sequence counters apart".into()
                            })?;
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
                for (slot, held) in slots.iter().enumerate() {
                    ensure(lanes.slot_time(slot) == held.map(|(at, _)| at), || {
                        format!("slot {slot} time after op {id}")
                    })?;
                }
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
            slot_pops += lanes.slot_pops();
            ensure(lanes.pop().is_none() && lanes.is_empty(), || {
                "left over".into()
            })
        },
    );
    assert!(fallbacks > 1000, "only {fallbacks} heap fallbacks");
    assert!(slot_pops > 1000, "only {slot_pops} slot pops");
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

/// The FIFO queue's analytic oracle on a constant tail-drop link with no
/// loss, random arrival times (ties included) and random sizes — any size,
/// or a few sizes that repeat and change between services:
/// - every departure is `LinkModel::finish_time` of its service start and
///   size, computed from scratch (the path keeps the last service time);
///   at a rate of zero every packet departs at `Nanos::MAX`;
/// - every sojourn is the Lindley recursion, exactly:
///   `max(0, previous departure's at - arrival)`;
/// - it is the work ahead at arrival over the rate — the unserved bits of
///   the packet in service plus every queued packet's — to within 1 ns per
///   packet ahead (each service time is rounded up to a whole ns).
#[test]
fn sojourn_is_the_lindley_recursion_and_the_backlog_over_the_rate() {
    forall(
        "sojourn = Lindley = backlog / rate",
        PropConfig::new(300, 0x11D1E7),
        |rng| {
            let mbps = if rng.below(10) == 0 {
                0.0
            } else {
                rng.range(1.0, 1000.0)
            };
            let link = LinkModel::Constant { mbps };
            let rate = mbps * 1e6;
            let n = 1 + rng.below(400);
            // Mean gap near one mean service time: the queue builds and
            // drains (at 1 Mbit/s when the link serves nothing).
            let mean_gap = 770.0 * 8.0 / rate.max(1e6) * SECONDS as f64;
            let few_sizes = rng.below(2) == 0;
            let mut at = 0u64;
            let arrivals: Vec<(u64, u32)> = (0..n)
                .map(|_| {
                    if rng.below(4) != 0 {
                        at += (rng.uniform() * 2.0 * mean_gap) as u64;
                    }
                    let bytes = if few_sizes {
                        [40, 576, 1500][rng.below(3)]
                    } else {
                        40 + rng.below(1461) as u32
                    };
                    (at, bytes)
                })
                .collect();
            let total: u64 = arrivals.iter().map(|&(_, b)| b as u64).sum();
            let mut p = BottleneckPath::new(link.clone(), total, Box::new(TailDrop), 0.0, 1);
            let mut deps = Vec::with_capacity(n);
            for (i, &(t, bytes)) in arrivals.iter().enumerate() {
                while let Some(f) = p.next_completion().filter(|&f| f <= t) {
                    deps.extend(p.complete(f));
                }
                let pkt = Packet::new(0, i as u64, bytes, t);
                ensure(p.enqueue(t, pkt) == EnqueueOutcome::Queued, || {
                    format!("packet {i} dropped")
                })?;
            }
            while let Some(f) = p.next_completion() {
                deps.extend(p.complete(f));
            }
            ensure(deps.len() == n, || {
                format!("{} of {n} departed", deps.len())
            })?;
            // Service starts, from the departures alone: S_k = A_k + W_k.
            let mut prev_at: u64 = 0;
            for (k, d) in deps.iter().enumerate() {
                let (a, _) = arrivals[k];
                ensure(d.pkt.seq == k as u64, || {
                    format!("departure {k} is {}", d.pkt.seq)
                })?;
                let lindley = prev_at.saturating_sub(a);
                ensure(d.sojourn == lindley, || {
                    format!("packet {k}: sojourn {} != Lindley {lindley}", d.sojourn)
                })?;
                prev_at = d.at;
                let bits = arrivals[k].1 as f64 * 8.0;
                let finish = link.finish_time(a + d.sojourn, bits);
                ensure(d.at == finish, || {
                    format!("packet {k}: departs at {} != finish_time {finish}", d.at)
                })?;
                if mbps == 0.0 {
                    ensure(d.at == Nanos::MAX, || {
                        format!("packet {k} served at rate 0")
                    })?;
                    continue;
                }
                // Packets ahead at A_k: those before k still on the link or
                // in the buffer (a departure at exactly A_k has left).
                let ahead: Vec<usize> = (0..k).filter(|&j| deps[j].at > a).collect();
                let backlog_bits: f64 = ahead
                    .iter()
                    .map(|&j| {
                        let bits = arrivals[j].1 as f64 * 8.0;
                        let start = arrivals[j].0 + deps[j].sojourn;
                        let served = rate * a.saturating_sub(start) as f64 / SECONDS as f64;
                        bits - served
                    })
                    .sum();
                let backlog_ns = backlog_bits / rate * SECONDS as f64;
                let gap = d.sojourn as f64 - backlog_ns;
                ensure((0.0..=ahead.len() as f64).contains(&gap), || {
                    format!(
                        "packet {k}: sojourn {} vs backlog / rate {backlog_ns} with {} ahead",
                        d.sojourn,
                        ahead.len()
                    )
                })?;
            }
            Ok(())
        },
    );
}
