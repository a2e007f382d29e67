//! Every popped event is live: the share of pops that change no state —
//! duplicate hop completions and superseded RTO timers were a third of all
//! pops before the loop tracked one completion per hop and one timer per
//! flow — stays under 1 % on a lossy run, and on a clean one is the single
//! superseded initial timer of each flow. And where the pops come from: the
//! event queue's FIFO lanes (one per event class, whatever the hop or flow
//! count) and its per-hop completion slots serve the per-packet events, in
//! the order one heap would.
//!
//! The tests read process-global obs counters, so they take [`SERIAL`] and
//! run one at a time.

use sage_netsim::faults::{FaultPlan, GilbertElliott};
use sage_netsim::link::LinkModel;
use sage_netsim::time::{from_secs, Nanos, MILLIS};
use sage_netsim::topology::Topology;
use sage_transport::sim::NullMonitor;
use sage_transport::{AckEvent, CongestionControl, FlowConfig, SimConfig, Simulation, SocketView};
use sage_util::Fnv64;
use std::sync::Mutex;

/// Held by each test for its whole body: the counters are per process.
static SERIAL: Mutex<()> = Mutex::new(());

/// AIMD from a 10-packet window, never below `floor` packets.
struct Aimd {
    cwnd: f64,
    floor: f64,
}
impl CongestionControl for Aimd {
    fn name(&self) -> &'static str {
        "aimd"
    }
    fn on_ack(&mut self, a: &AckEvent, _s: &SocketView) {
        self.cwnd += a.newly_acked_pkts as f64 / self.cwnd.max(1.0);
    }
    fn on_congestion_event(&mut self, _n: Nanos, _s: &SocketView) {
        self.cwnd = (self.cwnd / 2.0).max(self.floor);
    }
    fn on_rto(&mut self, _n: Nanos, _s: &SocketView) {
        self.cwnd = self.floor;
    }
    fn cwnd_pkts(&self) -> f64 {
        self.cwnd
    }
}

/// What one run added to the registry, and what it computed.
struct Tally {
    popped: u64,
    dead: u64,
    /// Pops served by a FIFO lane of the event queue.
    lane_popped: u64,
    /// Pops served by a hop's completion slot; the rest are the heap's.
    slot_popped: u64,
    /// Packets the hops finished serving, summed over the hops: one
    /// `HopComplete` each.
    completions: u64,
    /// Lane-class events scheduled too far out of order for their lane.
    fallbacks: u64,
    /// FNV-1a 64 over every flow's counters and one-way-delay samples.
    digest: u64,
}

/// Run four staggered AIMD flows over a 24 Mbit/s, 40 ms, one-BDP path.
fn run(faults: FaultPlan, floor: f64) -> Tally {
    let cfg = SimConfig::new(
        LinkModel::Constant { mbps: 24.0 },
        120_000,
        40.0,
        from_secs(8.0),
    )
    .with_faults(faults);
    run_on(cfg, 4, 200 * MILLIS, floor)
}

/// Run `flows` AIMD flows over `cfg`, one starting every `stagger`.
fn run_on(cfg: SimConfig, flows: u64, stagger: Nanos, floor: f64) -> Tally {
    let counters = [
        "transport.events_popped",
        "transport.events_dead",
        "transport.events_lane_popped",
        "transport.events_slot_popped",
        "transport.lane_heap_fallbacks",
    ]
    .map(sage_obs::counter);
    let before = counters.each_ref().map(|c| c.value());
    let flows = (0..flows)
        .map(|i| FlowConfig::starting_at(Box::new(Aimd { cwnd: 10.0, floor }), i * stagger))
        .collect();
    let mut sim = Simulation::new(cfg, flows);
    let stats = sim.run(&mut NullMonitor);
    assert!(stats.iter().all(|s| s.delivered_bytes > 0), "{stats:?}");
    let mut digest = Fnv64::new();
    for (i, s) in stats.iter().enumerate() {
        for v in [s.sent_pkts, s.retx_pkts, s.lost_pkts, s.delivered_bytes] {
            digest.write_u64(v);
        }
        let owd = &sim.flow(i).owd_samples;
        digest.write_u64(owd.len() as u64);
        for sample in owd {
            digest.write(&sample.to_bits().to_le_bytes());
        }
    }
    let completions = sim.hop_counters().iter().map(|h| h.delivered).sum();
    // The tallies reach the registry when the simulation drops.
    drop(sim);
    let [popped, dead, lane_popped, slot_popped, fallbacks] =
        std::array::from_fn(|i| counters[i].value() - before[i]);
    Tally {
        popped,
        dead,
        lane_popped,
        slot_popped,
        completions,
        fallbacks,
        digest: digest.finish(),
    }
}

/// Digests of the three runs below, generated at commit 26c0335, whose event
/// queue was one binary heap: equal digests mean the lanes pop in the heap's
/// order. Never regenerate them to make a simulator change pass.
const HEAP_ORDER_DIGEST: [u64; 3] = [0x0210ca7b8a19e251, 0xb6841d52d2f06049, 0x81def5c1f4fef6bd];

#[test]
fn dead_event_share_stays_under_one_percent() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    sage_obs::force_enabled(true);

    // Clean: the queue overflows (fast retransmits) but no timer ever fires.
    // Each flow's first timer is armed at the 1 s initial RTO and superseded
    // when the first RTT sample pulls the deadline in: that leftover is the
    // only dead pop, one per flow. A duplicate `HopComplete` — thousands in
    // this run before — would show here. Every per-packet event rides a
    // lane or the hop's slot; the heap serves timers, ticks and flow starts
    // only.
    let clean = run(FaultPlan::none(), 2.0);
    let Tally { popped, dead, .. } = clean;
    assert!(popped > 30_000, "clean run popped only {popped} events");
    assert!(dead <= 4, "clean run: {dead} dead of {popped} popped");
    assert!(
        (clean.lane_popped + clean.slot_popped) * 100 >= popped * 95,
        "clean run: only {} + {} of {popped} pops came from lanes and slots",
        clean.lane_popped,
        clean.slot_popped
    );
    assert_eq!(clean.fallbacks, 0, "200 us of ACK jitter left a lane");

    // Lossy: burst loss drives RTOs, backoff and backoff resets; the only
    // dead pops are timers left over when a deadline moved earlier.
    let lossy = run(
        FaultPlan {
            burst_loss: Some(GilbertElliott::harsh()),
            ..FaultPlan::default()
        },
        2.0,
    );
    let Tally { popped, dead, .. } = lossy;
    assert!(popped > 10_000, "lossy run popped only {popped} events");
    assert!(
        dead * 100 <= popped,
        "lossy run: {dead} dead of {popped} popped"
    );

    // Reordering: senders that hold 20 packets each keep the link busy, so a
    // fifth of the packets, deflected for 5-40 ms, pile up at the back of the
    // data lane and their successors, due before all of them, overrun the
    // back-walk: the heap holds those, and the pop order must not care.
    let reorder = run(
        FaultPlan {
            reorder_prob: 0.2,
            reorder_delay_min: 5 * MILLIS,
            reorder_delay_max: 40 * MILLIS,
            ..FaultPlan::default()
        },
        20.0,
    );
    let Tally { popped, dead, .. } = reorder;
    assert!(popped > 10_000, "reorder run popped only {popped} events");
    assert!(
        dead * 100 <= popped,
        "reorder run: {dead} dead of {popped} popped"
    );
    assert!(
        reorder.fallbacks > 0,
        "no reordered packet reached the heap"
    );

    assert_eq!(
        [clean.digest, lossy.digest, reorder.digest],
        HEAP_ORDER_DIGEST,
        "event order differs from the heap-only queue: {:#018x?}",
        [clean.digest, lossy.digest, reorder.digest]
    );
}

/// The lanes are one per event class, not one per hop: on a 4-hop parking
/// lot the arrivals at every downstream hop share one lane, and 64 flows
/// share the single-hop lanes. Each hop's completion waits in the hop's
/// slot: every completion a hop served popped from a slot, so none reached
/// the heap. Either way the per-packet events never leave their lane or slot
/// for the heap.
#[test]
fn one_lane_per_class_serves_multi_hop_and_many_flow_runs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    sage_obs::force_enabled(true);

    // The `mh-parking-3` path: 96 Mbit/s tightening by 0.75 over three more
    // hops 2 ms apart, with the flow under test joined by two cross flows.
    let bdp = 240_000;
    let parking = SimConfig::new(
        LinkModel::Constant { mbps: 96.0 },
        2 * bdp,
        40.0,
        from_secs(6.0),
    )
    .with_topology(Topology::parking_lot(96.0, 3, 0.75, 2 * bdp, 2.0));
    // 64 flows over one 48 Mbit/s, 40 ms bottleneck, its buffer deep
    // enough (four BDPs) that no late joiner starves in backoff.
    let many = SimConfig::new(
        LinkModel::Constant { mbps: 48.0 },
        4 * bdp,
        40.0,
        from_secs(6.0),
    );
    for (name, tally) in [
        ("parking lot", run_on(parking, 3, 100 * MILLIS, 2.0)),
        ("64 flows", run_on(many, 64, 20 * MILLIS, 2.0)),
    ] {
        let Tally {
            popped,
            lane_popped,
            slot_popped,
            completions,
            fallbacks,
            ..
        } = tally;
        assert!(popped > 30_000, "{name}: popped only {popped} events");
        assert!(
            (lane_popped + slot_popped) * 100 >= popped * 95,
            "{name}: only {lane_popped} + {slot_popped} of {popped} pops came from lanes and slots"
        );
        assert_eq!(fallbacks, 0, "{name}: lane events reached the heap");
        assert_eq!(
            slot_popped, completions,
            "{name}: completions popped from slots vs served"
        );
    }
}
