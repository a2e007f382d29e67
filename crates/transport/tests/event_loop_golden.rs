//! Pinned outcomes of the event loop on the paths the matrix goldens reach
//! only by luck: equal RTO deadlines (ACK compression releases several ACKs
//! in one instant), deadlines moving earlier (backoff reset after an RTO), a
//! deadline cleared while its event is pending (window drained, restart,
//! flow stop), duplicate hop completions, and pacing wake-ups.
//!
//! Three test-local controllers × eight small scenarios, one line each in
//! `tests/golden/event_loop.txt`, checked by `sage_util::golden::check`. The
//! lines were first written by the event loop that scheduled a `HopComplete`
//! per enqueue and an `Rto` per ACK into one heap. The live reference for
//! event order is the heap-only model the queue is tested against
//! (`netsim/tests/props.rs::lanes_pop_in_heap_order`,
//! `engine::tests::lanes_and_heap_share_one_order`); this file is an
//! ordinary pin, which moves only with a behaviour change that CHANGES.md
//! lists.

use sage_netsim::faults::{FaultPlan, GilbertElliott};
use sage_netsim::link::LinkModel;
use sage_netsim::time::{from_secs, Nanos, MILLIS};
use sage_netsim::topology::Topology;
use sage_transport::sim::NullMonitor;
use sage_transport::{AckEvent, CongestionControl, FlowConfig, SimConfig, Simulation, SocketView};
use sage_util::Fnv64;

/// Window scheme: slow start, then AIMD.
struct Aimd {
    cwnd: f64,
    ssthresh: f64,
}
impl CongestionControl for Aimd {
    fn name(&self) -> &'static str {
        "aimd"
    }
    fn init(&mut self, _now: Nanos, _mss: u32) {
        self.cwnd = 10.0;
        self.ssthresh = f64::INFINITY;
    }
    fn on_ack(&mut self, a: &AckEvent, _s: &SocketView) {
        for _ in 0..a.newly_acked_pkts {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd;
            }
        }
    }
    fn on_congestion_event(&mut self, _n: Nanos, _s: &SocketView) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
    }
    fn on_rto(&mut self, _n: Nanos, _s: &SocketView) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 2.0;
    }
    fn cwnd_pkts(&self) -> f64 {
        self.cwnd
    }
    fn ssthresh_pkts(&self) -> f64 {
        self.ssthresh
    }
}

/// Rate scheme: paces at an AIMD rate with a window of two rate × RTT, so
/// the pacing gate (`PacedSend`) is what clocks transmissions.
struct Paced {
    rate_bps: f64,
}
impl CongestionControl for Paced {
    fn name(&self) -> &'static str {
        "paced"
    }
    fn init(&mut self, _now: Nanos, _mss: u32) {
        self.rate_bps = 4e6;
    }
    fn on_ack(&mut self, a: &AckEvent, _s: &SocketView) {
        self.rate_bps = (self.rate_bps + 20e3 * a.newly_acked_pkts as f64).min(200e6);
    }
    fn on_congestion_event(&mut self, _n: Nanos, _s: &SocketView) {
        self.rate_bps = (self.rate_bps * 0.7).max(1e6);
    }
    fn on_rto(&mut self, _n: Nanos, _s: &SocketView) {
        self.rate_bps = (self.rate_bps * 0.5).max(1e6);
    }
    fn cwnd_pkts(&self) -> f64 {
        // Two RTTs' worth at the pacing rate (40 ms until the scenarios'
        // RTT is known to the scheme — they all run at 40 ms).
        (2.0 * self.rate_bps * 0.04 / (1500.0 * 8.0)).max(4.0)
    }
    fn pacing_bps(&self) -> Option<f64> {
        Some(self.rate_bps)
    }
}

/// Tick-driven scheme: the window moves only on monitor ticks, from the
/// delay the socket view reports (the shape of a learned policy).
struct Ticker {
    cwnd: f64,
}
impl CongestionControl for Ticker {
    fn name(&self) -> &'static str {
        "ticker"
    }
    fn init(&mut self, _now: Nanos, _mss: u32) {
        self.cwnd = 10.0;
    }
    fn on_ack(&mut self, _a: &AckEvent, _s: &SocketView) {}
    fn on_congestion_event(&mut self, _n: Nanos, _s: &SocketView) {}
    fn on_rto(&mut self, _n: Nanos, _s: &SocketView) {
        self.cwnd = (self.cwnd * 0.5).max(2.0);
    }
    fn on_tick(&mut self, _now: Nanos, s: &SocketView) {
        if s.min_rtt > 0.0 && s.srtt > 1.5 * s.min_rtt {
            self.cwnd = (self.cwnd * 0.95).max(2.0);
        } else {
            self.cwnd = (self.cwnd + 2.0).min(400.0);
        }
    }
    fn cwnd_pkts(&self) -> f64 {
        self.cwnd
    }
}

const SCHEMES: [&str; 3] = ["aimd", "paced", "ticker"];

fn build(scheme: &str) -> Box<dyn CongestionControl> {
    match scheme {
        "aimd" => Box::new(Aimd {
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
        }),
        "paced" => Box::new(Paced { rate_bps: 4e6 }),
        _ => Box::new(Ticker { cwnd: 10.0 }),
    }
}

const SCENARIOS: [&str; 8] = [
    "clean",
    "quarter-bdp",
    "burst-loss",
    "ack-compression",
    "reorder-dup",
    "blackout",
    "parking-lot",
    "staggered-8",
];

const MBPS: f64 = 24.0;
const RTT_MS: f64 = 40.0;
/// Bandwidth-delay product of every scenario's first hop, bytes.
const BDP: u64 = (MBPS * 1e6 / 8.0 * RTT_MS / 1e3) as u64;

fn scenario(name: &str, scheme: &str) -> Simulation {
    let base = |buffer: u64, secs: f64| {
        let mut cfg = SimConfig::new(
            LinkModel::Constant { mbps: MBPS },
            buffer,
            RTT_MS,
            from_secs(secs),
        );
        cfg.seed = 0x5EED_0018;
        cfg
    };
    let one = || vec![FlowConfig::at_start(build(scheme))];
    match name {
        "clean" => Simulation::new(base(2 * BDP, 3.0), one()),
        "quarter-bdp" => Simulation::new(base(BDP / 4, 3.0), one()),
        "burst-loss" => Simulation::new(
            base(BDP, 4.0).with_faults(FaultPlan {
                burst_loss: Some(GilbertElliott {
                    p_enter_bad: 0.01,
                    p_leave_bad: 0.1,
                    loss_good: 0.0,
                    loss_bad: 0.8,
                }),
                ..FaultPlan::default()
            }),
            one(),
        ),
        "ack-compression" => Simulation::new(
            base(BDP, 3.0).with_faults(FaultPlan {
                ack_compression: 3 * MILLIS,
                ..FaultPlan::default()
            }),
            one(),
        ),
        "reorder-dup" => Simulation::new(
            base(BDP, 3.0).with_faults(FaultPlan {
                reorder_prob: 0.03,
                reorder_delay_min: 2 * MILLIS,
                reorder_delay_max: 12 * MILLIS,
                duplicate_prob: 0.02,
                ..FaultPlan::default()
            }),
            one(),
        ),
        // Eight consecutive RTOs at the 200 ms floor, doubling to the 32×
        // cap, take ≈25–40 s: the blackout outlasts them, so the flow aborts
        // and restarts inside it and recovers after it.
        "blackout" => Simulation::new(
            base(BDP, 50.0).with_faults(FaultPlan {
                blackouts: vec![(from_secs(1.0), from_secs(47.0))],
                ..FaultPlan::default()
            }),
            one(),
        ),
        "parking-lot" => Simulation::new(
            base(BDP, 3.0).with_topology(Topology::parking_lot(MBPS, 1, 0.6, BDP / 2, 2.0)),
            one(),
        ),
        _ => {
            let flows = (0..8u64)
                .map(|i| {
                    let mut fc = FlowConfig::starting_at(build(scheme), i * 150 * MILLIS);
                    if i % 3 == 2 {
                        fc.stop = Some(from_secs(2.0) + i * 50 * MILLIS);
                    }
                    fc
                })
                .collect();
            Simulation::new(base(BDP, 3.0), flows)
        }
    }
}

/// `(sent, retx, lost, delivered_bytes, restarts)` of one flow.
type FlowRow = (u64, u64, u64, u64, u64);
/// `(enqueued, dropped, delivered, backlog, in_service)` of one hop.
type HopRow = (u64, u64, u64, usize, usize);

struct Row {
    run: String,
    flows: Vec<FlowRow>,
    hops: Vec<HopRow>,
    /// FNV-1a 64 over every flow's one-way-delay samples (`f32` bits, little
    /// endian, flow order, each flow prefixed with its sample count).
    owd_fnv: u64,
}

fn measure(scenario_name: &str, scheme: &str) -> Row {
    let mut sim = scenario(scenario_name, scheme);
    let stats = sim.run(&mut NullMonitor);
    let mut owd_fnv = Fnv64::new();
    for i in 0..stats.len() {
        let owd = &sim.flow(i).owd_samples;
        owd_fnv.write_u64(owd.len() as u64);
        for s in owd {
            owd_fnv.write(&s.to_bits().to_le_bytes());
        }
    }
    Row {
        run: format!("{scenario_name}/{scheme}"),
        flows: stats
            .iter()
            .map(|s| {
                (
                    s.sent_pkts,
                    s.retx_pkts,
                    s.lost_pkts,
                    s.delivered_bytes,
                    s.restarts,
                )
            })
            .collect(),
        hops: sim
            .hop_counters()
            .iter()
            .map(|c| {
                (
                    c.enqueued,
                    c.dropped,
                    c.delivered,
                    c.backlog_packets,
                    c.in_service_packets,
                )
            })
            .collect(),
        owd_fnv: owd_fnv.finish(),
    }
}

#[test]
fn event_loop_outcomes_are_pinned() {
    let mut measured = Vec::new();
    for sc in SCENARIOS {
        for scheme in SCHEMES {
            measured.push(measure(sc, scheme));
        }
    }
    // The scenarios must reach what they are here for.
    let row = |run: &str| measured.iter().find(|r| r.run == run).expect("run exists");
    for scheme in SCHEMES {
        let r = row(&format!("blackout/{scheme}"));
        assert!(r.flows[0].4 >= 1, "{}: no abort_and_restart", r.run);
        assert!(
            row(&format!("burst-loss/{scheme}")).flows[0].1 > 0,
            "burst-loss/{scheme}: no retransmission"
        );
        assert_eq!(row(&format!("parking-lot/{scheme}")).hops.len(), 2);
        assert_eq!(row(&format!("staggered-8/{scheme}")).flows.len(), 8);
    }

    let mut lines = String::new();
    for r in &measured {
        lines.push_str(&format!(
            "{} flows {:?} hops {:?} owd_fnv {:016x}\n",
            r.run, r.flows, r.hops, r.owd_fnv
        ));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/event_loop.txt");
    sage_util::golden::check(path, lines).unwrap();
}
