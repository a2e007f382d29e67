//! Pinned outcomes of the event loop on the paths the matrix goldens reach
//! only by luck: equal RTO deadlines (ACK compression releases several ACKs
//! in one instant), deadlines moving earlier (backoff reset after an RTO), a
//! deadline cleared while its event is pending (window drained, restart,
//! flow stop), duplicate hop completions, and pacing wake-ups.
//!
//! Three test-local controllers × eight small scenarios. The constants in
//! [`GOLDEN`] were generated at commit 8404f35 (the parent of the event-loop
//! rewrite) and must never be regenerated to make a simulator change pass: a
//! mismatch means event order changed. On mismatch the test prints the whole
//! table it measured, in source form.

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

#[derive(Debug, PartialEq)]
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

/// `(run, per-flow rows, per-hop rows, owd_fnv)`, generated at 8404f35.
#[rustfmt::skip]
const GOLDEN: &[(&str, &[FlowRow], &[HopRow], u64)] = &[
    ("clean/aimd", &[(5898, 243, 243, 8677500, 0)], &[(6141, 243, 5825, 72, 1)], 0x90241ba42b572447),
    ("clean/paced", &[(4819, 114, 114, 7003500, 0)], &[(4933, 132, 4709, 91, 1)], 0x0a166fc5713a2eed),
    ("clean/ticker", &[(5753, 0, 0, 8508000, 0)], &[(5753, 0, 5712, 40, 1)], 0x6a67a4f49e455222),
    ("quarter-bdp/aimd", &[(4406, 42, 42, 6526500, 0)], &[(4448, 42, 4391, 14, 1)], 0x06c9ec497caf7054),
    ("quarter-bdp/paced", &[(4688, 144, 144, 6963000, 0)], &[(4832, 144, 4682, 5, 1)], 0x778d2257574986d4),
    ("quarter-bdp/ticker", &[(4834, 1342, 1342, 7162500, 0)], &[(6176, 952, 5220, 3, 1)], 0x0fc08f7f54567f8d),
    ("burst-loss/aimd", &[(1047, 87, 87, 1570500, 0)], &[(1134, 0, 1134, 0, 0)], 0xe6881d549fc457e1),
    ("burst-loss/paced", &[(1414, 110, 144, 2100000, 0)], &[(1524, 0, 1524, 0, 0)], 0x9aac8432a6242036),
    ("burst-loss/ticker", &[(5452, 1146, 1157, 8086500, 0)], &[(6598, 248, 6345, 4, 1)], 0x12ad51ef4193e7d5),
    ("ack-compression/aimd", &[(4802, 164, 321, 7125000, 0)], &[(4966, 164, 4790, 11, 1)], 0xbca194075df2c6c0),
    ("ack-compression/paced", &[(4763, 290, 292, 6994500, 0)], &[(5053, 319, 4703, 30, 1)], 0x0e73e11bc3bfbcf0),
    ("ack-compression/ticker", &[(5740, 0, 0, 8467500, 0)], &[(5740, 0, 5685, 54, 1)], 0x5617cdd8aabb0cca),
    ("reorder-dup/aimd", &[(733, 8, 17, 1096500, 0)], &[(741, 0, 741, 0, 0)], 0x477ca02885423738),
    ("reorder-dup/paced", &[(1100, 10, 13, 1635000, 0)], &[(1110, 0, 1110, 0, 0)], 0x7428717f9f31af0f),
    ("reorder-dup/ticker", &[(5598, 155, 155, 8287500, 0)], &[(5753, 0, 5716, 36, 1)], 0x5733d102ca2498bd),
    ("blackout/aimd", &[(1881, 181, 277, 2734500, 1)], &[(2062, 159, 1903, 0, 0)], 0xfef765dddc855e9b),
    ("blackout/paced", &[(877, 162, 305, 1135500, 1)], &[(1039, 0, 1039, 0, 0)], 0x57f0ffbfc96ebece),
    ("blackout/ticker", &[(2160, 1438, 1527, 2566500, 1)], &[(3598, 389, 3209, 0, 0)], 0xff092e0efb21162c),
    ("parking-lot/aimd", &[(3538, 83, 83, 5208000, 0)], &[(3621, 0, 3620, 0, 1), (3618, 83, 3496, 38, 1)], 0x6edd6f1c2eff1c55),
    ("parking-lot/paced", &[(3149, 199, 199, 4659000, 0)], &[(3348, 0, 3347, 0, 1), (3345, 199, 3130, 15, 1)], 0x8909df3c1f7f91b4),
    ("parking-lot/ticker", &[(3531, 2, 2, 5214000, 0)], &[(3533, 0, 3532, 0, 1), (3530, 2, 3500, 27, 1)], 0x2e3351b5f136731a),
    ("staggered-8/aimd", &[(1569, 198, 340, 2350500, 0), (669, 22, 22, 963000, 0), (371, 14, 23, 555000, 0), (580, 18, 18, 831000, 0), (267, 11, 11, 370500, 0), (999, 121, 235, 1498500, 0), (522, 12, 12, 771000, 0), (636, 14, 14, 912000, 0)], &[(6023, 391, 5561, 70, 1)], 0x87c2a332d918e3bb),
    ("staggered-8/paced", &[(1457, 111, 111, 2134500, 0), (1132, 84, 84, 1654500, 0), (569, 48, 48, 853500, 0), (663, 52, 52, 963000, 0), (483, 48, 48, 702000, 0), (239, 29, 33, 352500, 0), (473, 44, 44, 681000, 0), (564, 41, 41, 811500, 0)], &[(6037, 481, 5475, 80, 1)], 0x5b613358137312bc),
    ("staggered-8/ticker", &[(620, 6, 6, 928500, 0), (337, 2, 2, 505500, 0), (1302, 661, 786, 1828500, 0), (1106, 908, 1049, 1522500, 0), (549, 699, 833, 649500, 0), (1059, 360, 669, 1288500, 0), (1006, 564, 635, 1116000, 0), (377, 626, 754, 361500, 0)], &[(10182, 4314, 5788, 79, 1)], 0xf3dccfbf4d78fb7a),
];

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

    let golden: Vec<Row> = GOLDEN
        .iter()
        .map(|&(run, flows, hops, owd_fnv)| Row {
            run: run.to_string(),
            flows: flows.to_vec(),
            hops: hops.to_vec(),
            owd_fnv,
        })
        .collect();
    if measured != golden {
        let mut table = String::new();
        for r in &measured {
            table.push_str(&format!(
                "    ({:?}, &{:?}, &{:?}, 0x{:016x}),\n",
                r.run, r.flows, r.hops, r.owd_fnv
            ));
        }
        let differing: Vec<&str> = measured
            .iter()
            .filter(|m| !golden.contains(m))
            .map(|m| m.run.as_str())
            .collect();
        panic!("event loop outcomes moved in {differing:?}; measured table:\n{table}");
    }
}
