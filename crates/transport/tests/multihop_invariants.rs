//! Invariants of the multi-bottleneck path: per-hop packet conservation
//! under the full fault grid, and monotone monitor ticks across hops.

use sage_netsim::faults::{FaultPlan, FlapPlan, GilbertElliott};
use sage_netsim::internet::bdp_bytes;
use sage_netsim::link::LinkModel;
use sage_netsim::time::{from_secs, Nanos, MILLIS};
use sage_netsim::topology::{HopSpec, Topology};
use sage_transport::sim::{Monitor, NullMonitor, TickRecord};
use sage_transport::{AckEvent, CongestionControl, FlowConfig, SimConfig, Simulation, SocketView};
use sage_util::{forall, PropConfig, Rng};

/// A minimal AIMD controller: enough dynamics to stress the queues without
/// pulling the heuristics crate into a circular dev-dependency.
struct MiniAimd {
    cwnd: f64,
}

impl CongestionControl for MiniAimd {
    fn name(&self) -> &'static str {
        "mini-aimd"
    }
    fn on_ack(&mut self, _a: &AckEvent, _s: &SocketView) {
        self.cwnd += 1.0 / self.cwnd.max(1.0);
    }
    fn on_congestion_event(&mut self, _n: Nanos, _s: &SocketView) {
        self.cwnd = (self.cwnd / 2.0).max(2.0);
    }
    fn on_rto(&mut self, _n: Nanos, _s: &SocketView) {
        self.cwnd = 2.0;
    }
    fn cwnd_pkts(&self) -> f64 {
        self.cwnd
    }
}

/// A randomly generated fault plan spanning every mechanism the injector
/// implements (each independently present or absent).
fn random_plan(rng: &mut Rng, secs: f64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    if rng.chance(0.5) {
        plan.burst_loss = Some(GilbertElliott {
            p_enter_bad: rng.range(0.0005, 0.01),
            p_leave_bad: rng.range(0.05, 0.3),
            loss_good: 0.0,
            loss_bad: rng.range(0.2, 0.9),
        });
    }
    if rng.chance(0.3) {
        plan.corrupt_prob = rng.range(0.0, 0.01);
    }
    if rng.chance(0.4) {
        plan.reorder_prob = rng.range(0.0, 0.03);
        plan.reorder_delay_min = 2 * MILLIS;
        plan.reorder_delay_max = 12 * MILLIS;
    }
    if rng.chance(0.3) {
        plan.duplicate_prob = rng.range(0.0, 0.02);
    }
    if rng.chance(0.3) {
        let start = rng.range(0.2, 0.6) * secs;
        plan.blackouts = vec![(from_secs(start), from_secs(start + rng.range(0.1, 0.5)))];
    }
    if rng.chance(0.3) {
        plan.flaps = Some(FlapPlan {
            up_mean_s: rng.range(0.5, 2.0),
            down_mean_s: rng.range(0.02, 0.15),
        });
    }
    if rng.chance(0.4) {
        plan.jitter_spike_prob = rng.range(0.0, 0.02);
        plan.jitter_spike_max = (rng.range(5.0, 30.0) * MILLIS as f64) as Nanos;
    }
    if rng.chance(0.3) {
        plan.ack_compression = (rng.range(0.5, 3.0) * MILLIS as f64) as Nanos;
    }
    plan
}

fn chain_sim(rng: &mut Rng, secs: f64) -> Simulation {
    let bw = rng.range(12.0, 48.0);
    let rtt_ms = rng.range(15.0, 60.0);
    let bdp = bdp_bytes(bw, rtt_ms);
    let n_extra = 1 + rng.below(2); // 1 or 2 downstream hops
    let mut topology = Topology::single();
    for k in 1..=n_extra {
        let ratio = rng.range(0.6, 1.2);
        let mut hop = HopSpec::constant(bw * ratio.powi(k as i32), bdp.max(30_000), 2.0);
        hop.faults = random_plan(rng, secs);
        topology.extra_hops.push(hop);
    }
    let mut cfg = SimConfig::new(
        LinkModel::Constant { mbps: bw },
        bdp.max(30_000),
        rtt_ms,
        from_secs(secs),
    )
    .with_topology(topology);
    cfg.seed = rng.next_u64();
    cfg.faults = random_plan(rng, secs);
    let flows = vec![
        FlowConfig::starting_at(Box::new(MiniAimd { cwnd: 10.0 }), 0),
        FlowConfig::starting_at(Box::new(MiniAimd { cwnd: 10.0 }), 50 * MILLIS),
    ];
    Simulation::new(cfg, flows)
}

/// Conservation: at the end of any run, every hop must account for each
/// packet it accepted — delivered, dropped, still buffered, or in service.
/// Holds regardless of which fault mechanisms fired on or between hops.
#[test]
fn per_hop_conservation_under_fault_grid() {
    forall(
        "per-hop conservation",
        PropConfig::new(25, 0xC0_45E4),
        |rng| {
            let secs = 2.0;
            let mut sim = chain_sim(rng, secs);
            let stats = sim.run(&mut NullMonitor);
            for (h, c) in sim.hop_counters().iter().enumerate() {
                let accounted = c.dropped
                    + c.delivered
                    + c.backlog_packets as u64
                    + c.in_service_packets as u64;
                if c.enqueued != accounted {
                    return Err(format!(
                        "hop {h} leaks packets: enqueued {e} != accounted {accounted} ({c:?})",
                        e = c.enqueued
                    ));
                }
            }
            // The chain may be hostile, but it must never deadlock the
            // simulation: both flows ran to completion (stats exist).
            if stats.len() != 2 {
                return Err(format!("expected 2 flow stats, got {}", stats.len()));
            }
            Ok(())
        },
    );
}

struct TickOrder {
    last: Vec<Nanos>,
    violations: usize,
    ticks: usize,
}

impl Monitor for TickOrder {
    fn on_tick(&mut self, flow_idx: usize, _view: &SocketView, tick: &TickRecord) {
        if flow_idx >= self.last.len() {
            self.last.resize(flow_idx + 1, 0);
        }
        if tick.now < self.last[flow_idx] {
            self.violations += 1;
        }
        self.last[flow_idx] = tick.now;
        self.ticks += 1;
    }
}

/// Monitor ticks must stay monotone per flow no matter how many hops the
/// path has or how its per-hop fault processes reorder and delay packets.
#[test]
fn monotone_ticks_across_hops() {
    forall(
        "monotone ticks across hops",
        PropConfig::new(15, 0x71C_04D3),
        |rng| {
            let mut sim = chain_sim(rng, 2.0);
            let mut mon = TickOrder {
                last: Vec::new(),
                violations: 0,
                ticks: 0,
            };
            sim.run(&mut mon);
            if mon.violations > 0 {
                return Err(format!("{} non-monotone ticks", mon.violations));
            }
            if mon.ticks == 0 {
                return Err("no monitor ticks at all".into());
            }
            Ok(())
        },
    );
}
