//! The discrete-event simulation binding flows to a bottleneck path —
//! the equivalent of one Mahimahi shell run.

use crate::cc::{CongestionControl, SocketView};
use crate::flow::{Ack, Flow};
use sage_netsim::aqm::AqmKind;
use sage_netsim::engine::EventQueue;
use sage_netsim::faults::{FaultInjector, FaultPlan, FaultStats, ForwardVerdict};
use sage_netsim::link::LinkModel;
use sage_netsim::packet::{FlowId, Packet};
use sage_netsim::queue::{BottleneckPath, EnqueueOutcome};
use sage_netsim::time::{from_ms, Nanos, MILLIS, SECONDS};
use sage_netsim::topology::Topology;
use sage_util::{percentile, Rng};

/// Monitor/action interval: the GR unit's timestep.
pub const MONITOR_INTERVAL: Nanos = 10 * MILLIS;

/// Uniform jitter bound on the ACK return path: end-host timing noise, which
/// breaks the deterministic phase-lock synchronised flows would otherwise
/// fall into over a DropTail queue.
const ACK_JITTER: Nanos = 200_000;

/// Network-level configuration of a run.
pub struct SimConfig {
    pub link: LinkModel,
    pub buffer_bytes: u64,
    pub aqm: AqmKind,
    /// Minimum round-trip propagation delay in milliseconds (split evenly
    /// between the forward and return path).
    pub rtt_ms: f64,
    /// Independent per-packet random loss probability on the forward path.
    pub random_loss: f64,
    pub duration: Nanos,
    pub seed: u64,
    /// Adversarial fault injection (burst loss, corruption, reordering,
    /// duplication, blackouts, jitter spikes, ACK compression). The default
    /// plan injects nothing.
    pub faults: FaultPlan,
    /// Hops downstream of the primary bottleneck. Empty (the default) is the
    /// classic single-bottleneck path, bit-identical to the pre-topology
    /// simulator. Each extra hop owns a queue + link + AQM + fault injector;
    /// its propagation delay adds to the forward path on top of `rtt_ms`.
    pub topology: Topology,
    /// Flight-recorder span base: flow `id` records under span
    /// `span_base + id + 1` (0 default — spans stay run-local). Eval cells
    /// set a per-cell base so merged dumps keep cells distinguishable.
    /// Observability metadata only — never feeds simulation state.
    pub span_base: u64,
}

impl SimConfig {
    pub fn new(link: LinkModel, buffer_bytes: u64, rtt_ms: f64, duration: Nanos) -> Self {
        SimConfig {
            link,
            buffer_bytes,
            aqm: AqmKind::TailDrop,
            rtt_ms,
            random_loss: 0.0,
            duration,
            seed: 1,
            faults: FaultPlan::default(),
            topology: Topology::single(),
            span_base: 0,
        }
    }

    /// Same configuration with a fault plan attached.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Same configuration with downstream hops attached.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }
}

/// One flow participating in a run.
pub struct FlowConfig {
    pub cca: Box<dyn CongestionControl>,
    pub start: Nanos,
    pub stop: Option<Nanos>,
    /// Managed by the batch controller of [`Simulation::run_batched`]: the
    /// flow's tick observation is collected into the controller's batch
    /// instead of driving `cca.on_tick` (the cca is typically a
    /// [`crate::cc::RemoteCwnd`] shell).
    pub batched: bool,
}

impl FlowConfig {
    pub fn at_start(cca: Box<dyn CongestionControl>) -> Self {
        FlowConfig {
            cca,
            start: 0,
            stop: None,
            batched: false,
        }
    }

    pub fn starting_at(cca: Box<dyn CongestionControl>, start: Nanos) -> Self {
        FlowConfig {
            cca,
            start,
            stop: None,
            batched: false,
        }
    }

    /// Mark the flow as batch-controlled.
    pub fn batched(mut self) -> Self {
        self.batched = true;
        self
    }
}

/// Per-tick observation handed to monitors (one per flow per tick).
#[derive(Debug, Clone, Copy)]
pub struct TickRecord {
    pub now: Nanos,
    /// Receiver goodput over the tick, bits/s.
    pub goodput_bps: f64,
    /// Mean one-way delay of packets delivered this tick, seconds (0 if none).
    pub mean_owd: f64,
    /// Bytes newly lost during this tick (sender estimate).
    pub lost_bytes_delta: u64,
    /// Congestion window applied during this tick, packets.
    pub cwnd_pkts: f64,
}

/// Summary statistics for one flow after a run.
#[derive(Debug, Clone)]
pub struct FlowStats {
    pub name: String,
    /// Mean receiver goodput over the flow's active period, Mbit/s.
    pub avg_goodput_mbps: f64,
    /// Mean one-way delay of delivered packets, ms.
    pub avg_owd_ms: f64,
    /// 95th-percentile one-way delay, ms.
    pub p95_owd_ms: f64,
    /// Payload bytes that reached the receiver, each sequence once, in order
    /// or not (a duplicate or a second copy of received data adds nothing).
    pub delivered_bytes: u64,
    /// Sender loss marks: a transmission declared lost by SACK/dupACK
    /// marking or by an RTO's go-back-N, plus everything written off when the
    /// flow aborts and restarts. One sequence is marked again after each of
    /// its retransmissions, so the denominator of a loss rate is
    /// `sent_pkts + retx_pkts` (transmissions) — over `sent_pkts` alone a
    /// go-back-N storm reads as several hundred per cent.
    pub lost_pkts: u64,
    /// Retransmissions, counted apart from `sent_pkts`.
    pub retx_pkts: u64,
    /// First transmissions only: new sequence numbers put on the wire.
    /// Everything the sender transmitted is `sent_pkts + retx_pkts`.
    pub sent_pkts: u64,
    /// Times the flow aborted and cleanly restarted after consecutive RTOs.
    pub restarts: u64,
    /// Active sending duration, seconds.
    pub active_secs: f64,
}

/// Observer invoked once per flow per monitor tick.
pub trait Monitor {
    fn on_tick(&mut self, flow_idx: usize, view: &SocketView, tick: &TickRecord);
}

/// A no-op monitor.
pub struct NullMonitor;
impl Monitor for NullMonitor {
    fn on_tick(&mut self, _flow_idx: usize, _view: &SocketView, _tick: &TickRecord) {}
}

/// One flow's pre-action observation within a batched monitor tick.
#[derive(Debug, Clone, Copy)]
pub struct BatchObs {
    pub flow_idx: usize,
    pub view: SocketView,
}

/// A controller serving many flows at once. Each monitor tick it receives
/// the pre-action views of every active batch-managed flow (in flow-index
/// order — deterministic) and applies actions by writing the
/// [`crate::cc::SharedCwnd`] cells it holds.
pub trait BatchCc {
    fn on_batch_tick(&mut self, now: Nanos, obs: &[BatchObs]);
}

enum Ev {
    /// Hop `h` finishes serving its in-service packet. At most one is
    /// pending per hop, in the hop's slot of the event queue (see
    /// `schedule_hop_completion`), so a popped one is always the live one;
    /// the loop still checks, so that a violation would show in
    /// `transport.events_dead`.
    HopComplete(u32),
    /// Data packet reaches hop `h`'s queue after inter-hop propagation.
    HopArrive(u32, Packet),
    /// Data packet reaches the receiver.
    DataArrive(Packet),
    /// ACK reaches the sender.
    AckArrive(Ack),
    /// RTO timer for a flow, validated against the flow's deadline when it
    /// pops (see [`RtoTimer`]).
    Rto(FlowId),
    /// Global monitor tick.
    Tick,
    /// Flow lifecycle.
    FlowStart(FlowId),
    FlowStop(FlowId),
    /// Pacing gate re-opened for a flow.
    PacedSend(FlowId),
}

// The event queue's FIFO lanes (see `EventQueue::schedule_lane`), one per
// per-packet event class that can have many events pending. Each class is
// scheduled in nearly increasing time — a serial link's departures plus a
// constant delay, and on a multi-hop path every hop's departures happen in
// event order with the same inter-hop delay — so only timers and flow
// lifecycle events (about one entry per flow) live in the heap. A single-hop
// path has no `HopArrive` and keeps two lanes. `HopComplete(hop)` is in the
// queue's slot `hop` (see `EventQueue::schedule_slot`).
/// `DataArrive`.
const LANE_DATA: usize = 0;
/// `AckArrive`.
const LANE_ACK: usize = 1;
/// `HopArrive(hop, _)` of every downstream hop (`hop >= 1`).
const LANE_ARRIVE: usize = 2;

/// Per-hop cumulative counters, for conservation accounting and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopCounters {
    pub enqueued: u64,
    pub dropped: u64,
    pub delivered: u64,
    /// Packets still buffered at the instant of the snapshot.
    pub backlog_packets: usize,
    /// Packets occupying the hop's link (0 or 1).
    pub in_service_packets: usize,
}

/// The event-queue side of one flow's RTO timer. The deadline itself is
/// [`Flow::rto_deadline`]; this tracks the one `Rto` event that follows it, so
/// an ACK that moves the deadline later costs no heap insertion.
#[derive(Debug, Clone, Copy, Default)]
struct RtoTimer {
    /// The deadline last armed and the queue sequence reserved where it was
    /// armed: the key the firing event carries. Re-arming to the same
    /// deadline keeps the first sequence.
    key: Option<(Nanos, u64)>,
    /// Time of the flow's tracked `Rto` event in the queue. It is never later
    /// than the deadline, and when it pops early it re-inserts itself at
    /// `key`.
    pending: Option<Nanos>,
}

/// A complete multi-hop path simulation (a single bottleneck by default).
pub struct Simulation {
    cfg: SimConfig,
    /// The path's hop chain: hop 0 is the primary bottleneck from the
    /// config; downstream hops come from [`SimConfig::topology`].
    hops: Vec<BottleneckPath>,
    /// Per-hop fault injectors. Hop 0's is driven by `cfg.faults` and also
    /// owns the ACK return path (ACKs bypass downstream queues — they are
    /// small — but downstream blackouts still drop the data packets that
    /// would have generated them).
    hop_faults: Vec<FaultInjector>,
    /// Propagation delay crossed before entering each hop's queue (index 0
    /// is unused: the sender feeds hop 0 directly).
    hop_prop: Vec<Nanos>,
    flows: Vec<Flow>,
    /// Per-flow: managed by the batch controller (see [`FlowConfig::batched`]).
    batched: Vec<bool>,
    events: EventQueue<Ev>,
    rto_timers: Vec<RtoTimer>,
    /// Events processed, and those among them that changed no state — obs
    /// tallies, folded into the registry when the simulation drops (with the
    /// queue's own three: pops served by a lane and by a slot, lane events
    /// the heap took).
    events_popped: u64,
    events_dead: u64,
    now: Nanos,
    fwd_owd: Nanos,
    ret_owd: Nanos,
    /// Per-flow pacing state: earliest next permitted transmission.
    pace_next: Vec<Nanos>,
    /// Whether a PacedSend wake-up is already scheduled for the flow
    /// (prevents duplicate self-rearming events).
    pace_armed: Vec<bool>,
    /// Per-flow lost-bytes counter at the previous tick.
    prev_lost_bytes: Vec<u64>,
    rng: sage_util::Rng,
}

impl Simulation {
    pub fn new(cfg: SimConfig, flow_cfgs: Vec<FlowConfig>) -> Self {
        // Hop 0 keeps the exact legacy seeds so single-bottleneck runs stay
        // byte-identical to the pre-topology simulator; downstream hops draw
        // independent streams split statelessly from the run seed.
        let mut hops = vec![BottleneckPath::new(
            cfg.link.clone(),
            cfg.buffer_bytes,
            cfg.aqm.build(cfg.seed),
            cfg.random_loss,
            cfg.seed,
        )];
        let mut hop_faults = vec![FaultInjector::new(cfg.faults.clone(), cfg.seed)];
        let mut hop_prop: Vec<Nanos> = vec![0];
        for (i, hop) in cfg.topology.extra_hops.iter().enumerate() {
            let hop_seed = Rng::stream_seed(cfg.seed, 0xB09A_0000 + i as u64 + 1);
            hops.push(BottleneckPath::new(
                hop.link.clone(),
                hop.buffer_bytes,
                hop.aqm.build(hop_seed),
                0.0,
                hop_seed,
            ));
            hop_faults.push(FaultInjector::new(
                hop.faults.clone(),
                Rng::stream_seed(cfg.seed, 0xFA57_0000 + i as u64 + 1),
            ));
            hop_prop.push(from_ms(hop.prop_ms));
        }
        for hop in hops.iter_mut() {
            hop.set_span_base(cfg.span_base);
        }
        let half = from_ms(cfg.rtt_ms / 2.0);
        let cfg_seed = cfg.seed;
        let mut flows = Vec::new();
        let mut batched = Vec::new();
        let lanes = if hops.len() > 1 {
            LANE_ARRIVE + 1
        } else {
            LANE_ACK + 1
        };
        let mut events = EventQueue::with_lanes(lanes, hops.len());
        for (i, fc) in flow_cfgs.into_iter().enumerate() {
            let id = i as FlowId;
            let mut f = Flow::new(id, fc.cca, fc.start, fc.stop);
            f.span = cfg.span_base + id as u64 + 1;
            events.schedule(fc.start, Ev::FlowStart(id));
            if let Some(stop) = fc.stop {
                events.schedule(stop, Ev::FlowStop(id));
            }
            flows.push(f);
            batched.push(fc.batched);
        }
        events.schedule(MONITOR_INTERVAL, Ev::Tick);
        let n = flows.len();
        Simulation {
            cfg,
            hops,
            hop_faults,
            hop_prop,
            flows,
            batched,
            events,
            rto_timers: vec![RtoTimer::default(); n],
            events_popped: 0,
            events_dead: 0,
            now: 0,
            fwd_owd: half,
            ret_owd: half,
            pace_next: vec![0; n],
            pace_armed: vec![false; n],
            prev_lost_bytes: vec![0; n],
            rng: sage_util::Rng::new(cfg_seed ^ 0xACE1),
        }
    }

    /// Run to completion, invoking `monitor` once per active flow per tick.
    pub fn run(&mut self, monitor: &mut dyn Monitor) -> Vec<FlowStats> {
        self.run_inner(monitor, &mut None)
    }

    /// Like [`Simulation::run`], but flows marked [`FlowConfig::batched`]
    /// are served by `ctrl`: each tick their pre-action views are collected
    /// and handed to `ctrl.on_batch_tick` in one call (phase 1), then the
    /// per-flow tick accounting runs with the post-action windows (phase 2).
    pub fn run_batched(
        &mut self,
        monitor: &mut dyn Monitor,
        ctrl: &mut dyn BatchCc,
    ) -> Vec<FlowStats> {
        let mut ctrl = Some(ctrl);
        self.run_inner(monitor, &mut ctrl)
    }

    fn run_inner(
        &mut self,
        monitor: &mut dyn Monitor,
        ctrl: &mut Option<&mut dyn BatchCc>,
    ) -> Vec<FlowStats> {
        while let Some((t, ev)) = self.events.pop() {
            if t > self.cfg.duration {
                break;
            }
            self.now = t;
            self.events_popped += 1;
            match ev {
                Ev::HopComplete(h) => {
                    let h = h as usize;
                    if self.hops[h].next_completion() == Some(t) {
                        if let Some(dep) = self.hops[h].complete(self.now) {
                            match self.hop_faults[h].on_forward(dep.at) {
                                ForwardVerdict::Drop => {
                                    // Lost on the wire: surfaces to the
                                    // sender as a missing ACK.
                                }
                                ForwardVerdict::Deliver {
                                    extra_delay,
                                    duplicate,
                                    dup_gap,
                                } => {
                                    if h + 1 < self.hops.len() {
                                        // Next hop's queue, after the
                                        // inter-hop propagation delay.
                                        let arrive = dep.at + self.hop_prop[h + 1] + extra_delay;
                                        let nh = (h + 1) as u32;
                                        self.events.schedule_lane(
                                            LANE_ARRIVE,
                                            arrive,
                                            Ev::HopArrive(nh, dep.pkt),
                                        );
                                        if duplicate {
                                            self.events.schedule_lane(
                                                LANE_ARRIVE,
                                                arrive + dup_gap,
                                                Ev::HopArrive(nh, dep.pkt),
                                            );
                                        }
                                    } else {
                                        let arrive = dep.at + self.fwd_owd + extra_delay;
                                        self.events.schedule_lane(
                                            LANE_DATA,
                                            arrive,
                                            Ev::DataArrive(dep.pkt),
                                        );
                                        if duplicate {
                                            self.events.schedule_lane(
                                                LANE_DATA,
                                                arrive + dup_gap,
                                                Ev::DataArrive(dep.pkt),
                                            );
                                        }
                                    }
                                }
                            }
                        }
                        self.schedule_hop_completion(h);
                    } else {
                        self.events_dead += 1;
                    }
                }
                Ev::HopArrive(h, pkt) => {
                    let h = h as usize;
                    // Drops at a downstream hop surface to the sender as
                    // missing ACKs, exactly like hop-0 drops.
                    let _ = self.hops[h].enqueue(self.now, pkt);
                    self.schedule_hop_completion(h);
                }
                Ev::DataArrive(pkt) => {
                    let idx = pkt.flow as usize;
                    let ack = self.flows[idx].on_data(self.now, pkt);
                    let jitter = (self.rng.uniform() * ACK_JITTER as f64) as Nanos;
                    let nominal = self.now + self.ret_owd + jitter;
                    if let Some(release) = self.hop_faults[0].on_ack(self.now, nominal) {
                        self.events
                            .schedule_lane(LANE_ACK, release, Ev::AckArrive(ack));
                    }
                }
                Ev::AckArrive(ack) => {
                    let idx = ack.flow as usize;
                    if let Some(d) = self.flows[idx].on_ack(self.now, ack) {
                        self.arm_rto(idx, d);
                    }
                    self.try_send(idx);
                }
                Ev::Rto(fid) => {
                    let idx = fid as usize;
                    if self.rto_timers[idx].pending == Some(t) {
                        self.rto_timers[idx].pending = None;
                    }
                    match self.flows[idx].rto_deadline {
                        Some(d) if d <= t => {
                            if let Some(next) = self.flows[idx].on_rto(t) {
                                self.arm_rto(idx, next);
                            }
                            self.try_send(idx);
                        }
                        // The tracked event popped before a deadline that
                        // ACKs moved later: follow it, at the key it was
                        // armed with.
                        Some(d) if self.rto_timers[idx].pending.is_none() => {
                            self.arm_rto(idx, d);
                        }
                        // The deadline was cleared, or moved earlier and got
                        // a new tracked event: this one is left over.
                        _ => self.events_dead += 1,
                    }
                }
                Ev::Tick => {
                    self.do_tick(monitor, ctrl);
                    self.events.schedule(self.now + MONITOR_INTERVAL, Ev::Tick);
                }
                Ev::FlowStart(fid) => {
                    let idx = fid as usize;
                    self.flows[idx].active = true;
                    let now = self.now;
                    self.flows[idx].cca.init(now, crate::MSS);
                    self.try_send(idx);
                }
                Ev::FlowStop(fid) => {
                    let idx = fid as usize;
                    self.flows[idx].active = false;
                }
                Ev::PacedSend(fid) => {
                    self.pace_armed[fid as usize] = false;
                    self.try_send(fid as usize);
                }
            }
        }
        self.collect_stats()
    }

    fn do_tick(&mut self, monitor: &mut dyn Monitor, ctrl: &mut Option<&mut dyn BatchCc>) {
        let interval_s = MONITOR_INTERVAL as f64 / SECONDS as f64;
        let mut collected: Vec<usize> = Vec::new();
        for idx in 0..self.flows.len() {
            if !self.flows[idx].active {
                continue;
            }
            if self.batched[idx] && ctrl.is_some() {
                // Phase 1 of the batched tick: collect now, act once on the
                // whole batch below.
                collected.push(idx);
                continue;
            }
            let now = self.now;
            let view = self.flows[idx].socket_view(now);
            {
                let f = &mut self.flows[idx];
                f.cca.on_tick(now, &view);
            }
            self.finish_tick(idx, interval_s, monitor);
        }
        if collected.is_empty() {
            return;
        }
        let now = self.now;
        let obs: Vec<BatchObs> = collected
            .iter()
            .map(|&idx| BatchObs {
                flow_idx: idx,
                view: self.flows[idx].socket_view(now),
            })
            .collect();
        if let Some(c) = ctrl.as_mut() {
            c.on_batch_tick(now, &obs);
        }
        for &idx in &collected {
            self.finish_tick(idx, interval_s, monitor);
        }
    }

    /// Phase 2 of a monitor tick for one flow: rebuild the view after the
    /// action so monitors observe the post-action cwnd (the GR unit records
    /// the action's effect), account tick statistics, and try sending.
    fn finish_tick(&mut self, idx: usize, interval_s: f64, monitor: &mut dyn Monitor) {
        let now = self.now;
        let view = self.flows[idx].socket_view(now);
        let (bytes, owd) = self.flows[idx].take_tick();
        let lost_total = self.flows[idx].lost_bytes_total;
        let lost_delta = lost_total.saturating_sub(self.prev_lost_bytes[idx]);
        self.prev_lost_bytes[idx] = lost_total;
        let tick = TickRecord {
            now,
            goodput_bps: bytes as f64 * 8.0 / interval_s,
            mean_owd: owd,
            lost_bytes_delta: lost_delta,
            cwnd_pkts: view.cwnd_pkts,
        };
        monitor.on_tick(idx, &view, &tick);
        // Window may have changed (tick-driven CCAs); try sending.
        self.try_send(idx);
    }

    /// Transmit as many packets as the window and pacing gate allow.
    fn try_send(&mut self, idx: usize) {
        loop {
            let now = self.now;
            let f = &mut self.flows[idx];
            if !f.active {
                return;
            }
            if !(f.window_open() || (f.has_retransmit() && f.pipe_pkts() == 0)) {
                // Always allow a retransmission when nothing is in flight,
                // otherwise recovery can deadlock with a tiny window.
                return;
            }
            // Pacing gate. `make_packet` leaves the CCA alone, so one read
            // of the rate serves the gate and the gap.
            let pacing = f.cca.pacing_bps().filter(|&bps| bps > 0.0);
            if pacing.is_some() && now < self.pace_next[idx] {
                if !self.pace_armed[idx] {
                    self.pace_armed[idx] = true;
                    let at = self.pace_next[idx];
                    self.events.schedule(at, Ev::PacedSend(idx as FlowId));
                }
                return;
            }
            let pkt = f.make_packet(now);
            if let Some(bps) = pacing {
                let gap = (pkt.bytes as f64 * 8.0 / bps * SECONDS as f64) as Nanos;
                self.pace_next[idx] = now.max(self.pace_next[idx]) + gap;
            }
            if let Some(d) = f.ensure_rto(now) {
                self.arm_rto(idx, d);
            }
            match self.hops[0].enqueue(now, pkt) {
                EnqueueOutcome::Queued | EnqueueOutcome::Dropped(_) => {
                    // Drops surface to the sender through missing ACKs; the
                    // path records them for its own statistics either way.
                }
            }
            self.schedule_hop_completion(0);
        }
    }

    /// Keep one `HopComplete` in the queue for the packet hop `hop` is
    /// serving, in the hop's slot. Called after everything that can start a
    /// service (an enqueue, a completion); the finish time of a packet in
    /// service never changes, and a service starts only when the last one's
    /// completion popped, so only the first call after a service starts
    /// finds the slot empty and inserts.
    fn schedule_hop_completion(&mut self, hop: usize) {
        if let Some(t) = self.hops[hop].next_completion() {
            match self.events.slot_time(hop) {
                None => self
                    .events
                    .schedule_slot(hop, t, Ev::HopComplete(hop as u32)),
                Some(pending) => debug_assert_eq!(pending, t, "hop {hop}'s finish time moved"),
            }
        }
    }

    /// Flow `idx`'s RTO deadline was just set to `deadline`: take the event's
    /// place in the queue order here, and insert it only if the flow's tracked
    /// `Rto` event would pop too late to follow the deadline there.
    fn arm_rto(&mut self, idx: usize, deadline: Nanos) {
        let timer = &mut self.rto_timers[idx];
        let seq = match timer.key {
            Some((d, seq)) if d == deadline => seq,
            _ => self.events.reserve_seq(),
        };
        timer.key = Some((deadline, seq));
        if timer.pending.is_none_or(|p| p > deadline) {
            timer.pending = Some(deadline);
            self.events
                .schedule_reserved(deadline, seq, Ev::Rto(idx as FlowId));
        }
    }

    fn collect_stats(&mut self) -> Vec<FlowStats> {
        let mut out = Vec::new();
        for f in &self.flows {
            let end = f.stop.unwrap_or(self.cfg.duration).min(self.cfg.duration);
            let active = end.saturating_sub(f.start) as f64 / SECONDS as f64;
            let goodput = if active > 0.0 {
                f.rcv_bytes_total as f64 * 8.0 / active / 1e6
            } else {
                0.0
            };
            let owds: Vec<f64> = f.owd_samples.iter().map(|&x| x as f64 * 1e3).collect();
            out.push(FlowStats {
                name: f.cca.name().to_string(),
                avg_goodput_mbps: goodput,
                avg_owd_ms: sage_util::mean(&owds),
                p95_owd_ms: percentile(&owds, 95.0),
                delivered_bytes: f.rcv_bytes_total,
                lost_pkts: f.lost_pkts_total,
                retx_pkts: f.retx_pkts_total,
                sent_pkts: f.sent_pkts_total,
                restarts: f.restarts_total,
                active_secs: active,
            });
        }
        out
    }

    /// Counters of everything hop 0's fault injector did during the run.
    pub fn fault_stats(&self) -> FaultStats {
        self.hop_faults[0].stats
    }

    /// Per-hop queue counters, hop order. The conservation invariant
    /// `enqueued == dropped + delivered + backlog + in_service` holds for
    /// every hop at every instant the event loop is quiescent.
    pub fn hop_counters(&self) -> Vec<HopCounters> {
        self.hops
            .iter()
            .map(|h| HopCounters {
                enqueued: h.total_enqueued,
                dropped: h.total_dropped,
                delivered: h.total_delivered,
                backlog_packets: h.backlog_packets(),
                in_service_packets: h.in_service_packets(),
            })
            .collect()
    }

    /// Access a flow (for inspection in tests and figures).
    pub fn flow(&self, idx: usize) -> &Flow {
        &self.flows[idx]
    }
}

/// Fold the event-loop tallies into the registry (the hops and flows fold
/// theirs when they drop with the simulation).
impl Drop for Simulation {
    fn drop(&mut self) {
        sage_obs::obs_counter!("transport.events_popped").add(self.events_popped);
        sage_obs::obs_counter!("transport.events_dead").add(self.events_dead);
        sage_obs::obs_counter!("transport.events_lane_popped").add(self.events.lane_pops());
        sage_obs::obs_counter!("transport.events_slot_popped").add(self.events.slot_pops());
        sage_obs::obs_counter!("transport.lane_heap_fallbacks").add(self.events.heap_fallbacks());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{AckEvent, CaState};
    use sage_netsim::internet::bdp_bytes;

    /// Minimal AIMD Reno for end-to-end sanity tests (real schemes live in
    /// `sage-heuristics`).
    struct MiniReno {
        cwnd: f64,
        ssthresh: f64,
    }
    impl MiniReno {
        fn new() -> Self {
            MiniReno {
                cwnd: crate::INIT_CWND,
                ssthresh: f64::INFINITY,
            }
        }
    }
    impl CongestionControl for MiniReno {
        fn name(&self) -> &'static str {
            "mini-reno"
        }
        fn on_ack(&mut self, ack: &AckEvent, _s: &SocketView) {
            for _ in 0..ack.newly_acked_pkts {
                if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0;
                } else {
                    self.cwnd += 1.0 / self.cwnd;
                }
            }
        }
        fn on_congestion_event(&mut self, _now: Nanos, _s: &SocketView) {
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = self.ssthresh;
        }
        fn on_rto(&mut self, _now: Nanos, _s: &SocketView) {
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

    fn run_one(mbps: f64, rtt_ms: f64, bdp_mult: f64, secs: f64) -> FlowStats {
        let bdp = bdp_bytes(mbps, rtt_ms);
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps },
            ((bdp as f64 * bdp_mult) as u64).max(3000),
            rtt_ms,
            sage_netsim::time::from_secs(secs),
        );
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(MiniReno::new()))]);
        sim.run(&mut NullMonitor).remove(0)
    }

    #[test]
    fn reno_fills_a_small_pipe() {
        let s = run_one(12.0, 20.0, 2.0, 10.0);
        assert!(
            s.avg_goodput_mbps > 10.0,
            "expected near-full utilisation, got {} Mbps",
            s.avg_goodput_mbps
        );
        assert!(
            s.avg_owd_ms >= 10.0,
            "one-way delay below propagation? {}",
            s.avg_owd_ms
        );
    }

    #[test]
    fn reno_fills_a_larger_pipe() {
        let s = run_one(48.0, 40.0, 2.0, 15.0);
        assert!(s.avg_goodput_mbps > 40.0, "got {} Mbps", s.avg_goodput_mbps);
    }

    #[test]
    fn losses_occur_with_tiny_buffer() {
        let s = run_one(24.0, 20.0, 0.25, 10.0);
        assert!(s.lost_pkts > 0, "tiny buffer must cause losses");
        assert!(
            s.avg_goodput_mbps > 5.0,
            "still makes progress: {}",
            s.avg_goodput_mbps
        );
    }

    #[test]
    fn delay_bounded_by_buffer() {
        // 1 BDP buffer: worst-case queue is one extra RTT; one-way delay is
        // bounded by prop/2 + buffer-drain plus service granularity.
        let s = run_one(24.0, 40.0, 1.0, 10.0);
        assert!(s.avg_owd_ms < 20.0 + 40.0 + 5.0, "owd {}", s.avg_owd_ms);
        assert!(s.p95_owd_ms >= s.avg_owd_ms);
    }

    #[test]
    fn two_flows_share_roughly_fairly() {
        let mbps = 24.0;
        let bdp = bdp_bytes(mbps, 40.0);
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps },
            bdp * 2,
            40.0,
            sage_netsim::time::from_secs(30.0),
        );
        let mut sim = Simulation::new(
            cfg,
            vec![
                FlowConfig::at_start(Box::new(MiniReno::new())),
                FlowConfig::at_start(Box::new(MiniReno::new())),
            ],
        );
        let stats = sim.run(&mut NullMonitor);
        let total = stats[0].avg_goodput_mbps + stats[1].avg_goodput_mbps;
        assert!(total > 20.0, "total {total}");
        let ratio = stats[0].avg_goodput_mbps / stats[1].avg_goodput_mbps.max(0.01);
        assert!((0.5..=2.0).contains(&ratio), "unfair split {ratio}");
    }

    #[test]
    fn step_scenario_tracks_capacity_increase() {
        let cfg = SimConfig::new(
            LinkModel::Step {
                before_mbps: 24.0,
                after_mbps: 96.0,
                at: sage_netsim::time::from_secs(10.0),
            },
            2_000_000,
            20.0,
            sage_netsim::time::from_secs(20.0),
        );
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(MiniReno::new()))]);
        let stats = sim.run(&mut NullMonitor);
        // Average must exceed the low phase alone.
        assert!(
            stats[0].avg_goodput_mbps > 20.0,
            "got {}",
            stats[0].avg_goodput_mbps
        );
    }

    #[test]
    fn monitor_ticks_fire_at_interval() {
        struct Counter(u64);
        impl Monitor for Counter {
            fn on_tick(&mut self, _i: usize, _v: &SocketView, _t: &TickRecord) {
                self.0 += 1;
            }
        }
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps: 12.0 },
            100_000,
            20.0,
            sage_netsim::time::from_secs(2.0),
        );
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(MiniReno::new()))]);
        let mut c = Counter(0);
        sim.run(&mut c);
        // 2 s at 10 ms per tick = about 200 ticks.
        assert!((190..=201).contains(&c.0), "ticks {}", c.0);
    }

    #[test]
    fn late_flow_start_respected() {
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps: 12.0 },
            100_000,
            20.0,
            sage_netsim::time::from_secs(4.0),
        );
        let mut sim = Simulation::new(
            cfg,
            vec![FlowConfig::starting_at(
                Box::new(MiniReno::new()),
                sage_netsim::time::from_secs(2.0),
            )],
        );
        let stats = sim.run(&mut NullMonitor);
        assert!((stats[0].active_secs - 2.0).abs() < 1e-6);
        assert!(stats[0].delivered_bytes > 0);
    }

    #[test]
    fn batched_controller_equals_inline_cca() {
        // A batch controller that applies fixed-increment AIMD through the
        // SharedCwnd cell must reproduce the exact run of the same logic
        // implemented as an inline tick-driven CCA.
        struct FixedGrow {
            cwnd: f64,
        }
        impl CongestionControl for FixedGrow {
            fn name(&self) -> &'static str {
                "fixed-grow"
            }
            fn on_ack(&mut self, _a: &AckEvent, _s: &SocketView) {}
            fn on_congestion_event(&mut self, _now: Nanos, _s: &SocketView) {}
            fn on_rto(&mut self, _now: Nanos, _s: &SocketView) {
                self.cwnd = (self.cwnd * 0.5).max(crate::MIN_CWND);
            }
            fn on_tick(&mut self, _now: Nanos, _s: &SocketView) {
                self.cwnd = (self.cwnd + 1.0).min(200.0);
            }
            fn cwnd_pkts(&self) -> f64 {
                self.cwnd
            }
        }

        struct BatchGrow {
            cells: Vec<crate::cc::SharedCwnd>,
        }
        impl BatchCc for BatchGrow {
            fn on_batch_tick(&mut self, _now: Nanos, obs: &[BatchObs]) {
                for o in obs {
                    let cell = &self.cells[o.flow_idx];
                    cell.set((cell.get() + 1.0).min(200.0));
                }
            }
        }

        let mk_cfg = || {
            SimConfig::new(
                LinkModel::Constant { mbps: 24.0 },
                120_000,
                20.0,
                sage_netsim::time::from_secs(5.0),
            )
        };
        let mut inline_sim = Simulation::new(
            mk_cfg(),
            vec![FlowConfig::at_start(Box::new(FixedGrow {
                cwnd: crate::INIT_CWND,
            }))],
        );
        let inline = inline_sim.run(&mut NullMonitor).remove(0);

        let (cca, cell) = crate::cc::RemoteCwnd::new("fixed-grow");
        let mut batched_sim = Simulation::new(
            mk_cfg(),
            vec![FlowConfig::at_start(Box::new(cca)).batched()],
        );
        let mut ctrl = BatchGrow { cells: vec![cell] };
        let batched = batched_sim.run_batched(&mut NullMonitor, &mut ctrl);
        assert_eq!(inline.delivered_bytes, batched[0].delivered_bytes);
        assert_eq!(inline.lost_pkts, batched[0].lost_pkts);
        assert_eq!(inline.sent_pkts, batched[0].sent_pkts);
    }

    #[test]
    fn batched_flows_need_a_controller_to_move() {
        // Without run_batched, a batched flow's RemoteCwnd just holds its
        // initial window — the flow still progresses (windows never close
        // below MIN_CWND) but slowly; with the flag the controller owns it.
        let (cca, _cell) = crate::cc::RemoteCwnd::new("served");
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps: 12.0 },
            100_000,
            20.0,
            sage_netsim::time::from_secs(2.0),
        );
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(cca)).batched()]);
        let stats = sim.run(&mut NullMonitor).remove(0);
        assert!(stats.delivered_bytes > 0);
    }

    #[test]
    fn parking_lot_downstream_hop_becomes_the_bottleneck() {
        // 48 Mbit/s first hop feeding a 12 Mbit/s second hop: goodput is
        // capped by the tighter downstream hop, and its queue does the
        // dropping.
        let bdp = bdp_bytes(48.0, 20.0);
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps: 48.0 },
            bdp * 2,
            20.0,
            sage_netsim::time::from_secs(10.0),
        )
        .with_topology(sage_netsim::Topology {
            extra_hops: vec![sage_netsim::HopSpec::constant(12.0, bdp / 2, 2.0)],
        });
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(MiniReno::new()))]);
        let stats = sim.run(&mut NullMonitor).remove(0);
        assert_eq!(sim.hop_counters().len(), 2);
        assert!(
            stats.avg_goodput_mbps > 8.0 && stats.avg_goodput_mbps < 13.0,
            "goodput should track the 12 Mbit/s downstream hop, got {}",
            stats.avg_goodput_mbps
        );
        let hops = sim.hop_counters();
        assert!(hops[1].dropped > 0, "tight downstream hop must drop");
        // Everything hop 1 saw was delivered by hop 0 (minus hop-0 fault
        // drops, of which there are none here).
        assert!(hops[1].enqueued <= hops[0].delivered);
    }

    #[test]
    fn single_hop_unchanged_by_empty_topology() {
        let base = run_one(24.0, 30.0, 1.0, 5.0);
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps: 24.0 },
            bdp_bytes(24.0, 30.0).max(3000),
            30.0,
            sage_netsim::time::from_secs(5.0),
        )
        .with_topology(sage_netsim::Topology::single());
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(MiniReno::new()))]);
        let s = sim.run(&mut NullMonitor).remove(0);
        assert_eq!(base.delivered_bytes, s.delivered_bytes);
        assert_eq!(base.lost_pkts, s.lost_pkts);
        assert_eq!(base.sent_pkts, s.sent_pkts);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_one(24.0, 30.0, 1.0, 5.0);
        let b = run_one(24.0, 30.0, 1.0, 5.0);
        assert_eq!(a.delivered_bytes, b.delivered_bytes);
        assert_eq!(a.lost_pkts, b.lost_pkts);
    }

    #[test]
    fn recovery_state_reached_and_left() {
        struct StateWatch {
            saw_recovery: bool,
            back_open: bool,
        }
        impl Monitor for StateWatch {
            fn on_tick(&mut self, _i: usize, v: &SocketView, _t: &TickRecord) {
                if v.ca_state == CaState::Recovery {
                    self.saw_recovery = true;
                } else if self.saw_recovery && v.ca_state == CaState::Open {
                    self.back_open = true;
                }
            }
        }
        let cfg = SimConfig::new(
            LinkModel::Constant { mbps: 24.0 },
            30_000, // small buffer forces losses
            20.0,
            sage_netsim::time::from_secs(10.0),
        );
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(Box::new(MiniReno::new()))]);
        let mut w = StateWatch {
            saw_recovery: false,
            back_open: false,
        };
        sim.run(&mut w);
        assert!(w.saw_recovery, "expected fast recovery under small buffer");
        assert!(w.back_open, "expected recovery to complete");
    }
}
