//! Every popped event is live: the share of pops that change no state —
//! duplicate hop completions and superseded RTO timers were a third of all
//! pops before the loop tracked one completion per hop and one timer per
//! flow — stays under 1 % on a lossy run, and on a clean one is the single
//! superseded initial timer of each flow.
//!
//! One test, alone in its binary: it reads process-global obs counters.

use sage_netsim::faults::{FaultPlan, GilbertElliott};
use sage_netsim::link::LinkModel;
use sage_netsim::time::{from_secs, Nanos, MILLIS};
use sage_transport::sim::NullMonitor;
use sage_transport::{AckEvent, CongestionControl, FlowConfig, SimConfig, Simulation, SocketView};

struct Aimd(f64);
impl CongestionControl for Aimd {
    fn name(&self) -> &'static str {
        "aimd"
    }
    fn on_ack(&mut self, a: &AckEvent, _s: &SocketView) {
        self.0 += a.newly_acked_pkts as f64 / self.0.max(1.0);
    }
    fn on_congestion_event(&mut self, _n: Nanos, _s: &SocketView) {
        self.0 = (self.0 / 2.0).max(2.0);
    }
    fn on_rto(&mut self, _n: Nanos, _s: &SocketView) {
        self.0 = 2.0;
    }
    fn cwnd_pkts(&self) -> f64 {
        self.0
    }
}

/// Run four staggered AIMD flows over a 24 Mbit/s, 40 ms, one-BDP path and
/// return the `(events_popped, events_dead)` the run added to the registry.
fn run(faults: FaultPlan) -> (u64, u64) {
    let popped = sage_obs::counter("transport.events_popped");
    let dead = sage_obs::counter("transport.events_dead");
    let before = (popped.value(), dead.value());
    let cfg = SimConfig::new(
        LinkModel::Constant { mbps: 24.0 },
        120_000,
        40.0,
        from_secs(8.0),
    )
    .with_faults(faults);
    let flows = (0..4)
        .map(|i| FlowConfig::starting_at(Box::new(Aimd(10.0)), i * 200 * MILLIS))
        .collect();
    let mut sim = Simulation::new(cfg, flows);
    let stats = sim.run(&mut NullMonitor);
    assert!(stats.iter().all(|s| s.delivered_bytes > 0));
    // The tallies reach the registry when the simulation drops.
    drop(sim);
    (popped.value() - before.0, dead.value() - before.1)
}

#[test]
fn dead_event_share_stays_under_one_percent() {
    sage_obs::force_enabled(true);

    // Clean: the queue overflows (fast retransmits) but no timer ever fires.
    // Each flow's first timer is armed at the 1 s initial RTO and superseded
    // when the first RTT sample pulls the deadline in: that leftover is the
    // only dead pop, one per flow. A duplicate `HopComplete` — thousands in
    // this run before — would show here.
    let (popped, dead) = run(FaultPlan::none());
    assert!(popped > 30_000, "clean run popped only {popped} events");
    assert!(dead <= 4, "clean run: {dead} dead of {popped} popped");

    // Lossy: burst loss drives RTOs, backoff and backoff resets; the only
    // dead pops are timers left over when a deadline moved earlier.
    let (popped, dead) = run(FaultPlan {
        burst_loss: Some(GilbertElliott::harsh()),
        ..FaultPlan::default()
    });
    assert!(popped > 10_000, "lossy run popped only {popped} events");
    assert!(
        dead * 100 <= popped,
        "lossy run: {dead} dead of {popped} popped"
    );
}
