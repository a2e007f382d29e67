//! End-to-end behavioural checks: every scheme must drive the emulated
//! bottleneck sensibly (utilisation, delay discipline where claimed, and
//! survival under loss).

use sage_heuristics::{build, pool_names};
use sage_netsim::internet::bdp_bytes;
use sage_netsim::link::LinkModel;
use sage_netsim::time::from_secs;
use sage_transport::sim::NullMonitor;
use sage_transport::{FlowConfig, FlowStats, SimConfig, Simulation};

fn run(name: &str, mbps: f64, rtt_ms: f64, bdp_mult: f64, secs: f64) -> FlowStats {
    let bdp = bdp_bytes(mbps, rtt_ms);
    let mut cfg = SimConfig::new(
        LinkModel::Constant { mbps },
        ((bdp as f64 * bdp_mult) as u64).max(4500),
        rtt_ms,
        from_secs(secs),
    );
    cfg.seed = 7;
    let cca = build(name, 7).unwrap();
    let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(cca)]);
    sim.run(&mut NullMonitor).remove(0)
}

#[test]
fn every_pool_scheme_achieves_reasonable_utilisation() {
    for name in pool_names() {
        let s = run(name, 24.0, 40.0, 2.0, 15.0);
        assert!(
            s.avg_goodput_mbps > 24.0 * 0.5,
            "{name}: only {:.1} Mbps of 24",
            s.avg_goodput_mbps
        );
        assert!(s.avg_owd_ms < 200.0, "{name}: delay {:.1} ms", s.avg_owd_ms);
    }
}

#[test]
fn delay_league_achieves_reasonable_utilisation() {
    for name in ["copa", "ledbat", "c2tcp", "sprout", "vivace"] {
        let s = run(name, 24.0, 40.0, 2.0, 15.0);
        assert!(
            s.avg_goodput_mbps > 24.0 * 0.35,
            "{name}: only {:.1} Mbps of 24",
            s.avg_goodput_mbps
        );
    }
}

#[test]
fn delay_based_schemes_keep_queues_short() {
    // With a deep buffer (8x BDP), loss-based schemes fill it while Vegas and
    // BBR keep delay near propagation (20 ms one-way).
    let cubic = run("cubic", 24.0, 40.0, 8.0, 20.0);
    let vegas = run("vegas", 24.0, 40.0, 8.0, 20.0);
    let bbr = run("bbr2", 24.0, 40.0, 8.0, 20.0);
    assert!(
        vegas.avg_owd_ms < cubic.avg_owd_ms * 0.6,
        "vegas {:.1} ms vs cubic {:.1} ms",
        vegas.avg_owd_ms,
        cubic.avg_owd_ms
    );
    assert!(
        bbr.avg_owd_ms < cubic.avg_owd_ms * 0.8,
        "bbr {:.1} ms vs cubic {:.1} ms",
        bbr.avg_owd_ms,
        cubic.avg_owd_ms
    );
}

#[test]
fn loss_based_schemes_fill_deep_buffers() {
    let cubic = run("cubic", 24.0, 40.0, 8.0, 20.0);
    // One-way propagation is 20 ms; Cubic should queue well beyond that.
    assert!(
        cubic.avg_owd_ms > 40.0,
        "cubic owd {:.1} ms",
        cubic.avg_owd_ms
    );
    assert!(cubic.avg_goodput_mbps > 20.0);
}

#[test]
fn westwood_survives_random_loss_better_than_newreno() {
    let mk = |name: &str| {
        let mut cfg = SimConfig::new(
            LinkModel::Constant { mbps: 48.0 },
            2_000_000,
            40.0,
            from_secs(20.0),
        );
        cfg.random_loss = 0.005;
        cfg.seed = 11;
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(build(name, 11).unwrap())]);
        sim.run(&mut NullMonitor).remove(0)
    };
    let ww = mk("westwood");
    let nr = mk("newreno");
    assert!(
        ww.avg_goodput_mbps > nr.avg_goodput_mbps * 0.9,
        "westwood {:.1} vs newreno {:.1}",
        ww.avg_goodput_mbps,
        nr.avg_goodput_mbps
    );
}

#[test]
fn hybla_ramps_faster_than_newreno_on_long_rtt() {
    // Hybla's advantage is wall-clock growth rate on long-RTT paths, which
    // shows during ramp-up (short transfers), not at steady state.
    let h = run("hybla", 48.0, 200.0, 2.0, 5.0);
    let n = run("newreno", 48.0, 200.0, 2.0, 5.0);
    assert!(
        h.avg_goodput_mbps > n.avg_goodput_mbps,
        "hybla {:.1} vs newreno {:.1}",
        h.avg_goodput_mbps,
        n.avg_goodput_mbps
    );
}

#[test]
fn cubic_vs_cubic_shares_fairly() {
    // The paper (Appendix C.2) notes even Cubic-vs-Cubic can need more than a
    // minute to approach fair share; Set II therefore runs 120 s. We do too.
    let mut cfg = SimConfig::new(
        LinkModel::Constant { mbps: 48.0 },
        480_000, // 2x BDP at 40 ms
        40.0,
        from_secs(120.0),
    );
    cfg.seed = 3;
    let mut sim = Simulation::new(
        cfg,
        vec![
            FlowConfig::at_start(build("cubic", 1).unwrap()),
            FlowConfig::at_start(build("cubic", 2).unwrap()),
        ],
    );
    let stats = sim.run(&mut NullMonitor);
    let ratio = stats[0].avg_goodput_mbps / stats[1].avg_goodput_mbps.max(0.01);
    assert!((0.4..=2.5).contains(&ratio), "cubic/cubic split {ratio:.2}");
    assert!(stats[0].avg_goodput_mbps + stats[1].avg_goodput_mbps > 40.0);
}

#[test]
fn vegas_starves_against_cubic_ledbat_yields() {
    // The well-known failure mode the paper's Set II exposes: delay-based
    // schemes get squeezed by Cubic.
    let mut cfg = SimConfig::new(
        LinkModel::Constant { mbps: 24.0 },
        480_000, // deep buffer
        40.0,
        from_secs(40.0),
    );
    cfg.seed = 5;
    let mut sim = Simulation::new(
        cfg,
        vec![
            FlowConfig::at_start(build("cubic", 1).unwrap()),
            FlowConfig::at_start(build("vegas", 2).unwrap()),
        ],
    );
    let stats = sim.run(&mut NullMonitor);
    assert!(
        stats[1].avg_goodput_mbps < stats[0].avg_goodput_mbps * 0.6,
        "vegas {:.1} should be squeezed by cubic {:.1}",
        stats[1].avg_goodput_mbps,
        stats[0].avg_goodput_mbps
    );
}

#[test]
fn schemes_track_step_capacity_changes() {
    for name in ["cubic", "bbr2", "yeah"] {
        let cfg = SimConfig::new(
            LinkModel::Step {
                before_mbps: 24.0,
                after_mbps: 96.0,
                at: from_secs(10.0),
            },
            1_000_000,
            20.0,
            from_secs(20.0),
        );
        let mut sim = Simulation::new(cfg, vec![FlowConfig::at_start(build(name, 1).unwrap())]);
        let s = sim.run(&mut NullMonitor).remove(0);
        assert!(
            s.avg_goodput_mbps > 24.0,
            "{name} should exploit the capacity jump: {:.1}",
            s.avg_goodput_mbps
        );
    }
}
