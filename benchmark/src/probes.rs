//! Direct probes: inner layers that a workload's spans cannot split from
//! outside get timed on their public API, on seeded inputs, min-of-N with
//! the coefficient of variation beside it. The probes are the same on every
//! workload, so a traced run of any workload carries the whole layer table.

use crate::stats;
use crate::workloads::{
    grid_scenarios, repo_root, seeded_dataset, seeded_model, seeded_tree, serve_cfg, ViewTable,
};
use sage_collector::Pool;
use sage_core::{ActionMode, SageModel, SagePolicy};
use sage_distill::{SymbolicModel, TreeConfig};
use sage_eval::matrix::{run_matrix, MatrixSpec};
use sage_eval::runner::Contender;
use sage_gr::{GrConfig, GrUnit, RewardParams, STATE_DIM};
use sage_netsim::faults::{FaultPlan, GilbertElliott};
use sage_netsim::link::LinkModel;
use sage_netsim::time::from_secs;
use sage_netsim::{AqmKind, BottleneckPath, EventQueue, Packet};
use sage_nn::{infer, Adam, Array, Graph};
use sage_serve::{ServeRuntime, TimerWheel};
use sage_transport::sim::{NullMonitor, TickRecord};
use sage_transport::{AckEvent, CongestionControl, FlowConfig, SimConfig, Simulation};
use sage_util::{crc32, Rng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One probe's result: the best repetition, and how much they varied.
#[derive(Debug, Clone)]
pub struct Probe {
    pub name: &'static str,
    pub value: f64,
    pub cv: f64,
    pub reps: usize,
    /// Operation count, bytes moved or sample sizes behind the number.
    pub note: String,
}

pub struct Probes {
    pub rows: Vec<Probe>,
    pub violations: Vec<String>,
    budget_s: f64,
}

const MIN_REPS: usize = 3;
const MAX_REPS: usize = 400;

impl Probes {
    /// Repeat `rep` — which returns a cost where lower is better — for this
    /// probe's share of the budget; keep the minimum.
    fn time(&mut self, name: &'static str, note: &str, mut rep: impl FnMut() -> f64) {
        let t0 = Instant::now();
        rep(); // warm-up: page in code, fill allocator pools
        let mut xs = Vec::new();
        while xs.len() < MIN_REPS
            || (t0.elapsed().as_secs_f64() < self.budget_s && xs.len() < MAX_REPS)
        {
            xs.push(rep());
        }
        self.rows.push(Probe {
            name,
            value: stats::min(&xs),
            cv: stats::cv(&xs),
            reps: xs.len(),
            note: note.to_string(),
        });
    }

    /// As [`Probes::time`], for `work / seconds` rates: the best repetition
    /// is the highest rate.
    fn rate(
        &mut self,
        name: &'static str,
        note: &str,
        work: f64,
        mut rep_secs: impl FnMut() -> f64,
    ) {
        self.time(name, note, &mut rep_secs);
        let p = self.rows.last_mut().expect("just pushed");
        p.value = work / p.value;
    }

    fn set(&mut self, name: &'static str, value: f64, note: String) {
        self.rows.push(Probe {
            name,
            value,
            cv: 0.0,
            reps: 1,
            note,
        });
    }
}

fn ns_per(t0: Instant, ops: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Probes that repeat for a share of the budget, and the seconds the
/// fixed-size ones (flow-count sweep, obs modes, loaders) take together.
const TIMED_PROBES: f64 = 26.0;
const FIXED_PROBE_SECS: f64 = 3.0;

/// Run every probe, spending about `total_s` seconds (never fewer than the
/// minimum repetitions take, about four seconds).
pub fn run_all(seed: u64, total_s: f64) -> Probes {
    let mut p = Probes {
        rows: Vec::new(),
        violations: Vec::new(),
        budget_s: ((total_s - FIXED_PROBE_SECS) / TIMED_PROBES).max(0.0),
    };
    netsim(&mut p, seed);
    transport(&mut p, seed);
    controllers(&mut p, seed);
    nn(&mut p, seed);
    core(&mut p, seed);
    artifacts(&mut p);
    distill(&mut p, seed);
    serve(&mut p, seed);
    obs(&mut p, seed);
    p
}

fn netsim(p: &mut Probes, seed: u64) {
    // A 1k-event heap in steady state: every pop schedules a successor.
    const N: u64 = 100_000;
    let mut rng = Rng::new(seed ^ 0xE7E7);
    let gaps: Vec<u64> = (0..1024).map(|_| 1 + rng.below(2_000_000) as u64).collect();
    p.time("netsim.event_ns", "schedule+pop, 1000 pending", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for (i, g) in gaps.iter().take(1000).enumerate() {
            q.schedule(*g, i as u64);
        }
        let t0 = Instant::now();
        for i in 0..N {
            let (at, ev) = q.pop().expect("heap stays full");
            q.schedule(at + gaps[(i % 1024) as usize], ev);
        }
        black_box(q.len());
        ns_per(t0, N)
    });

    p.time(
        "netsim.enqueue_complete_ns",
        "one 1500 B packet through a 48 Mbit/s tail-drop path",
        || {
            let mut path = BottleneckPath::new(
                LinkModel::Constant { mbps: 48.0 },
                1 << 30,
                AqmKind::TailDrop.build(seed),
                0.0,
                seed,
            );
            let t0 = Instant::now();
            let mut now = 0;
            for seq in 0..N {
                black_box(path.enqueue(now, Packet::new(0, seq, 1500, now)));
                now = path.next_completion().expect("packet in service");
                black_box(path.complete(now));
            }
            ns_per(t0, N)
        },
    );
}

/// Run one simulation to its end; returns nanoseconds per transmitted
/// packet and checks what a directly driven `Simulation` lets us check.
fn sim_ns_per_pkt(
    p: &mut Vec<String>,
    what: &str,
    cfg: SimConfig,
    capacity_mbps: f64,
    schemes: &[&str],
    seed: u64,
) -> f64 {
    let flows = schemes
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let cca = sage_heuristics::build(s, seed + i as u64).expect("registry scheme");
            FlowConfig::at_start(cca)
        })
        .collect();
    let mut sim = Simulation::new(cfg, flows);
    let t0 = Instant::now();
    let stats = sim.run(&mut NullMonitor);
    let ns = t0.elapsed().as_nanos() as f64;
    for (hop, c) in sim.hop_counters().iter().enumerate() {
        let accounted =
            c.dropped + c.delivered + c.backlog_packets as u64 + c.in_service_packets as u64;
        if c.enqueued != accounted {
            p.push(format!(
                "{what}: hop {hop} enqueued {} != dropped+delivered+backlog+in_service {accounted}",
                c.enqueued
            ));
        }
    }
    let goodput: f64 = stats.iter().map(|s| s.avg_goodput_mbps).sum();
    if goodput > capacity_mbps * 1.02 {
        p.push(format!(
            "{what}: goodput {goodput:.3} above link {capacity_mbps} Mbit/s"
        ));
    }
    let pkts: u64 = stats.iter().map(|s| s.sent_pkts + s.retx_pkts).sum();
    if pkts == 0 {
        p.push(format!("{what}: no packet sent"));
    }
    ns / pkts.max(1) as f64
}

fn transport(p: &mut Probes, seed: u64) {
    const SECS: f64 = 10.0;
    let clean = || {
        SimConfig::new(
            LinkModel::Constant { mbps: 48.0 },
            480_000,
            40.0,
            from_secs(SECS),
        )
    };
    let mut v = Vec::new();
    p.time(
        "transport.ns_per_pkt",
        "one cubic flow, 48 Mbit/s, 40 ms, 10 s simulated",
        || {
            sim_ns_per_pkt(
                &mut v,
                "transport.ns_per_pkt",
                clean(),
                48.0,
                &["cubic"],
                seed,
            )
        },
    );
    // ~2% stationary loss in bursts of mean length five: the retransmit,
    // RTO and SACK-accounting slow path.
    let burst = GilbertElliott {
        p_enter_bad: 0.005,
        p_leave_bad: 0.2,
        loss_good: 0.0,
        loss_bad: 0.8,
    };
    p.time(
        "transport.lossy_ns_per_pkt",
        "same link under 2% burst loss",
        || {
            let cfg = clean().with_faults(FaultPlan {
                burst_loss: Some(burst),
                ..FaultPlan::default()
            });
            sim_ns_per_pkt(
                &mut v,
                "transport.lossy_ns_per_pkt",
                cfg,
                48.0,
                &["cubic"],
                seed,
            )
        },
    );
    p.time(
        "transport.many_flow_ns_per_pkt",
        "64 cubic flows, one 96 Mbit/s bottleneck, 2 s simulated",
        || {
            let cfg = SimConfig::new(
                LinkModel::Constant { mbps: 96.0 },
                480_000,
                40.0,
                from_secs(2.0),
            );
            sim_ns_per_pkt(
                &mut v,
                "transport.many_flow_ns_per_pkt",
                cfg,
                96.0,
                &["cubic"; 64],
                seed,
            )
        },
    );
    p.violations.append(&mut v);
}

fn controllers(p: &mut Probes, seed: u64) {
    const CALLS: u64 = 2_000;
    let views = ViewTable::new(seed, 64, 16);
    let names = sage_heuristics::pool_names();
    let build_all = || -> Vec<Box<dyn CongestionControl>> {
        names
            .iter()
            .map(|n| sage_heuristics::build(n, seed).expect("pool scheme"))
            .collect()
    };
    let ops = CALLS * names.len() as u64;
    p.time(
        "heuristics.on_ack_ns",
        "mean over the 13 pool schemes",
        || {
            let mut ccas = build_all();
            let t0 = Instant::now();
            for cca in &mut ccas {
                for i in 0..CALLS {
                    let view = views.get(i, i);
                    let ack = AckEvent {
                        now: view.now,
                        newly_acked_pkts: 1 + i % 2,
                        newly_acked_bytes: 1500 * (1 + i % 2),
                        rtt_sample: Some(view.latest_rtt),
                        exited_recovery: false,
                    };
                    cca.on_ack(&ack, &view);
                }
                black_box(cca.cwnd_pkts());
            }
            ns_per(t0, ops)
        },
    );
    p.time(
        "heuristics.on_tick_ns",
        "mean over the 13 pool schemes",
        || {
            let mut ccas = build_all();
            let t0 = Instant::now();
            for cca in &mut ccas {
                for i in 0..CALLS {
                    let view = views.get(i, i);
                    cca.on_tick(view.now, &view);
                }
                black_box(cca.cwnd_pkts());
            }
            ns_per(t0, ops)
        },
    );
    p.time(
        "gr.on_tick_ns",
        "GrUnit::on_tick, default GrConfig (10/200/1000)",
        || {
            let mut gr = GrUnit::new(GrConfig::default(), RewardParams::default());
            let t0 = Instant::now();
            for i in 0..CALLS {
                let view = views.get(i, 0);
                let tick = TickRecord {
                    now: view.now,
                    goodput_bps: view.delivery_rate_bps,
                    mean_owd: view.latest_rtt / 2.0,
                    lost_bytes_delta: 0,
                    cwnd_pkts: view.cwnd_pkts,
                };
                black_box(gr.on_tick(&view, &tick));
            }
            ns_per(t0, CALLS)
        },
    );
}

fn seeded_array(rng: &mut Rng, rows: usize, cols: usize) -> Array {
    Array::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.range(-1.0, 1.0)).collect(),
    )
}

fn nn(p: &mut Probes, seed: u64) {
    let mut rng = Rng::new(seed ^ 0x4E4E);
    let b = seeded_array(&mut rng, 48, 144);
    for (name, m, reps) in [
        ("nn.matmul_gflops.b512", 512usize, 20u64),
        ("nn.matmul_gflops.b1", 1, 4_000),
    ] {
        let a = seeded_array(&mut rng, m, 48);
        let flop = 2.0 * (m * 48 * 144) as f64;
        let bytes = 8 * (m * 48 + 48 * 144 + m * 144);
        // FLOP per nanosecond is GFLOP/s.
        p.rate(
            name,
            &format!("[{m},48]x[48,144]: {flop:.0} FLOP, {bytes} B moved (computed) per call"),
            flop,
            || {
                let t0 = Instant::now();
                for _ in 0..reps {
                    black_box(infer::matmul(black_box(&a), black_box(&b)));
                }
                ns_per(t0, reps)
            },
        );
    }

    // One policy step at B=1, forward and backward through the autodiff
    // graph, as `CrrTrainer` runs it per sample and timestep.
    let mut model = seeded_model(seed);
    let x = model.prepare_input(&vec![0.1; STATE_DIM]);
    const STEPS: u64 = 20;
    p.time(
        "nn.graph_fwd_bwd_us",
        "PolicyNet::step + log_prob + backward, B=1",
        || {
            let t0 = Instant::now();
            for _ in 0..STEPS {
                let mut g = Graph::new();
                let xin = g.input(Array::row(x.clone()));
                let h = model.policy.initial_hidden(&mut g, 1);
                let (nodes, _) = model.policy.step(&mut g, &model.store, xin, h);
                let a = g.input(Array::scalar(0.3));
                let logp = model.policy.log_prob(&mut g, nodes, a);
                let loss = g.scale(logp, -1.0);
                g.backward(loss, &mut model.store);
            }
            ns_per(t0, STEPS) / 1e3
        },
    );
    let mut adam = Adam::new(3e-4);
    let params = model.store.count();
    p.time(
        "nn.adam_step_us",
        &format!("{params} policy parameters"),
        || {
            for prm in &mut model.store.params {
                prm.grad.data.fill(1e-3);
            }
            let t0 = Instant::now();
            black_box(adam.step(&mut model.store));
            ns_per(t0, 1) / 1e3
        },
    );
}

fn core(p: &mut Probes, seed: u64) {
    let model = Arc::new(seeded_model(seed));
    let mut rng = Rng::new(seed ^ 0xC0DE);
    let hidden = if model.cfg.gru > 0 {
        model.cfg.gru
    } else {
        model.cfg.enc1
    };
    for (name, rows, reps) in [
        ("core.step_infer_ns_per_row.b1", 1usize, 400u64),
        ("core.step_infer_ns_per_row.b64", 64, 20),
        ("core.step_infer_ns_per_row.b512", 512, 3),
    ] {
        let x = seeded_array(&mut rng, rows, model.cfg.input_dim());
        let h = seeded_array(&mut rng, rows, hidden);
        p.time(name, "PolicyNet::step_infer, default NetConfig", || {
            let t0 = Instant::now();
            for _ in 0..reps {
                black_box(
                    model
                        .policy
                        .step_infer(&model.store, black_box(&x), black_box(&h)),
                );
            }
            ns_per(t0, reps * rows as u64)
        });
    }

    let views = ViewTable::new(seed, 1, 64);
    const TICKS: u64 = 200;
    p.time(
        "core.policy_action_us",
        "SagePolicy::on_tick: GR + prepare_input + forward + action, B=1",
        || {
            let mut pol = SagePolicy::new(
                model.clone(),
                GrConfig::default(),
                seed,
                ActionMode::Deterministic,
            );
            let t0 = Instant::now();
            for t in 0..TICKS {
                let view = views.get(t, 0);
                pol.on_tick(view.now, &view);
                black_box(pol.cwnd_pkts());
            }
            ns_per(t0, TICKS) / 1e3
        },
    );
}

/// Loader costs of the committed artifacts. A missing artifact is an error.
fn artifacts(p: &mut Probes) {
    let model_path = repo_root().join("artifacts/sage.model");
    let pool_path = repo_root().join("artifacts/pool.bin");
    for path in [&model_path, &pool_path] {
        if !path.is_file() {
            p.violations
                .push(format!("required artifact {} is missing", path.display()));
            return;
        }
    }
    p.time("core.model_load_ms", "artifacts/sage.model", || {
        let t0 = Instant::now();
        black_box(SageModel::load_file(&model_path).expect("committed model loads"));
        ns_per(t0, 1) / 1e6
    });
    let bytes = std::fs::read(&pool_path).expect("pool artifact readable");
    let mb = bytes.len() as f64 / 1e6;
    let head = &bytes[..bytes.len().min(4 << 20)];
    let head_mb = head.len() as f64 / 1e6;
    p.rate(
        "util.crc32_mb_per_s",
        &format!("first {head_mb:.1} MB of artifacts/pool.bin"),
        head_mb,
        || {
            let t0 = Instant::now();
            black_box(crc32(black_box(head)));
            t0.elapsed().as_secs_f64()
        },
    );
    drop(bytes);
    p.rate(
        "collector.pool_load_mb_per_s",
        &format!("{mb:.1} MB: read + checksum + parse"),
        mb,
        || {
            let t0 = Instant::now();
            black_box(
                Pool::load_file(&pool_path)
                    .expect("committed pool loads")
                    .total_steps(),
            );
            t0.elapsed().as_secs_f64()
        },
    );
}

fn distill(p: &mut Probes, seed: u64) {
    let ds = seeded_dataset(seed);
    let tree = seeded_tree(seed);
    let note = format!(
        "{} nodes, depth {}, over {} seeded rows",
        tree.nodes.len(),
        tree.depth(),
        ds.len()
    );
    p.time("distill.predict_ns", &note, || {
        let t0 = Instant::now();
        for i in 0..ds.len() {
            black_box(tree.predict(black_box(ds.row(i))));
        }
        ns_per(t0, ds.len() as u64)
    });
    let mut quarter = sage_distill::Dataset::new(STATE_DIM);
    for i in 0..ds.len() / 4 {
        quarter.push(ds.row(i), ds.ys[i]);
    }
    let note = format!("{} seeded rows x {STATE_DIM} features", quarter.len());
    p.time("distill.fit_ms", &note, || {
        let t0 = Instant::now();
        black_box(SymbolicModel::fit(&quarter, &TreeConfig::default()));
        ns_per(t0, 1) / 1e6
    });
}

const BUDGET_US: f64 = 10_000.0;

fn serve(p: &mut Probes, seed: u64) {
    const FLOWS: u64 = 512;
    let model = Arc::new(seeded_model(seed));
    let new_rt = |flows: u64| {
        ServeRuntime::new(
            model.clone(),
            GrConfig::default(),
            serve_cfg(seed, flows, None),
        )
    };
    p.time(
        "serve.admit_ns",
        "512 admissions into an empty table",
        || {
            let mut rt = new_rt(FLOWS);
            let t0 = Instant::now();
            for k in 0..FLOWS {
                black_box(rt.admit(k, 0, 1));
            }
            ns_per(t0, FLOWS)
        },
    );
    p.time("serve.evict_ns", "512 evictions from a full table", || {
        let mut rt = new_rt(FLOWS);
        for k in 0..FLOWS {
            rt.admit(k, 0, 1);
        }
        let t0 = Instant::now();
        for k in 0..FLOWS {
            black_box(rt.evict(k));
        }
        ns_per(t0, FLOWS)
    });
    const TICKS: u64 = 64;
    p.time(
        "serve.wheel_ns_per_timer",
        "512 timers rescheduled every tick, 64-bucket wheel",
        || {
            let mut wheel = TimerWheel::new(64);
            for k in 0..FLOWS {
                wheel.schedule(0, k as usize, k, 0);
            }
            let t0 = Instant::now();
            for t in 0..TICKS {
                for (slot, key, gen) in wheel.expire(t) {
                    wheel.schedule(t + 1, slot, key, gen);
                }
            }
            black_box(wheel.pending());
            ns_per(t0, TICKS * FLOWS)
        },
    );

    // Largest flow count the NN tier serves inside the 10 ms monitor
    // interval, judged on the highest tick percentile the sample supports.
    let mut largest = 0.0;
    let mut notes = Vec::new();
    for flows in [64u64, 128, 256, 512, 768, 1024] {
        let views = ViewTable::new(seed, flows, 16);
        let mut rt = new_rt(flows);
        for k in 0..flows {
            rt.admit(k, 0, 1);
        }
        // At least 40 ticks, so that p75 is the weakest tail ever judged.
        let ticks = (20_000 / flows).clamp(40, 200);
        let mut us = Vec::with_capacity(ticks as usize);
        for t in 0..ticks {
            let t0 = Instant::now();
            black_box(rt.on_tick(t, &mut |k| Some(views.get(t, k))));
            us.push(ns_per(t0, 1) / 1e3);
        }
        let (pct, tail) = stats::supported_tail(&us);
        notes.push(format!("{flows}: p{pct:.0} {tail:.0} us / {ticks} ticks"));
        if tail > BUDGET_US {
            break;
        }
        largest = flows as f64;
    }
    p.set("serve.max_flows_in_budget", largest, notes.join("; "));
}

fn obs(p: &mut Probes, seed: u64) {
    const N: u64 = 200_000;
    p.time("obs.counter_inc_ns", "obs enabled", || {
        let c = sage_obs::counter("bench.probe_counter");
        let t0 = Instant::now();
        for _ in 0..N {
            black_box(c).inc();
        }
        ns_per(t0, N)
    });
    p.time("obs.hist_observe_ns", "obs enabled", || {
        let h = sage_obs::histogram("bench.probe_hist");
        let t0 = Instant::now();
        for i in 0..N {
            black_box(h).observe(i);
        }
        ns_per(t0, N)
    });

    // The observability tax on simulator work: the same matrix slice with
    // obs off, at its default (on) and with the flight recorder armed for
    // every category. Modes alternate so host drift hits all three alike.
    let spec = MatrixSpec {
        schemes: ["cubic", "bbr2", "vegas", "newreno"]
            .map(Contender::Heuristic)
            .to_vec(),
        scenarios: grid_scenarios(
            &[
                "s1-flat-bw24-rtt40-q2",
                "s1-flat-bw48-rtt20-q1",
                "s2-bw24-rtt40-q2",
            ],
            2.0,
        ),
        seeds: vec![seed],
        alpha: 2.0,
        threads: 1,
    };
    let modes: [(&str, fn()); 3] = [
        ("off", || sage_obs::force_enabled(false)),
        ("on", || {}),
        ("recorder", || sage_obs::force_record("all")),
    ];
    let mut secs = [Vec::new(), Vec::new(), Vec::new()];
    let mut digests = [0u64; 3];
    for _ in 0..MIN_REPS {
        for (i, (_, arm)) in modes.iter().enumerate() {
            arm();
            let t0 = Instant::now();
            let report = run_matrix(&spec, |_, _| {});
            secs[i].push(t0.elapsed().as_secs_f64());
            digests[i] = report.digest;
            sage_obs::force_enabled(true);
            sage_obs::force_record("off");
            sage_obs::reset_recorder();
        }
    }
    if digests.iter().any(|&d| d != digests[0]) {
        p.violations.push(format!(
            "obs modes changed the matrix digest: off {:016x}, on {:016x}, recorder {:016x}",
            digests[0], digests[1], digests[2]
        ));
    }
    let best: Vec<f64> = secs.iter().map(|s| stats::min(s)).collect();
    let note = format!(
        "{} cells x 2 s: off {:.1} ms, on {:.1} ms, recorder {:.1} ms (min of {MIN_REPS}); digests equal",
        spec.schemes.len() * spec.scenarios.len(),
        best[0] * 1e3,
        best[1] * 1e3,
        best[2] * 1e3
    );
    p.set("obs.on_over_off", best[1] / best[0], note.clone());
    p.set("obs.recorder_over_off", best[2] / best[0], note);
}
