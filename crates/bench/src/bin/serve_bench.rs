//! Serving-runtime benchmark: batched matrix inference vs the per-flow
//! graph path, across flow counts, plus an end-to-end shared-bottleneck
//! many-flow scenario.
//!
//! Three halves:
//!
//! 1. **Throughput sweep** — for each flow count N, drive identical
//!    synthetic observations through a `Batched` and a `SequentialGraph`
//!    runtime. The action traces and digests must be bit-identical (the
//!    whole point of the batched path); the bench then reports actions/sec
//!    and per-tick latency percentiles for both, and the speedup.
//! 2. **Symbolic-tier sweep** — the same flow counts served through the
//!    distilled-tree fast path (periodic NN audits on, escalation off), so
//!    the report records the fast-path throughput multiplier over the
//!    batched NN tier at each N.
//! 3. **End-to-end scenario** — N learned flows batch-served behind one
//!    bottleneck with heuristic cross traffic; reports aggregate goodput
//!    and Jain fairness across the learned flows.
//!
//! Writes `artifacts/results/BENCH_serve.json` and exits non-zero on any
//! equivalence violation, so `scripts/check.sh` can gate on it.
//!
//! Scale knobs: `SAGE_SERVE_TICKS` (sweep ticks per flow count, default
//! 20), `SAGE_SECS` (scenario seconds, default 5).

use sage_bench::{envvar, obs_metrics, write_report};
use sage_core::model::{NetConfig, SageModel};
use sage_core::ActionMode;
use sage_distill::{Dataset, SymbolicModel, TreeConfig};
use sage_eval::jain_fairness;
use sage_gr::{GrConfig, STATE_DIM};
use sage_netsim::ManyFlowScenario;
use sage_obs::obs_error;
use sage_serve::{run_many_flow, ServeConfig, ServeMode, ServeRuntime};
use sage_transport::{CaState, SocketView};
use sage_util::{Json, Rng};

const SWEEP: [u64; 4] = [16, 64, 256, 512];
const SEED: u64 = 2023;

/// Deterministic synthetic observation for flow `key` at `tick`.
fn synth_view(tick: u64, key: u64) -> SocketView {
    let mut rng = Rng::new(tick.wrapping_mul(0x9E37_79B9).wrapping_add(key) ^ 0xBE7C);
    let srtt = 0.02 + 0.02 * rng.uniform();
    SocketView {
        now: (tick + 1) * 10_000_000,
        mss: 1500,
        srtt,
        rttvar: 0.002 * rng.uniform(),
        latest_rtt: srtt * (0.9 + 0.2 * rng.uniform()),
        prev_rtt: srtt,
        min_rtt: 0.02,
        inflight_pkts: 8.0 + 8.0 * rng.uniform(),
        inflight_bytes: 12_000 + (12_000.0 * rng.uniform()) as u64,
        delivery_rate_bps: 8e6 * rng.uniform(),
        prev_delivery_rate_bps: 8e6 * rng.uniform(),
        max_delivery_rate_bps: 9e6,
        prev_max_delivery_rate_bps: 9e6,
        ca_state: CaState::Open,
        delivered_bytes_total: tick * 10_000,
        sent_bytes_total: tick * 11_000,
        lost_bytes_total: (tick / 7) * 1500,
        lost_pkts_total: tick / 7,
        cwnd_pkts: 10.0,
        ssthresh_pkts: f64::INFINITY,
    }
}

fn model() -> std::sync::Arc<SageModel> {
    std::sync::Arc::new(SageModel::new(
        NetConfig::default(),
        vec![0.0; STATE_DIM],
        vec![1.0; STATE_DIM],
        SEED,
    ))
}

/// The distilled tree the symbolic sweep serves: the real artifact when one
/// resolves (installed / `$SAGE_TREE` / `artifacts/sage.tree`), otherwise a
/// synthetic full-depth tree fitted on seeded random rows — the fast-path
/// cost only depends on tree shape, not on what the leaves predict.
fn bench_tree() -> std::sync::Arc<SymbolicModel> {
    if let Some(t) = sage_distill::resolve() {
        return t;
    }
    let mut rng = Rng::new(SEED ^ 0x7EE5);
    let mut ds = Dataset::new(STATE_DIM);
    for _ in 0..4096 {
        let x: Vec<f64> = (0..STATE_DIM).map(|_| rng.uniform() * 2.0 - 1.0).collect();
        let y = x[0] - 0.5 * x[7] + 0.25 * x[33];
        ds.push(&x, y);
    }
    std::sync::Arc::new(SymbolicModel::fit(&ds, &TreeConfig::default()))
}

struct SweepRow {
    flows: u64,
    seq_aps: f64,
    batch_aps: f64,
    speedup: f64,
    batch_p50_us: f64,
    batch_p99_us: f64,
    seq_p50_us: f64,
    seq_p99_us: f64,
    /// Per-tick ramp-up curves of the batched run (`sage_obs` time-series
    /// snapshots of every registered metric), not just end-state scalars.
    series: Json,
}

/// Drive `flows` synthetic flows for `ticks`; return (digest, action bits,
/// runtime) so callers can check cross-mode equivalence exactly.
fn drive(mode: ServeMode, flows: u64, ticks: u64) -> (u64, Vec<u64>, ServeRuntime) {
    let cfg = ServeConfig {
        mode,
        max_flows: flows as usize + 1,
        max_batch: flows as usize,
        action: ActionMode::Sample,
        seed: SEED,
        ..ServeConfig::default()
    };
    let mut rt = ServeRuntime::new(model(), GrConfig::default(), cfg);
    for k in 0..flows {
        assert!(rt.admit(k, 0, 1));
    }
    let mut trace = Vec::new();
    for t in 0..ticks {
        for a in rt.on_tick(t, &mut |k| Some(synth_view(t, k))) {
            trace.push(a.cwnd.to_bits());
        }
        sage_obs::sample_metrics(t);
    }
    let digest = rt.digest();
    (digest, trace, rt)
}

/// Drive `flows` flows entirely on the symbolic fast path (escalation
/// disabled, periodic batched NN audits at the default cadence) and return
/// the runtime for its tier stats.
fn drive_symbolic(tree: std::sync::Arc<SymbolicModel>, flows: u64, ticks: u64) -> ServeRuntime {
    let cfg = ServeConfig {
        mode: ServeMode::Batched,
        max_flows: flows as usize + 1,
        max_batch: flows as usize,
        action: ActionMode::Sample,
        seed: SEED,
        symbolic: Some(tree),
        escalate_log_ratio: f64::INFINITY,
        ..ServeConfig::default()
    };
    let mut rt = ServeRuntime::new(model(), GrConfig::default(), cfg);
    for k in 0..flows {
        assert!(rt.admit(k, 0, 1));
    }
    for t in 0..ticks {
        rt.on_tick(t, &mut |k| Some(synth_view(t, k)));
    }
    rt
}

fn main() {
    let ticks = envvar("SAGE_SERVE_TICKS", 20) as u64;
    let secs = envvar("SAGE_SECS", 5) as f64;

    println!("== serve_bench: batched vs per-flow-graph policy serving ==");
    println!(
        "net: default ({} -> GMM), ticks per sweep point: {ticks}",
        STATE_DIM
    );

    let mut rows = Vec::new();
    let mut equivalent = true;
    for &n in &SWEEP {
        let (d_seq, t_seq, rt_seq) = drive(ServeMode::SequentialGraph, n, ticks);
        // Ramp-up time series for this sweep point: the batched run samples
        // the metric registry every tick into ring-buffered series.
        sage_obs::reset_series();
        let (d_bat, t_bat, rt_bat) = drive(ServeMode::Batched, n, ticks);
        let series = sage_obs::series_json();
        let ok = d_seq == d_bat && t_seq == t_bat;
        equivalent &= ok;
        let row = SweepRow {
            flows: n,
            seq_aps: rt_seq.stats.actions_per_sec(),
            batch_aps: rt_bat.stats.actions_per_sec(),
            speedup: rt_bat.stats.actions_per_sec() / rt_seq.stats.actions_per_sec().max(1e-9),
            batch_p50_us: rt_bat.stats.latency_ns_percentile(50.0) as f64 / 1e3,
            batch_p99_us: rt_bat.stats.latency_ns_percentile(99.0) as f64 / 1e3,
            seq_p50_us: rt_seq.stats.latency_ns_percentile(50.0) as f64 / 1e3,
            seq_p99_us: rt_seq.stats.latency_ns_percentile(99.0) as f64 / 1e3,
            series,
        };
        println!(
            "N={:<4} seq {:>9.0} act/s (p50 {:>8.1}us p99 {:>8.1}us)  batched {:>9.0} act/s \
             (p50 {:>8.1}us p99 {:>8.1}us)  speedup {:>5.2}x  bitwise {}",
            row.flows,
            row.seq_aps,
            row.seq_p50_us,
            row.seq_p99_us,
            row.batch_aps,
            row.batch_p50_us,
            row.batch_p99_us,
            row.speedup,
            if ok { "identical" } else { "MISMATCH" }
        );
        rows.push(row);
    }

    // Symbolic-tier sweep: same flow counts, distilled-tree fast path.
    println!("\n== symbolic fast path (tree tier, NN audits every 16 actions) ==");
    let tree = bench_tree();
    println!(
        "tree: {} nodes / {} leaves / depth {}",
        tree.nodes.len(),
        tree.leaves(),
        tree.depth()
    );
    let mut sym_rows = Vec::new();
    for (i, &n) in SWEEP.iter().enumerate() {
        let rt = drive_symbolic(tree.clone(), n, ticks);
        let sym_aps = rt.stats.symbolic_actions_per_sec();
        let multiplier = sym_aps / rows[i].batch_aps.max(1e-9);
        println!(
            "N={:<4} symbolic {:>12.0} act/s  ({} tree actions, {} audits)  {:>6.1}x over batched NN",
            n, sym_aps, rt.stats.symbolic_actions, rt.stats.audits, multiplier
        );
        sym_rows.push((
            n,
            sym_aps,
            multiplier,
            rt.stats.symbolic_actions,
            rt.stats.audits,
        ));
    }
    let min_multiplier = sym_rows.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);

    // End-to-end: 64 learned + 4 cross-traffic flows on one bottleneck.
    let mut sc = ManyFlowScenario::shared_bottleneck(64, 4, SEED);
    sc.secs = secs;
    let report = run_many_flow(
        &sc,
        model(),
        GrConfig::default(),
        ServeConfig {
            mode: ServeMode::Batched,
            seed: SEED,
            ..ServeConfig::default()
        },
    );
    let goodputs = report.learned_goodputs();
    let learned_sum: f64 = goodputs.iter().sum();
    let jain = jain_fairness(&goodputs);
    println!("\n== end-to-end {} ==", sc.label());
    println!(
        "learned flows: {}  aggregate goodput {:.1} Mbps (link {:.1} Mbps)  Jain {:.3}",
        sc.n_learned,
        learned_sum,
        sc.total_mbps(),
        jain
    );
    println!(
        "serve: {} nn actions, {} fallback, {} evicted, inference p50 {:.1}us p99 {:.1}us, digest {:016x}",
        report.serve.nn_actions,
        report.serve.fallback_actions,
        report.serve.evicted,
        report.serve.latency_ns_percentile(50.0) as f64 / 1e3,
        report.serve.latency_ns_percentile(99.0) as f64 / 1e3,
        report.digest
    );

    let json = Json::obj(vec![
        ("suite", Json::str("serve_bench")),
        ("seed", Json::Num(SEED as f64)),
        ("ticks", Json::Num(ticks as f64)),
        (
            "sweep",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("flows", Json::Num(r.flows as f64)),
                            ("sequential_actions_per_sec", Json::Num(r.seq_aps)),
                            ("batched_actions_per_sec", Json::Num(r.batch_aps)),
                            ("speedup", Json::Num(r.speedup)),
                            ("batched_p50_us", Json::Num(r.batch_p50_us)),
                            ("batched_p99_us", Json::Num(r.batch_p99_us)),
                            ("sequential_p50_us", Json::Num(r.seq_p50_us)),
                            ("sequential_p99_us", Json::Num(r.seq_p99_us)),
                            ("series", r.series.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "symbolic_sweep",
            Json::Arr(
                sym_rows
                    .iter()
                    .map(|&(n, aps, mult, acts, audits)| {
                        Json::obj(vec![
                            ("flows", Json::Num(n as f64)),
                            ("symbolic_actions_per_sec", Json::Num(aps)),
                            ("fast_path_multiplier", Json::Num(mult)),
                            ("tree_actions", Json::Num(acts as f64)),
                            ("audits", Json::Num(audits as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("fast_path_min_multiplier", Json::Num(min_multiplier)),
        (
            "scenario",
            Json::obj(vec![
                ("label", Json::str(sc.label())),
                ("n_learned", Json::Num(sc.n_learned as f64)),
                ("m_cross", Json::Num(sc.m_cross as f64)),
                ("learned_goodput_mbps", Json::Num(learned_sum)),
                ("link_mbps", Json::Num(sc.total_mbps())),
                ("jain_fairness", Json::Num(jain)),
                ("nn_actions", Json::Num(report.serve.nn_actions as f64)),
                (
                    "fallback_actions",
                    Json::Num(report.serve.fallback_actions as f64),
                ),
                (
                    "p50_us",
                    Json::Num(report.serve.latency_ns_percentile(50.0) as f64 / 1e3),
                ),
                (
                    "p99_us",
                    Json::Num(report.serve.latency_ns_percentile(99.0) as f64 / 1e3),
                ),
                ("digest", Json::str(format!("{:016x}", report.digest))),
            ]),
        ),
        ("bitwise_equivalent", Json::Bool(equivalent)),
        ("metrics", obs_metrics()),
    ]);
    let path = write_report("BENCH_serve.json", &json);
    println!("\nreport: {}", path.display());
    sage_obs::flush_trace();

    // With the recorder armed (SAGE_RECORD), dump the merged event log so
    // `sage_trace` has a real serving artifact to index.
    if sage_obs::recording_any() {
        let flight = sage_bench::results_dir().join("FLIGHT_serve.jsonl");
        match sage_obs::dump_to_file(&flight) {
            Ok(()) => println!("flight dump: {}", flight.display()),
            Err(e) => obs_error!("flight dump {} failed: {e}", flight.display()),
        }
    }

    if !equivalent {
        obs_error!("EQUIVALENCE VIOLATION: batched and sequential paths diverged");
        std::process::exit(1);
    }
}
