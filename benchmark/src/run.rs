//! One run of one workload: set up several times, warm up, take the
//! workload's parts in turn, a pass of each per cycle, for the requested
//! seconds, set up several times more, and report.
//!
//! Every end-to-end time is a best-of-N at the finest grain the run has.
//! On the host this was written on a lap runs either at full speed or at
//! about half speed: something outside the VM (both vCPUs see it at the same
//! moments) switches between the two within tens of milliseconds, and how
//! much of the time it spends in the slow state changes over minutes, with
//! slow stretches of up to half a minute. Contention only ever adds time. A
//! pass is a fixed sequence of laps (a tick, a train step, a matrix cell,
//! ...) and the same lap does the same work in every pass, so the run keeps
//! each lap's fastest time over its passes and adds those up: `wall_s` is
//! the cycle as it runs when nothing interferes. A lap's best is wrong only
//! if the lap never ran in the fast state, which is a matter of how long the
//! window is that its samples come from, not of how many there are; that is
//! why the parts of `layers` alternate inside one long run instead of each
//! having a short run of its own (numbers and method in the README).
//!
//! The passes are the same in an untraced and a traced run: every pass
//! records its spans, and its laps are read off them. An untraced run
//! spends all its seconds on cycles and reports the end-to-end metrics; a
//! traced run spends half on cycles and half on the direct probes, reports
//! the per-layer metrics and hands the spans back to be written out.

use crate::ledger::{END_TO_END, PER_LAYER};
use crate::probes::{self, Probe};
use crate::span::{self, Clock, Span, Tracer};
use crate::stats;
use crate::workloads::{self, Part, Parts, PassOut, Scale};
use sage_util::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping: digests, quartiles, probe notes.
    pub detail: Json,
    pub spans: Vec<Span>,
}

impl RunResult {
    /// The line the benchmark contract asks for.
    pub fn result_line(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value, unit)| {
                            let m = Json::obj(vec![
                                ("value", Json::Num(value)),
                                ("unit", Json::str(unit)),
                            ]);
                            (name.to_string(), m)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Set-up is repeated, before the passes and again after them, until both
/// limits are met each time: a millisecond set-up is the best of hundreds,
/// a heavy one the best of six, and the two rounds are a run apart in time.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 0.25;

/// One round of set-ups of every part of the workload; returns the last
/// set built.
fn setup_round(a: &Args, times_s: &mut Vec<f64>) -> Result<Parts, String> {
    let t_round = Instant::now();
    let mut reps = 0;
    loop {
        let t0 = Instant::now();
        let parts = workloads::setup(&a.workload, a.seed, a.scale)?;
        times_s.push(t0.elapsed().as_secs_f64());
        reps += 1;
        if reps >= SETUP_MIN_REPS && t_round.elapsed().as_secs_f64() >= SETUP_MIN_SECS {
            return Ok(parts);
        }
    }
}

/// Counters the layers already export, read around every pass.
const COUNTERS: [&str; 7] = [
    "netsim.pkts_enqueued",
    "netsim.pkts_dropped",
    "netsim.pkts_delivered",
    "transport.retx_pkts",
    "transport.rto_fired",
    "collect.steps",
    "collect.retries",
];

fn counters() -> [u64; COUNTERS.len()] {
    COUNTERS.map(|name| sage_obs::counter(name).value())
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Nanoseconds this thread has spent on a CPU (`schedstat`, first field).
fn on_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// One pass, numbered `op`; a panic inside it becomes one failed operation
/// without laps, not a dead run.
fn guarded_pass(part: &mut dyn Part, clock: Clock, op: u64) -> PassOut {
    let mut tr = Tracer::new(clock, op);
    match catch_unwind(AssertUnwindSafe(|| part.pass(&mut tr))) {
        Ok(mut out) => {
            out.set_spans(tr.spans);
            out
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            PassOut {
                attempted: 1,
                failed: 1,
                violations: vec![format!("pass panicked: {msg}")],
                ..PassOut::default()
            }
        }
    }
}

/// What a run keeps of one part: the warm-up pass (the reference every later
/// digest must match), the timed passes, and the counter deltas of each.
struct PartRun {
    name: &'static str,
    warm: PassOut,
    passes: Vec<PassOut>,
    deltas: Vec<[u64; COUNTERS.len()]>,
}

impl PartRun {
    /// The pass at its best: every lap's fastest time (microseconds) over
    /// the part's passes. A pass that panicked has no laps and is left out;
    /// with no complete pass at all the laps are `NaN`, never a silent 0.
    fn best_laps(&self) -> Vec<f64> {
        let laps = self.passes.iter().map(|p| p.laps_us.len()).max();
        let laps = laps.unwrap_or(0);
        if laps == 0 {
            return vec![f64::NAN];
        }
        let mut best = vec![f64::INFINITY; laps];
        for p in self.passes.iter().filter(|p| p.laps_us.len() == laps) {
            for (b, &lap) in best.iter_mut().zip(&p.laps_us) {
                *b = b.min(lap);
            }
        }
        best
    }

    /// Seconds of the best laps called `lap`.
    fn best_s(&self, best: &[f64], lap: &str) -> f64 {
        span::leaves(&self.passes[0].spans)
            .zip(best)
            .filter(|(s, _)| s.name == lap)
            .map(|(_, &us)| us)
            .sum::<f64>()
            / 1e6
    }
}

/// `schedstat` is brought up to date on scheduler ticks, so two readings
/// can be off by a few milliseconds each.
const SCHED_SLACK_NS: f64 = 20e6;

pub fn run(a: &Args) -> Result<RunResult, String> {
    if !sage_obs::enabled() {
        return Err("the obs stack is disabled (SAGE_OBS); its counters are required".into());
    }
    let mut notes: Vec<(&'static str, Json)> = Vec::new();

    let mut setup_s = Vec::new();
    let mut parts = setup_round(a, &mut setup_s)?;

    // Warm-up cycle: untimed.
    let clock = Clock::start();
    let mut runs: Vec<PartRun> = parts
        .iter_mut()
        .map(|(name, part)| PartRun {
            name,
            warm: guarded_pass(part.as_mut(), clock, 0),
            passes: Vec::new(),
            deltas: Vec::new(),
        })
        .collect();
    let mut violations: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in &runs {
        attempted += r.warm.attempted;
        failed += r.warm.failed;
        violations.extend(r.warm.violations.iter().map(|v| format!("{}: {v}", r.name)));
    }

    // Cycles: one pass of every part in turn, so that the passes of each
    // part are spread over the whole run.
    let pass_budget = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let mut cycles = 0u64;
    let cpu0 = on_cpu_ns();
    let t_run = Instant::now();
    while cycles < 2 || t_run.elapsed().as_secs_f64() < pass_budget {
        for ((_, part), r) in parts.iter_mut().zip(&mut runs) {
            let before = counters();
            let out = guarded_pass(part.as_mut(), clock, cycles);
            let after = counters();
            r.deltas.push(std::array::from_fn(|i| after[i] - before[i]));
            attempted += out.attempted;
            failed += out.failed;
            violations.extend(out.violations.iter().map(|v| format!("{}: {v}", r.name)));
            if out.digest != r.warm.digest {
                failed += 1;
                violations.push(format!(
                    "{} pass {cycles} digest {:016x} differs from the first pass's {:016x}",
                    r.name, out.digest, r.warm.digest
                ));
            }
            r.passes.push(out);
        }
        cycles += 1;
    }
    let run_wall_ns = t_run.elapsed().as_nanos() as f64;
    let cpu_ns = match (cpu0, on_cpu_ns()) {
        (Some(c0), Some(c1)) => (c1 - c0) as f64,
        _ => f64::NAN,
    };
    // One thread cannot have been on a CPU for longer than the wall clock ran.
    if cpu_ns > run_wall_ns + SCHED_SLACK_NS {
        failed += 1;
        violations.push(format!(
            "{:.3} s on a CPU in {:.3} s of wall clock",
            cpu_ns / 1e9,
            run_wall_ns / 1e9
        ));
    }
    drop(parts);
    setup_round(a, &mut setup_s)?;

    for r in &runs {
        for (i, name) in COUNTERS.iter().enumerate() {
            if r.deltas.iter().any(|d| d[i] != r.deltas[0][i]) {
                failed += 1;
                violations.push(format!(
                    "{}: counter {name} did not repeat across passes",
                    r.name
                ));
            }
        }
        let simulates = matches!(r.name, "pipeline" | "sim_matrix");
        if simulates && r.deltas[0][0] == 0 {
            failed += 1;
            violations.push(format!(
                "{}: required counter netsim.pkts_enqueued did not move",
                r.name
            ));
        }
    }
    // Counters of one cycle (they repeat).
    let cycle_counters: [u64; COUNTERS.len()] =
        std::array::from_fn(|i| runs.iter().map(|r| r.deltas[0][i]).sum());

    // A cycle at its best: every part's pass at its best.
    let bests: Vec<Vec<f64>> = runs.iter().map(PartRun::best_laps).collect();
    let best_wall_s = bests.iter().flatten().sum::<f64>() / 1e6;
    // Work per second of the best laps it was done in.
    let rate = |metric: &str| -> f64 {
        let (mut work, mut secs) = (0.0, 0.0);
        for (r, best) in runs.iter().zip(&bests) {
            for rate in r.passes[0].rates.iter().filter(|x| x.metric == metric) {
                work += rate.work;
                secs += r.best_s(best, rate.lap);
            }
        }
        // No such work in this workload: missing, not infinite.
        if secs > 0.0 {
            work / secs
        } else {
            f64::NAN
        }
    };

    // Wall of every cycle: its passes' timed regions together.
    let cycle_walls: Vec<f64> = (0..cycles as usize)
        .map(|c| runs.iter().map(|r| r.passes[c].wall_s()).sum())
        .collect();

    let mut probe_rows: Vec<Probe> = Vec::new();
    let metrics: Vec<(&'static str, f64)> = if a.trace {
        let probes = probes::run_all(a.seed, a.seconds - pass_budget);
        failed += probes.violations.len() as u64;
        attempted += probes.rows.len() as u64;
        violations.extend(probes.violations.iter().cloned());
        probe_rows = probes.rows;
        let mut m = layer_metrics(
            &runs,
            &bests,
            cycle_counters,
            cpu_ns / run_wall_ns,
            &cycle_walls,
            &mut notes,
        );
        m.extend(probe_rows.iter().map(|p| (p.name, p.value)));
        m
    } else {
        vec![
            ("wall_s", best_wall_s),
            ("cells_per_s", rate("cells_per_s")),
            ("train_samples_per_s", rate("train_samples_per_s")),
            ("actions_per_s", rate("actions_per_s")),
            ("peak_rss_mb", peak_rss_mb()?),
            ("setup_s", stats::min(&setup_s)),
        ]
    };

    // Report exactly the table, in table order; a missing or non-finite
    // value is an error, never a silent zero.
    let table: Vec<(&'static str, &'static str)> = if a.trace {
        PER_LAYER.iter().map(|d| (d.name, d.unit)).collect()
    } else {
        END_TO_END.iter().map(|d| (d.name, d.unit)).collect()
    };
    let mut reported = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1);
        if !value.is_finite() {
            failed += 1;
            violations.push(format!("metric {name} is missing or not finite"));
        }
        reported.push((name, value, unit));
    }

    let hex = |d: u64| Json::str(format!("{d:016x}"));
    let part_details: Vec<(String, Json)> = runs
        .iter()
        .zip(&bests)
        .map(|(r, best)| {
            let walls: Vec<f64> = r.passes.iter().map(PassOut::wall_s).collect();
            let (q1, q3) = stats::quartiles(&walls);
            let detail = Json::obj(vec![
                ("laps_per_pass", Json::Num(best.len() as f64)),
                ("best_s", Json::Num(best.iter().sum::<f64>() / 1e6)),
                ("pass_s_min", Json::Num(stats::min(&walls))),
                ("pass_s_q1", Json::Num(q1)),
                ("pass_s_median", Json::Num(stats::median(&walls))),
                ("pass_s_q3", Json::Num(q3)),
                ("pass_s_all", Json::nums(walls.iter().copied())),
                ("digest", hex(r.warm.digest)),
                (
                    "digest_parts",
                    Json::Obj(
                        r.warm
                            .digest_parts
                            .iter()
                            .map(|(k, d)| (k.to_string(), hex(*d)))
                            .collect(),
                    ),
                ),
                (
                    "work_per_pass",
                    Json::Obj(
                        r.passes[0]
                            .rates
                            .iter()
                            .map(|x| (x.metric.to_string(), Json::Num(x.work)))
                            .collect(),
                    ),
                ),
                (
                    "counters_per_pass",
                    Json::Obj(
                        COUNTERS
                            .iter()
                            .zip(r.deltas[0])
                            .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                            .collect(),
                    ),
                ),
            ]);
            (r.name.to_string(), detail)
        })
        .collect();
    // One digest of the run: the parts' digests in order.
    let mut digest = sage_util::Fnv64::new();
    for r in &runs {
        digest.write_u64(r.warm.digest);
    }

    let (q1, q3) = stats::quartiles(&cycle_walls);
    let mut detail = vec![
        ("workload", Json::str(a.workload.as_str())),
        ("seed", Json::Num(a.seed as f64)),
        ("trace", Json::Bool(a.trace)),
        ("cycles", Json::Num(cycles as f64)),
        ("cycle_s_q1", Json::Num(q1)),
        ("cycle_s_median", Json::Num(stats::median(&cycle_walls))),
        ("cycle_s_q3", Json::Num(q3)),
        ("setup_reps", Json::Num(setup_s.len() as f64)),
        ("setup_s_median", Json::Num(stats::median(&setup_s))),
        ("digest", hex(digest.finish())),
        ("parts", Json::Obj(part_details.into_iter().collect())),
        (
            "violations",
            Json::Arr(violations.iter().map(Json::str).collect()),
        ),
        (
            "probes",
            Json::Arr(
                probe_rows
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("name", Json::str(p.name)),
                            ("value", Json::Num(p.value)),
                            ("cv", Json::Num(p.cv)),
                            ("reps", Json::Num(p.reps as f64)),
                            ("note", Json::str(p.note.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    detail.extend(notes);

    // A traced run hands back the spans of all its passes as one list, in
    // the order they ran.
    let mut spans: Vec<Span> = Vec::new();
    if a.trace {
        for c in 0..cycles as usize {
            for r in &runs {
                let base = spans.len();
                spans.extend(r.passes[c].spans.iter().map(|s| Span {
                    parent: s.parent.map(|i| i + base),
                    ..s.clone()
                }));
            }
        }
    }

    Ok(RunResult {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics: reported,
        detail: Json::obj(detail),
        spans,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median_or_0(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        stats::median(xs)
    }
}

/// The workload-derived half of the per-layer table. A layer the workload
/// does not run did no work in it: its counts and times are a measured 0.
fn layer_metrics(
    runs: &[PartRun],
    bests: &[Vec<f64>],
    counters: [u64; COUNTERS.len()],
    cpu_over_wall: f64,
    cycle_walls: &[f64],
    notes: &mut Vec<(&'static str, Json)>,
) -> Vec<(&'static str, f64)> {
    // Median wall of the passes that drive the simulator, per cycle.
    let sim_walls: Vec<f64> = (0..cycle_walls.len())
        .map(|c| {
            runs.iter()
                .filter(|r| matches!(r.name, "pipeline" | "sim_matrix"))
                .map(|r| r.passes[c].wall_s())
                .sum()
        })
        .collect();
    let sim_wall = stats::median(&sim_walls);
    let all_passes = || runs.iter().flat_map(|r| r.passes.iter());

    let (mut root_ns, mut root_self_ns) = (0u64, 0u64);
    for p in all_passes() {
        let selfs = span::self_times_ns(&p.spans);
        for (s, self_ns) in p.spans.iter().zip(&selfs) {
            if s.parent.is_none() {
                root_ns += s.dur_ns();
                root_self_ns += self_ns;
            }
        }
    }

    // Median over the passes of part `part` of the time a pass spent in
    // spans called `name`, seconds; 0 where the workload has no such part.
    let stage_s = |part: &str, name: &str| -> f64 {
        let per_pass: Vec<f64> = runs
            .iter()
            .filter(|r| r.name == part)
            .flat_map(|r| r.passes.iter())
            .map(|p| span::durations_ns(&p.spans, name).iter().sum::<f64>() / 1e9)
            .collect();
        median_or_0(&per_pass)
    };
    // A part's pass at its best, seconds; 0 where the workload has no such part.
    let part_s = |part: &str| -> f64 {
        runs.iter()
            .zip(bests)
            .filter(|(r, _)| r.name == part)
            .map(|(_, best)| best.iter().sum::<f64>() / 1e6)
            .sum()
    };
    // Durations of every span called `name`, pooled over all passes.
    let pooled = |name: &str, per_ns: f64| -> Vec<f64> {
        all_passes()
            .flat_map(|p| span::durations_ns(&p.spans, name))
            .map(|ns| ns / per_ns)
            .collect()
    };
    let (rollouts, steps) = (pooled("rollout", 1e6), pooled("train_step", 1e6));
    let (cells, ranks) = (pooled("cell", 1e6), pooled("rank", 1e6));
    let collect_s = stage_s("pipeline", "collect");
    let harvest_s = stage_s("pipeline", "harvest");

    let [enq, dropped, delivered, retx, rto, collect_steps, retries] = counters.map(|v| v as f64);

    // Serving: counters of one cycle (they repeat), latencies pooled over
    // all. Where the runtime ran inside the simulator its ticks were not
    // ours to time, and the latencies are the runtime's own per-tick
    // inference latencies.
    let mut ticks_us = pooled("tick", 1e3);
    if ticks_us.is_empty() {
        ticks_us = all_passes()
            .filter_map(|p| p.serve.as_ref())
            .flat_map(|s| s.batch_latency_ns.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
    }
    let sym_ticks_us = pooled("sym_tick", 1e3);
    let tail = |xs: &[f64]| {
        if xs.is_empty() {
            (0.0, 0.0)
        } else {
            stats::supported_tail(xs)
        }
    };
    let (tail_pct, tail_us) = tail(&ticks_us);
    let (sym_tail_pct, sym_tail_us) = tail(&sym_ticks_us);
    let over_budget = ticks_us.iter().filter(|&&us| us > 10_000.0).count() as f64;
    notes.push(("tick_samples", Json::Num(ticks_us.len() as f64)));
    notes.push(("sym_tick_samples", Json::Num(sym_ticks_us.len() as f64)));
    notes.push(("sym_tick_tail_pct", Json::Num(sym_tail_pct)));
    // Serving counters of one cycle, summed over the parts that serve.
    let sv = |f: fn(&sage_serve::ServeStats) -> u64| -> f64 {
        runs.iter()
            .filter_map(|r| r.passes[0].serve.as_ref())
            .map(|s| f(s) as f64)
            .sum()
    };
    let (nn_actions, sym_actions) = (sv(|s| s.nn_actions), sv(|s| s.symbolic_actions));
    // Inference times are wall clock, so they are compared with the serve
    // stages of the cycle they come from, and the median over cycles is
    // reported.
    let per_cycle = |num: fn(&sage_serve::ServeStats) -> u64,
                     den: fn(&sage_serve::ServeStats, f64) -> f64|
     -> f64 {
        let xs: Vec<f64> = (0..cycle_walls.len())
            .filter_map(|c| {
                let (mut n, mut d) = (0.0, 0.0);
                for p in runs.iter().map(|r| &r.passes[c]) {
                    if let Some(s) = p.serve.as_ref() {
                        let serve_ns: f64 = span::durations_ns(&p.spans, "serve").iter().sum();
                        n += num(s) as f64;
                        d += den(s, serve_ns);
                    }
                }
                (d > 0.0).then_some(n / d)
            })
            .collect();
        median_or_0(&xs)
    };
    let rows: f64 = runs.iter().map(|r| r.passes[0].harvest_rows as f64).sum();
    notes.push(("harvest_rows", Json::Num(rows)));

    vec![
        (
            "trace.uncovered_share",
            ratio(root_self_ns as f64, root_ns as f64),
        ),
        ("pipeline.collect_s", collect_s),
        ("pipeline.train_s", stage_s("pipeline", "train")),
        ("pipeline.distill_s", stage_s("pipeline", "distill")),
        ("pipeline.matrix_s", stage_s("pipeline", "matrix")),
        ("pipeline.serve_s", stage_s("pipeline", "serve")),
        ("layers.sim_matrix_s", part_s("sim_matrix")),
        ("layers.train_crr_s", part_s("train_crr")),
        ("layers.serve_nn_s", part_s("serve_nn")),
        ("layers.serve_sym_s", part_s("serve_sym")),
        ("netsim.pkts_enqueued", enq),
        ("netsim.pkts_dropped", dropped),
        ("netsim.pkts_delivered", delivered),
        ("netsim.delivered_over_enqueued", ratio(delivered, enq)),
        ("netsim.pkts_per_s", ratio(enq, sim_wall)),
        ("transport.retx_share", ratio(retx, enq)),
        ("transport.rto_fired", rto),
        ("collector.rollout_ms", median_or_0(&rollouts)),
        ("collector.steps_per_s", ratio(collect_steps, collect_s)),
        ("collector.retries", retries),
        ("core.train_step_ms", median_or_0(&steps)),
        (
            "core.train_step_cv",
            if steps.len() < 2 {
                0.0
            } else {
                stats::cv(&steps)
            },
        ),
        ("eval.cell_ms_p50", median_or_0(&cells)),
        (
            "eval.cell_ms_max",
            if cells.is_empty() {
                0.0
            } else {
                stats::max(&cells)
            },
        ),
        ("eval.harvest_rows_per_s", ratio(rows, harvest_s)),
        ("eval.rank_ms", median_or_0(&ranks)),
        (
            "serve.nn_ns_per_action",
            per_cycle(|s| s.infer_nanos, |s, _| (s.nn_actions + s.audits) as f64),
        ),
        (
            "serve.sym_ns_per_action",
            per_cycle(|s| s.sym_infer_nanos, |s, _| s.symbolic_actions as f64),
        ),
        (
            "serve.infer_share",
            per_cycle(
                |s| s.infer_nanos + s.sym_infer_nanos,
                |_, serve_ns| serve_ns,
            ),
        ),
        ("serve.tick_p50_us", median_or_0(&ticks_us)),
        ("serve.tick_tail_us", tail_us),
        ("serve.tick_tail_pct", tail_pct),
        (
            "serve.budget_miss_share",
            ratio(over_budget, ticks_us.len() as f64),
        ),
        ("serve.sym_tick_p50_us", median_or_0(&sym_ticks_us)),
        ("serve.sym_tick_tail_us", sym_tail_us),
        ("serve.nn_actions", nn_actions),
        ("serve.symbolic_actions", sym_actions),
        ("serve.audits", sv(|s| s.audits)),
        ("serve.escalations", sv(|s| s.escalations)),
        ("serve.fallback_actions", sv(|s| s.fallback_actions)),
        ("serve.deferred", sv(|s| s.deferred)),
        (
            "serve.fast_path_share",
            ratio(sym_actions, nn_actions + sym_actions),
        ),
        ("host.cpu_over_wall", cpu_over_wall),
        ("host.cycle_cv", stats::cv(cycle_walls)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn smoke(workload: &str, seed: u64, trace: bool) -> RunResult {
        let args = Args {
            workload: workload.to_string(),
            seed,
            seconds: 0.05,
            trace,
            scale: Scale::SMOKE,
        };
        run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    fn detail_num(r: &RunResult, key: &str) -> f64 {
        r.detail.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    fn part<'a>(r: &'a RunResult, name: &str) -> &'a Json {
        r.detail
            .get("parts")
            .and_then(|p| p.get(name))
            .unwrap_or_else(|| panic!("no part {name} in {}", r.detail))
    }

    fn part_work(r: &RunResult, name: &str, metric: &str) -> f64 {
        part(r, name)
            .get("work_per_pass")
            .and_then(|w| w.get(metric))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn digest(r: &RunResult) -> String {
        r.detail
            .get("digest")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    }

    /// One test for everything that runs a workload: the parts share the
    /// process-wide obs counters and the installed tree, so they must not
    /// run on parallel test threads.
    #[test]
    fn smoke_scale_runs_every_workload_correctly() {
        let s = Scale::SMOKE;
        for w in WORKLOADS {
            let r = smoke(w, 7, false);
            // `correct` covers: digests equal on every pass, counters
            // repeating, goodput under capacity, no dead cell, finite values.
            assert!(r.correct, "{w}: {}", r.detail);
            assert_eq!(r.failed, 0, "{w}");
            let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
            let table: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, table, "{w}");
            assert!(
                r.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
                "{w}"
            );

            // The result line survives the repo's JSON codec and has
            // exactly the contract's keys.
            let line = r.result_line();
            let back = Json::parse(&line.to_string()).expect("result line parses");
            assert_eq!(back, line);
            let Json::Obj(keys) = &back else {
                panic!("not an object")
            };
            let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);

            // Closed-form counts. The warm-up cycle counts as attempted too.
            let cycles = detail_num(&r, "cycles") as u64;
            assert!(cycles >= 2, "{w}");
            let runs = cycles + 1;
            match w {
                "layers" => {
                    let names: Vec<&str> = match r.detail.get("parts") {
                        Some(Json::Obj(parts)) => parts.keys().map(String::as_str).collect(),
                        _ => panic!("no parts"),
                    };
                    assert_eq!(names, ["serve_nn", "serve_sym", "sim_matrix", "train_crr"]);
                    let nn = s.serve_flows * s.serve_nn_ticks;
                    let sym = s.serve_flows * s.serve_sym_ticks;
                    assert_eq!(part_work(&r, "serve_nn", "actions_per_s") as u64, nn);
                    assert_eq!(part_work(&r, "sim_matrix", "cells_per_s") as u64, 8 * 13);
                    assert_eq!(
                        part_work(&r, "train_crr", "train_samples_per_s") as u64,
                        s.train_steps * 16 * 8
                    );
                    // Actions of both tiers, cells, train steps.
                    assert_eq!(r.attempted, runs * (nn + sym + 8 * 13 + s.train_steps));
                    let laps = |p: &str| part(&r, p).get("laps_per_pass").and_then(Json::as_f64);
                    assert_eq!(laps("serve_nn"), Some(s.serve_nn_ticks as f64));
                    assert_eq!(laps("serve_sym"), Some(s.serve_sym_ticks as f64));
                    assert_eq!(laps("train_crr"), Some(s.train_steps as f64));
                    // One lap per cell and one `rank` per `run_matrix` call.
                    assert_eq!(laps("sim_matrix"), Some((8 * 13 + 2) as f64));
                }
                "pipeline" => {
                    assert_eq!(part_work(&r, "pipeline", "cells_per_s") as u64, 5 * 6);
                    assert_eq!(
                        part_work(&r, "pipeline", "train_samples_per_s") as u64,
                        s.pipe_train_steps * 16 * 8
                    );
                    let served = part_work(&r, "pipeline", "actions_per_s") as u64;
                    assert!(served > 0);
                    // 3 envs x 13 schemes, the train steps, harvest + fit,
                    // 5 schemes x 6 scenarios, and every served action.
                    let fixed = 3 * 13 + s.pipe_train_steps + 2 + 5 * 6;
                    assert_eq!(r.attempted, runs * (fixed + served));
                }
                other => panic!("untested workload {other}"),
            }
        }

        // The seed reaches the outputs: same seed, same digest; another
        // seed, another digest. Not on `pipeline`, which is one computation
        // whatever the seed (README, "What the seed reaches").
        let (a, b, c) = (
            smoke("layers", 7, false),
            smoke("layers", 7, false),
            smoke("layers", 8, false),
        );
        assert_eq!(digest(&a), digest(&b));
        let part_digest = |r: &RunResult, p: &str| {
            part(r, p)
                .get("digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        for p in ["sim_matrix", "train_crr", "serve_nn", "serve_sym"] {
            assert_ne!(part_digest(&a, p), part_digest(&c, p), "{p}");
        }
        let other_seed = smoke("pipeline", 8, true);
        assert!(other_seed.correct, "{}", other_seed.detail);

        // A traced run reports the whole per-layer table, and its stage
        // spans account for the traced pass.
        let r = smoke("pipeline", 7, true);
        assert!(r.correct, "{}", r.detail);
        assert_eq!(digest(&r), digest(&other_seed));
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        assert!(r.metrics.iter().all(|m| m.1.is_finite()));
        let stages: f64 = ["collect", "train", "distill", "matrix", "serve"]
            .iter()
            .map(|st| r.metric(&format!("pipeline.{st}_s")).expect("stage metric"))
            .sum();
        let pass_wall = detail_num(&r, "cycle_s_median");
        assert!(
            (stages / pass_wall - 1.0).abs() < 0.05,
            "{stages} vs {pass_wall}"
        );
        assert!(r.metric("trace.uncovered_share").expect("metric") < 0.05);
        assert!(r.metric("netsim.pkts_enqueued").expect("metric") > 0.0);
        assert_eq!(r.metric("layers.serve_nn_s"), Some(0.0));
        // One thread: never on a CPU for longer than the wall clock ran.
        assert!(r.metric("host.cpu_over_wall").expect("metric") < 1.05);
        assert!(!r.spans.is_empty());
        let selfs = span::self_times_ns(&r.spans);
        assert!(r
            .spans
            .iter()
            .zip(&selfs)
            .all(|(s, &own)| own <= s.dur_ns()));

        // On `layers` the parts' best passes add up to the best cycle, and
        // each tier's ticks are told apart.
        let r = smoke("layers", 7, true);
        assert!(r.correct, "{}", r.detail);
        let parts: f64 = ["sim_matrix", "train_crr", "serve_nn", "serve_sym"]
            .iter()
            .map(|p| r.metric(&format!("layers.{p}_s")).expect("part metric"))
            .sum();
        assert!(parts > 0.0 && parts <= detail_num(&r, "cycle_s_median") * 1.0001);
        assert_eq!(r.metric("pipeline.collect_s"), Some(0.0));
        assert!(r.metric("serve.tick_p50_us").expect("metric") > 0.0);
        assert!(r.metric("serve.sym_tick_p50_us").expect("metric") > 0.0);
        assert!(r.metric("serve.symbolic_actions").expect("metric") > 0.0);
        assert!(r.metric("serve.nn_actions").expect("metric") > 0.0);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let args = Args {
            workload: "nope".into(),
            seed: 1,
            seconds: 0.01,
            trace: false,
            scale: Scale::SMOKE,
        };
        assert!(run(&args).is_err());
    }
}
