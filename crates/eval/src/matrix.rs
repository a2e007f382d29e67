//! The unified evaluation matrix: one declarative (scheme x scenario x seed)
//! farm covering every scenario family the repo knows — the Set I/II grids,
//! the Set III fault grid, the synthetic Internet profiles, the pinned Set IV
//! adversarial genomes, multi-bottleneck topologies, and intra-scheme
//! fairness scenarios — executed through the deterministic worker pool with
//! an ordered reduction.
//!
//! Before this module those comparisons lived in ~20 separate `fig*`
//! binaries with duplicated setup; a [`MatrixSpec`] replaces them with data:
//! pick contenders, pick scenarios (each a fully decoded [`EnvSpec`]), pick
//! seeds, and [`run_matrix`] produces one [`MatrixCell`] per combination
//! with power/delay/throughput/loss/Jain-fairness metrics. Per-scenario
//! scheme [`rankings`] and the serialised [`matrix_json`] report are pure
//! functions of the cells, so the emitted `EVAL_matrix.json` is
//! byte-identical at every `SAGE_THREADS` — and [`compare_to_golden`] turns
//! the report into a regression gate: any *rank inversion* against the
//! pinned golden fails outright, while per-cell metrics are held to
//! explicit tolerances.

use crate::adversary::decode;
use crate::runner::Contender;
use crate::score::{interval_scores, jain_fairness, RunScore, ScoreKind, INTERVALS};
use crate::set3::{scenario_grid, set3_env};
use crate::set4::pinned_scenarios;
use sage_collector::{rollout_with, training_envs, EnvSpec, SetKind};
use sage_netsim::aqm::AqmKind;
use sage_netsim::faults::FaultPlan;
use sage_netsim::internet::InternetProfile;
use sage_netsim::link::LinkModel;
use sage_netsim::time::from_secs;
use sage_netsim::topology::Topology;
use sage_util::{Fnv64, Json, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which scenario family a matrix cell belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Set I single-flow throughput/delay grids (flat + capacity steps).
    SetI,
    /// Set II TCP-friendliness grids (one Cubic competitor).
    SetII,
    /// Set III fault-injection grid.
    Fault,
    /// Synthetic Internet profiles (intra/inter-continental, cellular).
    Internet,
    /// Pinned Set IV adversarial genomes.
    Adversarial,
    /// Multi-bottleneck parking-lot / dumbbell-chain topologies.
    MultiHop,
    /// Intra-scheme fairness: N flows of the same scheme share a bottleneck.
    Fairness,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::SetI => "set1",
            Family::SetII => "set2",
            Family::Fault => "fault",
            Family::Internet => "internet",
            Family::Adversarial => "adversarial",
            Family::MultiHop => "multihop",
            Family::Fairness => "fairness",
        }
    }
}

/// One column of the matrix: a named scenario family plus its fully decoded
/// environment. The environment is data, not code — two specs with equal
/// envs produce bit-identical cells.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    pub family: Family,
    pub env: EnvSpec,
}

impl ScenarioSpec {
    /// Scenario identifier (the environment id).
    pub fn id(&self) -> &str {
        &self.env.id
    }

    /// Wrap a classic Set I/II environment, inferring the family.
    pub fn from_env(env: EnvSpec) -> ScenarioSpec {
        let family = match env.set {
            SetKind::SetI => Family::SetI,
            SetKind::SetII => Family::SetII,
        };
        ScenarioSpec { family, env }
    }
}

/// Set I/II scenarios: a seeded subsample of the canonical grids.
pub fn scenarios_set12(n_set1: usize, n_set2: usize, secs: f64, seed: u64) -> Vec<ScenarioSpec> {
    training_envs(n_set1, n_set2, secs, seed)
        .into_iter()
        .map(ScenarioSpec::from_env)
        .collect()
}

/// Set III fault scenarios. `ids` filters the grid (`None` = the full grid,
/// clean baseline included).
pub fn scenarios_fault(ids: Option<&[&str]>, secs: f64) -> Vec<ScenarioSpec> {
    scenario_grid()
        .into_iter()
        .filter(|s| ids.is_none_or(|ids| ids.contains(&s.id)))
        .map(|s| ScenarioSpec {
            family: Family::Fault,
            env: set3_env(&s, secs),
        })
        .collect()
}

/// Internet-profile scenarios: `n_each` sampled paths per profile
/// (intra-continental, inter-continental, cellular), seeded like `fig08`.
pub fn scenarios_internet(n_each: usize, secs: f64, seed: u64) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    for profile in [
        InternetProfile::IntraContinental,
        InternetProfile::InterContinental,
        InternetProfile::Cellular,
    ] {
        let mut rng = Rng::new(seed ^ 0xF18);
        for i in 0..n_each {
            let s = profile.sample(&mut rng, from_secs(secs));
            out.push(ScenarioSpec {
                family: Family::Internet,
                env: EnvSpec {
                    id: format!("{}-{}-{}", profile.name(), i, s.label),
                    set: SetKind::SetI,
                    link: s.link.clone(),
                    rtt_ms: s.rtt_ms,
                    buffer_bytes: s.buffer_bytes,
                    aqm: AqmKind::TailDrop,
                    random_loss: s.random_loss,
                    duration: from_secs(secs),
                    competing_cubic: 0,
                    test_flow_start: 0,
                    capacity_mbps: s.link.mean_mbps(from_secs(secs)),
                    seed: seed + i as u64,
                    faults: FaultPlan::default(),
                    topology: Topology::single(),
                    self_flows: 1,
                    self_stagger: 0,
                },
            });
        }
    }
    out
}

/// The pinned Set IV adversarial genomes, decoded at `secs`.
pub fn scenarios_adversarial(secs: f64) -> Vec<ScenarioSpec> {
    pinned_scenarios()
        .iter()
        .map(|p| ScenarioSpec {
            family: Family::Adversarial,
            env: decode(&p.genome, secs),
        })
        .collect()
}

fn multihop_env(
    id: &str,
    base_mbps: f64,
    rtt_ms: f64,
    topology: Topology,
    competing_cubic: usize,
    secs: f64,
) -> EnvSpec {
    let bdp = (base_mbps * 1e6 / 8.0 * rtt_ms / 1e3).max(3000.0) as u64;
    EnvSpec {
        id: id.to_string(),
        set: SetKind::SetI,
        link: LinkModel::Constant { mbps: base_mbps },
        rtt_ms,
        buffer_bytes: bdp * 2,
        aqm: AqmKind::TailDrop,
        random_loss: 0.0,
        duration: from_secs(secs),
        competing_cubic,
        test_flow_start: 0,
        capacity_mbps: topology.min_capacity_mbps(base_mbps),
        seed: 0x4D48, // "MH"
        faults: FaultPlan::default(),
        topology,
        self_flows: 1,
        self_stagger: 0,
    }
}

/// Multi-bottleneck scenarios: a classic dumbbell (first hop stays the
/// bottleneck), a downstream-tightening parking lot, and a parking lot with
/// Cubic cross traffic at the first hop.
pub fn scenarios_multihop(secs: f64) -> Vec<ScenarioSpec> {
    let bdp48 = (48.0 * 1e6 / 8.0 * 40.0 / 1e3) as u64;
    vec![
        ScenarioSpec {
            family: Family::MultiHop,
            env: multihop_env(
                "mh-dumbbell-2",
                48.0,
                40.0,
                Topology::dumbbell_chain(48.0, 2, 1.25, bdp48 * 2, 2.0),
                0,
                secs,
            ),
        },
        ScenarioSpec {
            family: Family::MultiHop,
            env: multihop_env(
                "mh-parking-3",
                96.0,
                40.0,
                Topology::parking_lot(96.0, 3, 0.75, bdp48 * 2, 2.0),
                0,
                secs,
            ),
        },
        ScenarioSpec {
            family: Family::MultiHop,
            env: multihop_env(
                "mh-parking-cross",
                72.0,
                30.0,
                Topology::parking_lot(72.0, 2, 0.8, bdp48 * 2, 2.0),
                2,
                secs,
            ),
        },
    ]
}

/// Intra-scheme fairness scenario (Fig. 18 setting): `flows` flows of the
/// scheme under test join a 72 Mbit/s / 40 ms bottleneck, one every
/// `stagger_secs`.
pub fn scenario_fairness(flows: usize, secs: f64, stagger_secs: f64) -> ScenarioSpec {
    ScenarioSpec {
        family: Family::Fairness,
        env: EnvSpec {
            id: format!("fair-{flows}flow"),
            set: SetKind::SetI,
            link: LinkModel::Constant { mbps: 72.0 },
            rtt_ms: 40.0,
            buffer_bytes: 360_000,
            aqm: AqmKind::TailDrop,
            random_loss: 0.0,
            duration: from_secs(secs),
            competing_cubic: 0,
            test_flow_start: 0,
            capacity_mbps: 72.0,
            seed: 18,
            faults: FaultPlan::default(),
            topology: Topology::single(),
            self_flows: flows,
            self_stagger: from_secs(stagger_secs),
        },
    }
}

/// The declarative matrix: contenders x scenarios x seeds.
#[derive(Clone)]
pub struct MatrixSpec {
    pub schemes: Vec<Contender>,
    pub scenarios: Vec<ScenarioSpec>,
    pub seeds: Vec<u64>,
    /// Power exponent for the per-interval scores.
    pub alpha: f64,
    /// Worker count (`0` = `SAGE_THREADS` / available parallelism).
    pub threads: usize,
}

/// One completed (scheme, scenario, seed) cell.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    pub scheme: String,
    pub scenario: String,
    pub family: Family,
    pub seed: u64,
    /// The rollout finished without panicking.
    pub completed: bool,
    /// Completed and delivered at least one packet.
    pub survived: bool,
    pub kind: ScoreKind,
    /// Per-interval scores at the spec's alpha (Power) or the friendliness
    /// distance (Set II).
    pub intervals: Vec<f64>,
    /// Set I-style cells also carry the alpha=3 Power variant (Tables 2/3).
    pub intervals_alpha3: Vec<f64>,
    /// Mean of `intervals` — the ranking key.
    pub score: f64,
    pub goodput_mbps: f64,
    pub avg_owd_ms: f64,
    pub p95_owd_ms: f64,
    /// Lost fraction of all transmissions, percent.
    pub loss_pct: f64,
    /// Retransmitted fraction of all transmissions, percent.
    pub retx_pct: f64,
    pub restarts: u64,
    pub lost_pkts: u64,
    /// Jain fairness over all flows of the run (1.0 for single-flow cells).
    pub fairness: f64,
    /// Mean goodput of every flow in the run, Mbit/s (cross traffic and
    /// self flows included; the test flow is at its flow index).
    pub flow_goodputs: Vec<f64>,
    /// Ramp-up time series of the test flow, downsampled from its per-tick
    /// trajectory to [`SERIES_POINTS`] chunk means: `(name, values)` with
    /// names `thr_mbps`, `owd_ms`, `cwnd_pkts`. Derived purely from the
    /// cell's own rollout (never from the global obs registry), so the
    /// serialised report stays byte-identical at every thread count.
    /// Deliberately not folded into [`MatrixCell::digest`].
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// FNV digest over the cell's identity and metrics; folded into the
    /// report digest the cross-thread byte-identity gate compares.
    pub digest: u64,
}

/// The executed matrix: cells in (scenario-major, scheme, seed) order plus
/// the ordered digest fold.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    pub cells: Vec<MatrixCell>,
    pub digest: u64,
}

fn cell_digest(cell: &MatrixCell) -> u64 {
    let mut h = Fnv64::new();
    h.write(cell.scheme.as_bytes());
    h.write(cell.scenario.as_bytes());
    h.write(&cell.seed.to_le_bytes());
    h.write(&[cell.completed as u8, cell.survived as u8]);
    h.write(&cell.score.to_bits().to_le_bytes());
    h.write(&cell.goodput_mbps.to_bits().to_le_bytes());
    h.write(&cell.avg_owd_ms.to_bits().to_le_bytes());
    h.write(&cell.fairness.to_bits().to_le_bytes());
    for x in &cell.intervals {
        h.write(&x.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Points per exported ramp-up series (`MatrixCell::series`).
pub const SERIES_POINTS: usize = 24;

/// The one place a [`Contender`] meets an [`EnvSpec`]: build, roll out,
/// score. A panic inside the rollout yields a dead (`!completed`) cell.
pub(crate) fn run_cell(sc: &ScenarioSpec, c: &Contender, seed: u64, alpha: f64) -> MatrixCell {
    let env = &sc.env;
    let kind = match env.set {
        SetKind::SetI => ScoreKind::Power,
        SetKind::SetII => ScoreKind::Friendliness,
    };
    let mut cell = MatrixCell {
        scheme: c.name().to_string(),
        scenario: env.id.clone(),
        family: sc.family,
        seed,
        completed: false,
        survived: false,
        kind,
        intervals: vec![0.0; INTERVALS],
        intervals_alpha3: Vec::new(),
        score: 0.0,
        goodput_mbps: 0.0,
        avg_owd_ms: 0.0,
        p95_owd_ms: 0.0,
        loss_pct: 0.0,
        retx_pct: 0.0,
        restarts: 0,
        lost_pkts: 0,
        fairness: 0.0,
        flow_goodputs: Vec::new(),
        series: Vec::new(),
        digest: 0,
    };
    // The cell's flight-recorder span: the same base the rollout stamps on
    // its netsim/transport events, so `sage_trace` groups the whole cell.
    let span = sage_collector::cell_span_base(&env.id, c.name(), seed);
    sage_obs::record(
        sage_obs::Category::Eval,
        sage_obs::EventKind::CellStart,
        0,
        span,
        seed,
        0,
    );
    let run = catch_unwind(AssertUnwindSafe(|| {
        rollout_with(env, c.name(), |s| c.build(env, s), c.gr_cfg(), seed)
    }));
    if let Err(_panic) = &run {
        // Crash forensics, mirroring the supervised-collection path: mark
        // the panic, dump the per-thread event tail, flush the JSONL trace.
        sage_obs::record(
            sage_obs::Category::Eval,
            sage_obs::EventKind::Panic,
            0,
            span,
            seed,
            0,
        );
        let _ = sage_obs::dump_postmortem(&sage_obs::recorder::panic_dump_path(), 256);
        sage_obs::flush_trace();
    }
    if let Ok(res) = run {
        let s = &res.stats;
        cell.completed = true;
        cell.survived = s.delivered_bytes > 0;
        cell.intervals = interval_scores(
            &res.traj.thr,
            &res.traj.owd,
            kind,
            alpha,
            env.fair_share_bps(),
        );
        if kind == ScoreKind::Power {
            cell.intervals_alpha3 = interval_scores(
                &res.traj.thr,
                &res.traj.owd,
                ScoreKind::Power,
                3.0,
                env.fair_share_bps(),
            );
        }
        cell.score = cell.intervals.iter().sum::<f64>() / cell.intervals.len().max(1) as f64;
        cell.goodput_mbps = s.avg_goodput_mbps;
        cell.avg_owd_ms = s.avg_owd_ms;
        cell.p95_owd_ms = s.p95_owd_ms;
        let transmissions = s.sent_pkts + s.retx_pkts;
        if transmissions > 0 {
            cell.loss_pct = s.lost_pkts as f64 / transmissions as f64 * 100.0;
            cell.retx_pct = s.retx_pkts as f64 / transmissions as f64 * 100.0;
        }
        cell.restarts = s.restarts;
        cell.lost_pkts = s.lost_pkts;
        cell.flow_goodputs = res.all_stats.iter().map(|f| f.avg_goodput_mbps).collect();
        cell.fairness = jain_fairness(&cell.flow_goodputs);
        let ds = |xs: &[f32], scale: f64| -> Vec<f64> {
            sage_util::downsample_mean(xs, SERIES_POINTS)
                .into_iter()
                .map(|v| v * scale)
                .collect()
        };
        cell.series = vec![
            ("thr_mbps", ds(&res.traj.thr, 1e-6)),
            ("owd_ms", ds(&res.traj.owd, 1e3)),
            ("cwnd_pkts", ds(&res.traj.cwnd, 1.0)),
        ];
    }
    cell.digest = cell_digest(&cell);
    sage_obs::record(
        sage_obs::Category::Eval,
        sage_obs::EventKind::CellEnd,
        cell.intervals.len() as u64,
        span,
        seed,
        cell.survived as u64,
    );
    cell
}

/// Execute the matrix: every (scenario, scheme, seed) cell is an independent
/// deterministic task fanned out through `par_map_range` with an ordered
/// reduction, so the returned cells — and the serialised report — are
/// byte-identical at every thread count. A contender that panics inside a
/// scenario yields a dead cell rather than aborting the run.
pub fn run_matrix(
    spec: &MatrixSpec,
    mut progress: impl FnMut(usize, usize) + Send,
) -> MatrixReport {
    let (n_ch, n_sd) = (spec.schemes.len(), spec.seeds.len());
    let total = spec.scenarios.len() * n_ch * n_sd;
    let done = std::sync::atomic::AtomicUsize::new(0);
    let progress = std::sync::Mutex::new(&mut progress);
    let cells = sage_util::par_map_range(spec.threads, total, |task| {
        let si = task / (n_ch * n_sd);
        let ci = (task / n_sd) % n_ch;
        let ki = task % n_sd;
        let cell = run_cell(
            &spec.scenarios[si],
            &spec.schemes[ci],
            spec.seeds[ki],
            spec.alpha,
        );
        sage_obs::obs_counter!("matrix.cells").inc();
        let n = 1 + done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (progress.lock().unwrap_or_else(|e| e.into_inner()))(n, total);
        cell
    });
    let mut h = Fnv64::new();
    for c in &cells {
        h.write(&c.digest.to_le_bytes());
    }
    MatrixReport {
        cells,
        digest: h.finish(),
    }
}

/// One scenario's scheme ranking: schemes best-first (higher mean Power, or
/// lower friendliness distance, wins; dead cells rank last; ties break by
/// scheme name so the order is total and deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRank {
    pub scenario: String,
    pub family: Family,
    pub order: Vec<String>,
    /// Mean score per scheme over the seeds, aligned with `order`.
    pub scores: Vec<f64>,
}

/// Per-scenario scheme rankings derived from the cells. Pure: equal cells
/// give equal rankings at any thread count.
pub fn rankings(cells: &[MatrixCell]) -> Vec<ScenarioRank> {
    let mut out: Vec<ScenarioRank> = Vec::new();
    for cell in cells {
        if !out.iter().any(|r| r.scenario == cell.scenario) {
            out.push(ScenarioRank {
                scenario: cell.scenario.clone(),
                family: cell.family,
                order: Vec::new(),
                scores: Vec::new(),
            });
        }
    }
    for rank in &mut out {
        // (scheme, mean score over seeds, any seed survived, kind)
        let mut rows: Vec<(String, f64, bool, ScoreKind)> = Vec::new();
        for cell in cells.iter().filter(|c| c.scenario == rank.scenario) {
            match rows.iter_mut().find(|r| r.0 == cell.scheme) {
                Some(row) => {
                    row.1 += cell.score;
                    row.2 |= cell.survived;
                }
                None => rows.push((cell.scheme.clone(), cell.score, cell.survived, cell.kind)),
            }
        }
        let n_seeds = cells
            .iter()
            .filter(|c| c.scenario == rank.scenario && c.scheme == rows[0].0)
            .count()
            .max(1) as f64;
        for row in &mut rows {
            row.1 /= n_seeds;
        }
        rows.sort_by(|a, b| {
            b.2.cmp(&a.2) // survivors first
                .then_with(|| match a.3 {
                    ScoreKind::Power => b.1.total_cmp(&a.1),
                    ScoreKind::Friendliness => a.1.total_cmp(&b.1),
                })
                .then_with(|| a.0.cmp(&b.0))
        });
        rank.order = rows.iter().map(|r| r.0.clone()).collect();
        rank.scores = rows.iter().map(|r| r.1).collect();
    }
    out
}

/// Extract league-style [`RunScore`]s for one family from the cells
/// (`alpha3 = true` swaps in the alpha=3 Power intervals of Set I cells).
/// A dead cell scores the worst value of its kind in every interval — Power
/// has a floor of 0, a friendliness distance has no ceiling — so a crashed
/// contender can never be a winner.
pub fn league_scores(cells: &[MatrixCell], family: Family, alpha3: bool) -> Vec<RunScore> {
    cells
        .iter()
        .filter(|c| c.family == family)
        .map(|c| RunScore {
            scheme: c.scheme.clone(),
            env_id: c.scenario.clone(),
            kind: c.kind,
            intervals: if !c.completed {
                let worst = match c.kind {
                    ScoreKind::Power => 0.0,
                    ScoreKind::Friendliness => f64::INFINITY,
                };
                vec![worst; INTERVALS]
            } else if alpha3 {
                c.intervals_alpha3.clone()
            } else {
                c.intervals.clone()
            },
        })
        .collect()
}

fn cell_json(c: &MatrixCell) -> Json {
    Json::obj(vec![
        ("scheme", Json::str(c.scheme.clone())),
        ("scenario", Json::str(c.scenario.clone())),
        ("family", Json::str(c.family.name())),
        ("seed", Json::Num(c.seed as f64)),
        ("completed", Json::Bool(c.completed)),
        ("survived", Json::Bool(c.survived)),
        (
            "kind",
            Json::str(match c.kind {
                ScoreKind::Power => "power",
                ScoreKind::Friendliness => "friendliness",
            }),
        ),
        ("score", Json::Num(c.score)),
        ("intervals", Json::nums(c.intervals.iter().copied())),
        ("goodput_mbps", Json::Num(c.goodput_mbps)),
        ("avg_owd_ms", Json::Num(c.avg_owd_ms)),
        ("p95_owd_ms", Json::Num(c.p95_owd_ms)),
        ("loss_pct", Json::Num(c.loss_pct)),
        ("retx_pct", Json::Num(c.retx_pct)),
        ("restarts", Json::Num(c.restarts as f64)),
        ("fairness", Json::Num(c.fairness)),
        ("flows", Json::Num(c.flow_goodputs.len() as f64)),
        ("flow_goodputs", Json::nums(c.flow_goodputs.iter().copied())),
        (
            "series",
            Json::Obj(
                c.series
                    .iter()
                    .map(|(name, vals)| (name.to_string(), Json::nums(vals.iter().copied())))
                    .collect(),
            ),
        ),
        ("digest", Json::str(format!("{:016x}", c.digest))),
    ])
}

/// Serialise a matrix run (the payload of `EVAL_matrix.json`). Every field
/// is a deterministic function of the spec and cells, so the bytes are
/// identical at every thread count — `tests/matrix_differential.rs` compares
/// them.
pub fn matrix_json(spec: &MatrixSpec, report: &MatrixReport) -> Json {
    let ranks = rankings(&report.cells);
    let mut families: Vec<&str> = spec.scenarios.iter().map(|s| s.family.name()).collect();
    families.sort();
    families.dedup();
    Json::obj(vec![
        ("suite", Json::str("eval-matrix")),
        ("alpha", Json::Num(spec.alpha)),
        ("seeds", Json::nums(spec.seeds.iter().map(|&s| s as f64))),
        (
            "schemes",
            Json::Arr(spec.schemes.iter().map(|c| Json::str(c.name())).collect()),
        ),
        (
            "families",
            Json::Arr(families.into_iter().map(Json::str).collect()),
        ),
        (
            "scenarios",
            Json::Arr(
                spec.scenarios
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("id", Json::str(s.id())),
                            ("family", Json::str(s.family.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rankings",
            Json::Arr(
                ranks
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("scenario", Json::str(r.scenario.clone())),
                            ("family", Json::str(r.family.name())),
                            (
                                "order",
                                Json::Arr(r.order.iter().cloned().map(Json::str).collect()),
                            ),
                            ("scores", Json::nums(r.scores.iter().copied())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cells",
            Json::Arr(report.cells.iter().map(cell_json).collect()),
        ),
        (
            "counters",
            Json::obj(vec![("matrix.cells", Json::Num(report.cells.len() as f64))]),
        ),
        ("digest", Json::str(format!("{:016x}", report.digest))),
    ])
}

/// Regression tolerances for [`compare_to_golden`]. Rank inversions are
/// never tolerated; per-cell metrics may drift inside these bounds before
/// the gate demands a deliberate `SAGE_REGEN_GOLDEN=1`.
#[derive(Debug, Clone, Copy)]
pub struct MatrixTolerance {
    /// Relative score drift per cell (fraction of the golden score).
    pub score_rel: f64,
    /// Absolute score floor below which drift is ignored entirely.
    pub score_abs: f64,
    pub goodput_abs_mbps: f64,
    pub owd_abs_ms: f64,
    pub fairness_abs: f64,
}

impl Default for MatrixTolerance {
    fn default() -> Self {
        MatrixTolerance {
            score_rel: 0.20,
            score_abs: 0.05,
            goodput_abs_mbps: 2.0,
            owd_abs_ms: 8.0,
            fairness_abs: 0.05,
        }
    }
}

fn num_of(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Compare a serialised matrix report against a pinned golden. Returns the
/// list of violations (empty = gate passes):
///
/// * any difference in a scenario's scheme *ranking order* — a rank
///   inversion — is a violation with no tolerance;
/// * per-cell `score`, `goodput_mbps`, `avg_owd_ms` and `fairness` must stay
///   within `tol` of the golden values, and `survived` must match exactly;
/// * scenarios, schemes or cells missing from either side are violations.
pub fn compare_to_golden(current: &Json, golden: &Json, tol: &MatrixTolerance) -> Vec<String> {
    let mut violations = Vec::new();
    let empty: [Json; 0] = [];
    let g_ranks = golden
        .get("rankings")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let c_ranks = current
        .get("rankings")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    if g_ranks.is_empty() {
        violations.push("golden has no rankings section".to_string());
    }
    for g in g_ranks {
        let scenario = str_of(g, "scenario");
        let Some(c) = c_ranks.iter().find(|c| str_of(c, "scenario") == scenario) else {
            violations.push(format!(
                "scenario '{scenario}' missing from current rankings"
            ));
            continue;
        };
        let order = |v: &Json| -> Vec<String> {
            v.get("order")
                .and_then(Json::as_arr)
                .unwrap_or(&empty)
                .iter()
                .map(|s| s.as_str().unwrap_or("").to_string())
                .collect()
        };
        let (want, got) = (order(g), order(c));
        if want != got {
            violations.push(format!(
                "rank inversion in '{scenario}': golden {want:?} vs current {got:?}"
            ));
        }
    }
    for c in c_ranks {
        let scenario = str_of(c, "scenario");
        if !g_ranks.iter().any(|g| str_of(g, "scenario") == scenario) {
            violations.push(format!(
                "scenario '{scenario}' not in golden rankings (regen the golden)"
            ));
        }
    }

    let g_cells = golden.get("cells").and_then(Json::as_arr).unwrap_or(&empty);
    let c_cells = current
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    if g_cells.len() != c_cells.len() {
        violations.push(format!(
            "cell count changed: golden {} vs current {} (regen the golden)",
            g_cells.len(),
            c_cells.len()
        ));
    }
    for g in g_cells {
        let key = (
            str_of(g, "scheme"),
            str_of(g, "scenario"),
            num_of(g, "seed"),
        );
        let Some(c) = c_cells.iter().find(|c| {
            (
                str_of(c, "scheme"),
                str_of(c, "scenario"),
                num_of(c, "seed"),
            ) == key
        }) else {
            violations.push(format!("cell {key:?} missing from current report"));
            continue;
        };
        let id = format!("{}/{}", key.0, key.1);
        let (g_surv, c_surv) = (
            g.get("survived").and_then(Json::as_bool),
            c.get("survived").and_then(Json::as_bool),
        );
        if g_surv != c_surv {
            violations.push(format!("{id}: survival changed ({g_surv:?} -> {c_surv:?})"));
        }
        let (gs, cs) = (num_of(g, "score"), num_of(c, "score"));
        if (gs - cs).abs() > (gs.abs() * tol.score_rel).max(tol.score_abs) {
            violations.push(format!("{id}: score drifted {gs:.4} -> {cs:.4}"));
        }
        let (gg, cg) = (num_of(g, "goodput_mbps"), num_of(c, "goodput_mbps"));
        if (gg - cg).abs() > tol.goodput_abs_mbps {
            violations.push(format!("{id}: goodput drifted {gg:.2} -> {cg:.2} Mbit/s"));
        }
        let (gd, cd) = (num_of(g, "avg_owd_ms"), num_of(c, "avg_owd_ms"));
        if (gd - cd).abs() > tol.owd_abs_ms {
            violations.push(format!("{id}: delay drifted {gd:.1} -> {cd:.1} ms"));
        }
        let (gf, cf) = (num_of(g, "fairness"), num_of(c, "fairness"));
        if (gf - cf).abs() > tol.fairness_abs {
            violations.push(format!("{id}: fairness drifted {gf:.3} -> {cf:.3}"));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::league::rank_league;

    fn tiny_spec() -> MatrixSpec {
        MatrixSpec {
            schemes: vec![Contender::Heuristic("cubic"), Contender::Heuristic("vegas")],
            scenarios: {
                // 4 s: long enough for the Set II test flow (joins at 1 s
                // behind a Cubic hog) to deliver its first packets.
                let mut s = scenarios_set12(1, 1, 4.0, 21);
                s.extend(scenarios_fault(Some(&["clean"]), 4.0));
                s
            },
            seeds: vec![3],
            alpha: 2.0,
            threads: 1,
        }
    }

    #[test]
    fn matrix_runs_all_cells_in_order() {
        let spec = tiny_spec();
        let report = run_matrix(&spec, |_, _| {});
        assert_eq!(report.cells.len(), 6);
        // Scenario-major, scheme-minor order.
        assert_eq!(report.cells[0].scenario, spec.scenarios[0].env.id);
        assert_eq!(report.cells[0].scheme, "cubic");
        assert_eq!(report.cells[1].scheme, "vegas");
        assert!(report.cells.iter().all(|c| c.completed && c.survived));
        assert!(report.cells.iter().all(|c| c.goodput_mbps > 0.0));
        // Single-flow Set I cells are trivially fair.
        assert!(report
            .cells
            .iter()
            .filter(|c| c.family == Family::SetI)
            .all(|c| (c.fairness - 1.0).abs() < 1e-12));
    }

    #[test]
    fn rankings_are_total_and_best_first() {
        let spec = tiny_spec();
        let report = run_matrix(&spec, |_, _| {});
        let ranks = rankings(&report.cells);
        assert_eq!(ranks.len(), 3);
        for r in &ranks {
            assert_eq!(r.order.len(), 2);
            assert_eq!(r.scores.len(), 2);
            if r.family != Family::SetII {
                assert!(r.scores[0] >= r.scores[1], "{r:?}");
            } else {
                assert!(r.scores[0] <= r.scores[1], "friendliness ranks ascending");
            }
        }
    }

    #[test]
    fn golden_comparison_flags_rank_inversions_and_drift() {
        let spec = tiny_spec();
        let report = run_matrix(&spec, |_, _| {});
        let json = matrix_json(&spec, &report);
        let tol = MatrixTolerance::default();
        // Identity: a report always passes against itself.
        assert!(compare_to_golden(&json, &json, &tol).is_empty());

        // Seeded rank inversion: swap the first scenario's top two schemes.
        let mut golden = json.clone();
        if let Json::Obj(ref mut top) = golden {
            if let Some(Json::Arr(ranks)) = top.get_mut("rankings") {
                if let Json::Obj(ref mut r0) = ranks[0] {
                    if let Some(Json::Arr(order)) = r0.get_mut("order") {
                        order.swap(0, 1);
                    }
                }
            }
        }
        let violations = compare_to_golden(&json, &golden, &tol);
        assert!(
            violations.iter().any(|v| v.contains("rank inversion")),
            "{violations:?}"
        );
    }

    #[test]
    fn heuristic_league_runs_and_ranks() {
        let spec = tiny_spec();
        let report = run_matrix(&spec, |_, _| {});
        for family in [Family::SetI, Family::SetII] {
            let table = rank_league(&league_scores(&report.cells, family, false), 0.10);
            assert_eq!(table.len(), 2);
            assert!(table.iter().all(|e| e.cells == INTERVALS));
            assert!(table.iter().all(|e| (0.0..=1.0).contains(&e.winning_rate)));
        }
    }

    #[test]
    fn oracle_contender_wins_single_flow_power() {
        let spec = MatrixSpec {
            schemes: vec![Contender::Oracle, Contender::Heuristic("newreno")],
            scenarios: scenarios_set12(3, 0, 6.0, 33),
            ..tiny_spec()
        };
        let report = run_matrix(&spec, |_, _| {});
        let table = rank_league(&league_scores(&report.cells, Family::SetI, false), 0.10);
        // The oracle knows the BDP: it should be at or near the top.
        assert_eq!(table[0].scheme, "oracle", "table: {table:?}");
    }

    #[test]
    fn dead_cell_ranks_last_and_never_wins() {
        let mut spec = tiny_spec();
        spec.scenarios.truncate(2); // one Set I, one Set II
        let alive = run_matrix(&spec, |_, _| {});
        spec.schemes
            .insert(1, Contender::Heuristic("no-such-scheme"));
        let report = run_matrix(&spec, |_, _| {});
        let (dead, rest): (Vec<MatrixCell>, Vec<MatrixCell>) = report
            .cells
            .iter()
            .cloned()
            .partition(|c| c.scheme == "no-such-scheme");
        assert_eq!(dead.len(), 2);
        assert!(dead.iter().all(|c| !c.completed && !c.survived));
        // The crash is invisible to every other scheme's cells.
        let bits = |cells: &[MatrixCell]| -> Vec<(u64, Vec<u64>, Vec<u64>)> {
            cells
                .iter()
                .map(|c| {
                    let b = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
                    (c.digest, b(&c.intervals), b(&c.intervals_alpha3))
                })
                .collect()
        };
        assert_eq!(bits(&rest), bits(&alive.cells));
        for r in rankings(&report.cells) {
            assert_eq!(r.order.last().unwrap(), "no-such-scheme", "{r:?}");
        }
        for (family, alpha3) in [
            (Family::SetI, false),
            (Family::SetI, true),
            (Family::SetII, false),
        ] {
            let table = rank_league(&league_scores(&report.cells, family, alpha3), 0.10);
            let e = table.iter().find(|e| e.scheme == "no-such-scheme").unwrap();
            assert_eq!((e.wins, e.cells), (0, INTERVALS), "{family:?}: {table:?}");
        }
        // What `matrix_json` serialises stays finite.
        assert!(dead.iter().all(|c| c.intervals.iter().all(|x| *x == 0.0)));
    }

    #[test]
    fn scenario_constructors_cover_every_family_with_distinct_ids() {
        let mut scenarios = scenarios_set12(2, 1, 6.0, 2023);
        scenarios.extend(scenarios_fault(Some(&["clean", "blackout"]), 6.0));
        scenarios.extend(scenarios_internet(1, 6.0, 2023));
        scenarios.extend(scenarios_adversarial(6.0));
        scenarios.extend(scenarios_multihop(6.0));
        scenarios.push(scenario_fairness(4, 24.0, 5.0));
        scenarios.push(scenario_fairness(64, 12.0, 0.05));
        let mut families: Vec<&str> = scenarios.iter().map(|s| s.family.name()).collect();
        families.sort();
        families.dedup();
        assert_eq!(
            families,
            vec![
                "adversarial",
                "fairness",
                "fault",
                "internet",
                "multihop",
                "set1",
                "set2"
            ]
        );
        // Ids are unique across families.
        let mut ids: Vec<&str> = scenarios.iter().map(|s| s.id()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
