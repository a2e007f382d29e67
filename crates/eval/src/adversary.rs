//! Adversarial scenario search: find where the learned policy loses.
//!
//! Sets I–III evaluate on *fixed* grids; this module searches the scenario
//! space instead. A candidate is an 18-knob genome in `[0, 1]^18` decoded
//! into an [`EnvSpec`] spanning the full netsim parameter space — link rate
//! and mid-run capacity steps, Gilbert–Elliott burst loss, jitter spikes,
//! blackout windows, link flaps, ACK compression, reordering, AQM choice,
//! Cubic cross traffic, and the multi-bottleneck [`Topology`] hops with
//! per-hop fault processes. Each candidate is scored by the *regret* of a
//! target contender (normally the learned Sage policy) against the best of
//! a heuristic roster on the same scenario; the search loop — coordinate
//! descent around the incumbent hardest scenario, interleaved with elite
//! crossover and evolutionary random restarts — climbs toward the scenarios
//! where the target loses hardest.
//!
//! Determinism contract: candidate genomes are proposed *serially* from
//! `Rng::stream(seed, counter)` streams before each parallel batch, every
//! evaluation seed is a pure function of the genome, and batches fan out
//! through `sage_util::par_map_range` with an ordered reduction — so the
//! ranked result list and its folded digest are byte-identical at every
//! `SAGE_THREADS`.

use crate::matrix::{run_cell, Family, ScenarioSpec};
use crate::runner::Contender;
use sage_collector::{EnvSpec, SetKind};
use sage_netsim::aqm::AqmKind;
use sage_netsim::faults::{FaultPlan, FlapPlan, GilbertElliott};
use sage_netsim::link::LinkModel;
use sage_netsim::time::{from_secs, Nanos, MILLIS};
use sage_netsim::topology::{HopSpec, Topology};
use sage_util::{Fnv64, Json, Rng};

/// Number of knobs in a scenario genome.
pub const GENOME_DIM: usize = 18;

fn lerp(u: f64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * u.clamp(0.0, 1.0)
}

fn log_lerp(u: f64, lo: f64, hi: f64) -> f64 {
    (lo.ln() + (hi.ln() - lo.ln()) * u.clamp(0.0, 1.0)).exp()
}

/// Stable digest of a genome: FNV-1a over the knob bit patterns. Used for
/// scenario ids, per-candidate seeds and search-level deduplication.
pub fn genome_digest(genome: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    for &g in genome {
        h.write(&g.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Decode a genome into a fully specified environment. Pure: the same
/// genome always yields the same `EnvSpec` (its seed included), so an
/// evaluation is reproducible from the genome alone.
pub fn decode(genome: &[f64], secs: f64) -> EnvSpec {
    let g = |i: usize| genome.get(i).copied().unwrap_or(0.5);
    let digest = genome_digest(genome);

    let bw = log_lerp(g(0), 12.0, 96.0);
    let rtt_ms = log_lerp(g(1), 10.0, 120.0);
    let buffer_bdp = log_lerp(g(2), 0.25, 8.0);

    // Mid-run capacity step; factors near 1 collapse to a constant link.
    let step_m = log_lerp(g(3), 0.25, 4.0);
    let (link, mean_mbps) = if (0.8..=1.25).contains(&step_m) {
        (LinkModel::Constant { mbps: bw }, bw)
    } else {
        let after = (bw * step_m).clamp(3.0, 200.0);
        (
            LinkModel::Step {
                before_mbps: bw,
                after_mbps: after,
                at: from_secs(secs / 2.0),
            },
            (bw + after) / 2.0,
        )
    };

    let bdp = |mbps: f64| (mbps * 1e6 / 8.0 * rtt_ms / 1e3).max(3000.0);
    let buffer_bytes = (bdp(bw) * buffer_bdp) as u64;

    // Fault knobs. Probabilities are squared so mass concentrates on the
    // mild end; the search raises them only when doing so buys regret.
    let ge_enter = 0.012 * g(4) * g(4);
    let burst_loss = (ge_enter > 1e-4).then(|| GilbertElliott {
        p_enter_bad: ge_enter,
        p_leave_bad: 0.1,
        loss_good: 0.0,
        loss_bad: lerp(g(5), 0.2, 0.9),
    });
    let jitter_raw = 0.02 * g(6) * g(6);
    let jitter_spike_prob = if jitter_raw > 5e-4 { jitter_raw } else { 0.0 };
    let jitter_spike_max = (lerp(g(7), 5.0, 40.0) * MILLIS as f64) as Nanos;
    let blackout_len = lerp(g(8), 0.0, 1.2);
    let blackouts = if blackout_len >= 0.1 {
        let start = lerp(g(9), 0.15, 0.7) * secs;
        vec![(from_secs(start), from_secs(start + blackout_len))]
    } else {
        Vec::new()
    };
    let flap_down = lerp(g(10), 0.0, 0.25);
    let flaps = (flap_down >= 0.02).then_some(FlapPlan {
        up_mean_s: 1.5,
        down_mean_s: flap_down,
    });
    let ack_ms = lerp(g(11), 0.0, 4.0);
    let ack_compression = if ack_ms >= 0.25 {
        (ack_ms * MILLIS as f64) as Nanos
    } else {
        0
    };
    let reorder_raw = 0.04 * g(12) * g(12);
    let reorder_prob = if reorder_raw > 1e-3 { reorder_raw } else { 0.0 };
    let faults = FaultPlan {
        burst_loss,
        reorder_prob,
        reorder_delay_min: 2 * MILLIS,
        reorder_delay_max: 12 * MILLIS,
        blackouts,
        flaps,
        jitter_spike_prob,
        jitter_spike_max,
        ack_compression,
        ..FaultPlan::default()
    };

    let aqm = match (g(13) * 5.0).min(4.0) as usize {
        0 => AqmKind::TailDrop,
        1 => AqmKind::HeadDrop,
        2 => AqmKind::CoDel,
        3 => AqmKind::Pie,
        _ => AqmKind::BoundedDelay,
    };
    let competing_cubic = (g(14) * 5.0).min(4.0) as usize;

    // Downstream hops: capacity tightens (or widens) geometrically; each
    // hop optionally carries the same burst process as the primary hop.
    let extra_hops = (g(15) * 3.0).min(2.0) as usize;
    let hop_ratio = log_lerp(g(16), 0.55, 1.3);
    let hop_burst = g(17) >= 0.5;
    let mut topology = Topology::single();
    let mut min_mbps = mean_mbps;
    for k in 1..=extra_hops {
        let hop_mbps = bw * hop_ratio.powi(k as i32);
        min_mbps = min_mbps.min(hop_mbps);
        let mut hop = HopSpec::constant(hop_mbps, (bdp(hop_mbps) * buffer_bdp) as u64, 2.0);
        if hop_burst {
            hop.faults.burst_loss = burst_loss;
        }
        topology.extra_hops.push(hop);
    }

    EnvSpec {
        id: format!("adv-{:010x}", digest & 0xFF_FFFF_FFFF),
        set: SetKind::SetI,
        link,
        rtt_ms,
        buffer_bytes,
        aqm,
        random_loss: 0.0,
        duration: from_secs(secs),
        competing_cubic,
        test_flow_start: 0,
        capacity_mbps: min_mbps,
        seed: digest,
        faults,
        topology,
        self_flows: 1,
        self_stagger: 0,
    }
}

/// The scored outcome of one candidate scenario.
#[derive(Debug, Clone)]
pub struct AdvOutcome {
    /// Scenario id (`adv-<hex>`), derived from the genome digest.
    pub id: String,
    pub genome: Vec<f64>,
    /// Normalised regret of the target vs the best roster scheme:
    /// `(best - target) / (best + target)`, in `[-1, 1]`. `1.0` when the
    /// target dies (panic or zero delivery); negative when the target wins.
    pub regret: f64,
    /// Mean interval Power of the target (0 when it died).
    pub target_score: f64,
    /// The run finished without panicking and delivered at least one packet.
    pub target_survived: bool,
    /// Best mean interval Power across the surviving roster schemes.
    pub best_score: f64,
    pub best_scheme: String,
    /// Jain fairness across all flows of the target run (1.0 single-flow).
    pub fairness: f64,
    /// Per-candidate digest over (id, regret, scores); folded into the
    /// report digest for the cross-thread byte-identity gate.
    pub digest: u64,
}

/// Evaluate one genome: target and every roster scheme roll through the
/// decoded scenario; regret is the target's shortfall against the best
/// surviving roster scheme. Deterministic given (genome, secs, alpha, seed).
pub fn evaluate_candidate(
    genome: &[f64],
    target: &Contender,
    roster: &[Contender],
    secs: f64,
    alpha: f64,
    seed: u64,
) -> AdvOutcome {
    let sc = ScenarioSpec {
        family: Family::Adversarial,
        env: decode(genome, secs),
    };
    sage_obs::obs_counter!("adv.candidates").inc();
    // A cell that panicked or delivered nothing counts as dead.
    let target_cell = run_cell(&sc, target, seed, alpha);
    let target_survived = target_cell.survived;
    let (target_score, fairness) = if target_survived {
        (target_cell.score, target_cell.fairness)
    } else {
        (0.0, 0.0)
    };
    let mut best_score = 0.0;
    let mut best_scheme = String::from("none");
    for c in roster {
        let cell = run_cell(&sc, c, seed, alpha);
        if cell.survived && cell.score > best_score {
            best_score = cell.score;
            best_scheme = cell.scheme;
        }
    }
    let regret = if !target_survived {
        1.0
    } else if best_score + target_score <= 1e-12 {
        0.0
    } else {
        ((best_score - target_score) / (best_score + target_score)).clamp(-1.0, 1.0)
    };
    let mut h = Fnv64::new();
    h.write(sc.env.id.as_bytes());
    h.write(&regret.to_bits().to_le_bytes());
    h.write(&target_score.to_bits().to_le_bytes());
    h.write(&best_score.to_bits().to_le_bytes());
    h.write(best_scheme.as_bytes());
    AdvOutcome {
        id: sc.env.id,
        genome: genome.to_vec(),
        regret,
        target_score,
        target_survived,
        best_score,
        best_scheme,
        fairness,
        digest: h.finish(),
    }
}

/// Search configuration. The defaults fit an offline run.
#[derive(Debug, Clone)]
pub struct AdvConfig {
    /// Total candidate evaluations.
    pub budget: usize,
    /// Size of the initial random population.
    pub init: usize,
    /// Candidates proposed (and evaluated in parallel) per round.
    pub batch: usize,
    /// Simulated seconds per rollout.
    pub secs: f64,
    /// Power exponent.
    pub alpha: f64,
    pub seed: u64,
    /// Worker count (`0` = `SAGE_THREADS` / available parallelism).
    pub threads: usize,
    /// How many hardest scenarios the report keeps.
    pub top_k: usize,
}

impl Default for AdvConfig {
    fn default() -> Self {
        AdvConfig {
            budget: 48,
            init: 12,
            batch: 8,
            secs: 6.0,
            alpha: 2.0,
            seed: 2023,
            threads: 0,
            top_k: 16,
        }
    }
}

/// The ranked outcome of one search run.
#[derive(Debug, Clone)]
pub struct AdvReport {
    /// All evaluated candidates, hardest first (regret descending, ties by
    /// id), truncated to `top_k`.
    pub ranked: Vec<AdvOutcome>,
    pub evaluated: usize,
    pub rounds: usize,
    /// Ordered FNV fold over the ranked per-candidate digests: the value
    /// the cross-thread differential gate compares.
    pub digest: u64,
}

fn rank(mut all: Vec<AdvOutcome>) -> Vec<AdvOutcome> {
    all.sort_by(|a, b| b.regret.total_cmp(&a.regret).then(a.id.cmp(&b.id)));
    all
}

fn random_genome(rng: &mut Rng) -> Vec<f64> {
    (0..GENOME_DIM).map(|_| rng.uniform()).collect()
}

/// Run the adversarial search. Proposal is serial (a pure function of
/// `cfg.seed` and a global candidate counter), evaluation is parallel with
/// an ordered reduction: the returned report is byte-identical at every
/// thread count.
pub fn search(
    cfg: &AdvConfig,
    target: &Contender,
    roster: &[Contender],
    mut progress: impl FnMut(usize, usize) + Send,
) -> AdvReport {
    let mut all: Vec<AdvOutcome> = Vec::new();
    let mut seen: Vec<u64> = Vec::new();
    let mut counter: u64 = 0;
    let mut rounds = 0usize;
    while all.len() < cfg.budget {
        rounds += 1;
        sage_obs::obs_counter!("adv.rounds").inc();
        let want = if all.is_empty() {
            cfg.init.clamp(1, cfg.budget)
        } else {
            cfg.batch.clamp(1, cfg.budget - all.len())
        };
        // Coordinate-descent step size shrinks as the search focuses.
        let step = 0.35 / (1.0 + 0.25 * (rounds as f64 - 1.0));
        let elite = rank(all.clone());

        // Propose serially so the batch never depends on thread schedule.
        let mut batch: Vec<Vec<f64>> = Vec::with_capacity(want);
        for slot in 0..want {
            counter += 1;
            let mut rng = Rng::stream(cfg.seed, 0xADC0_0000 ^ counter);
            let mut genome = propose(&mut rng, &elite, slot, step);
            // Dedupe against everything already evaluated or batched: a
            // duplicate wastes budget, so jitter it away (bounded retries).
            for _ in 0..4 {
                if !seen.contains(&genome_digest(&genome)) {
                    break;
                }
                let i = rng.below(GENOME_DIM);
                genome[i] = (genome[i] + rng.range(-0.2, 0.2)).clamp(0.0, 1.0);
            }
            seen.push(genome_digest(&genome));
            batch.push(genome);
        }

        let outcomes = sage_util::par_map_range(cfg.threads, batch.len(), |i| {
            evaluate_candidate(&batch[i], target, roster, cfg.secs, cfg.alpha, cfg.seed)
        });
        all.extend(outcomes);
        progress(all.len(), cfg.budget);
    }
    let evaluated = all.len();
    let mut ranked = rank(all);
    ranked.truncate(cfg.top_k);
    let mut h = Fnv64::new();
    for o in &ranked {
        h.write(&o.digest.to_le_bytes());
    }
    AdvReport {
        ranked,
        evaluated,
        rounds,
        digest: h.finish(),
    }
}

/// One proposal: random while the population is empty; afterwards the batch
/// alternates +/- coordinate perturbations of the incumbent, elite
/// crossover, and fresh random restarts.
fn propose(rng: &mut Rng, elite: &[AdvOutcome], slot: usize, step: f64) -> Vec<f64> {
    if elite.is_empty() {
        return random_genome(rng);
    }
    let best = &elite[0].genome;
    match slot % 4 {
        0 | 1 => {
            // Coordinate descent: perturb one knob of the incumbent, trying
            // both directions across the two slots.
            let mut genome = best.clone();
            let coord = rng.below(GENOME_DIM);
            let delta = rng.range(0.2, 1.0) * step;
            let signed = if slot.is_multiple_of(4) {
                delta
            } else {
                -delta
            };
            genome[coord] = (genome[coord] + signed).clamp(0.0, 1.0);
            genome
        }
        2 if elite.len() >= 2 => {
            // Uniform crossover of the two hardest scenarios found so far.
            let other = &elite[1].genome;
            (0..GENOME_DIM)
                .map(|i| if rng.chance(0.5) { best[i] } else { other[i] })
                .collect()
        }
        // Evolutionary restart: keep exploring the full space.
        _ => random_genome(rng),
    }
}

/// Human-readable summary of a decoded scenario for the report.
fn env_summary(env: &EnvSpec) -> Json {
    let f = &env.faults;
    let mut fault_tags: Vec<&str> = Vec::new();
    if f.burst_loss.is_some() {
        fault_tags.push("burst");
    }
    if !f.blackouts.is_empty() {
        fault_tags.push("blackout");
    }
    if f.flaps.is_some() {
        fault_tags.push("flaps");
    }
    if f.jitter_spike_prob > 0.0 {
        fault_tags.push("jitter");
    }
    if f.reorder_prob > 0.0 {
        fault_tags.push("reorder");
    }
    if f.ack_compression > 0 {
        fault_tags.push("ack-compress");
    }
    Json::obj(vec![
        ("link", Json::str(format!("{:?}", env.link))),
        ("rtt_ms", Json::Num(env.rtt_ms)),
        ("buffer_bytes", Json::Num(env.buffer_bytes as f64)),
        ("aqm", Json::str(format!("{:?}", env.aqm))),
        ("capacity_mbps", Json::Num(env.capacity_mbps)),
        ("cross_cubic", Json::Num(env.competing_cubic as f64)),
        ("hops", Json::Num(env.topology.hops() as f64)),
        (
            "faults",
            Json::Arr(fault_tags.into_iter().map(Json::str).collect()),
        ),
    ])
}

/// Serialise a search report (the payload of `ADV_hardest.json`). Every
/// field is a deterministic function of the run, so the serialised bytes
/// are identical at every thread count — `tests/adv_differential.rs`
/// compares them.
pub fn report_json(cfg: &AdvConfig, report: &AdvReport) -> Json {
    Json::obj(vec![
        ("suite", Json::str("adversarial-search")),
        ("seed", Json::Num(cfg.seed as f64)),
        ("budget", Json::Num(cfg.budget as f64)),
        ("duration_secs", Json::Num(cfg.secs)),
        ("alpha", Json::Num(cfg.alpha)),
        ("evaluated", Json::Num(report.evaluated as f64)),
        ("rounds", Json::Num(report.rounds as f64)),
        ("digest", Json::str(format!("{:016x}", report.digest))),
        (
            // Deterministic observability counters for this run: totals are
            // thread-count independent (unlike gauges, which are last-write
            // and must stay out of byte-compared reports).
            "counters",
            Json::obj(vec![
                ("adv.candidates", Json::Num(report.evaluated as f64)),
                ("adv.rounds", Json::Num(report.rounds as f64)),
            ]),
        ),
        (
            "hardest",
            Json::Arr(
                report
                    .ranked
                    .iter()
                    .enumerate()
                    .map(|(rank, o)| {
                        Json::obj(vec![
                            ("rank", Json::Num((rank + 1) as f64)),
                            ("id", Json::str(o.id.clone())),
                            ("regret", Json::Num(o.regret)),
                            ("target_score", Json::Num(o.target_score)),
                            ("target_survived", Json::Bool(o.target_survived)),
                            ("best_scheme", Json::str(o.best_scheme.clone())),
                            ("best_score", Json::Num(o.best_score)),
                            ("fairness", Json::Num(o.fairness)),
                            ("digest", Json::str(format!("{:016x}", o.digest))),
                            ("env", env_summary(&decode(&o.genome, cfg.secs))),
                            (
                                "genome",
                                Json::Arr(o.genome.iter().map(|&g| Json::Num(g)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_is_pure_and_spans_the_space() {
        let genome: Vec<f64> = (0..GENOME_DIM)
            .map(|i| i as f64 / GENOME_DIM as f64)
            .collect();
        let a = decode(&genome, 6.0);
        let b = decode(&genome, 6.0);
        assert_eq!(a.id, b.id);
        assert_eq!(a.seed, b.seed);
        assert_eq!(format!("{:?}", a.link), format!("{:?}", b.link));
        // Extremes decode to valid environments.
        let lo = decode(&[0.0; GENOME_DIM], 6.0);
        let hi = decode(&[1.0; GENOME_DIM], 6.0);
        assert!(lo.capacity_mbps >= 3.0 && hi.capacity_mbps >= 3.0);
        assert!(hi.topology.hops() == 3, "g15=1 decodes to 2 extra hops");
        assert!(lo.topology.is_single());
        assert!(hi.competing_cubic == 4);
        // Different genomes get different ids/seeds.
        assert_ne!(lo.id, hi.id);
    }

    #[test]
    fn boundary_genomes_decode_in_range_with_stable_ids() {
        // The decode is the contract between a stored genome (Set IV pins,
        // ADV reports) and the environment it denotes: every knob at its
        // boundary must still produce a simulable in-range EnvSpec, and the
        // digest-derived ids must never drift (a drift silently invalidates
        // every recorded baseline).
        let secs = 6.0;
        let cases = [
            ([0.0; GENOME_DIM], "adv-9a74fcae65"),
            ([0.5; GENOME_DIM], "adv-f5d69f6745"),
            ([1.0; GENOME_DIM], "adv-273b0cd8c5"),
        ];
        for (genome, id) in cases {
            let env = decode(&genome, secs);
            assert_eq!(env.id, id, "digest id drifted for genome {genome:?}");
            assert_eq!(
                env.seed & 0xFF_FFFF_FFFF,
                genome_digest(&genome) & 0xFF_FFFF_FFFF
            );
            // Knob ranges (see the lerp bounds in `decode`).
            assert!((10.0..=120.0).contains(&env.rtt_ms), "{}", env.rtt_ms);
            assert!(env.capacity_mbps >= 3.0, "{}", env.capacity_mbps);
            assert!(env.buffer_bytes >= 750, "{}", env.buffer_bytes);
            assert!((0.0..=1.0).contains(&env.faults.reorder_prob));
            assert!((0.0..=1.0).contains(&env.faults.jitter_spike_prob));
            if let Some(ge) = &env.faults.burst_loss {
                assert!((0.0..=1.0).contains(&ge.p_enter_bad));
                assert!((0.2..=0.9).contains(&ge.loss_bad));
            }
            // Blackouts stay inside the run.
            for &(start, end) in &env.faults.blackouts {
                assert!(start < end && end <= from_secs(secs + 1.3));
            }
            assert!(env.competing_cubic <= 4);
            assert!((1..=3).contains(&env.topology.hops()));
            assert_eq!(env.self_flows, 1, "decoded scenarios are single-flow");
            // Purity: decoding twice gives the same spec.
            assert_eq!(format!("{:?}", decode(&genome, secs)), format!("{env:?}"));
        }
        // The three boundary genomes decode to three distinct scenarios.
        let ids: Vec<String> = cases.iter().map(|(g, _)| decode(g, secs).id).collect();
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[2]);
    }

    #[test]
    fn regret_positive_when_target_trails() {
        // tick-aimd (the deliberately weak fallback) vs a cubic roster on a
        // clean mid-grid scenario: the target should trail the roster.
        let mut genome = vec![0.0; GENOME_DIM];
        genome[0] = 0.5; // mid bandwidth
        genome[1] = 0.4; // mid RTT
        genome[2] = 0.6; // ~1.5 BDP buffer
        genome[3] = 0.5; // constant link
        let out = evaluate_candidate(
            &genome,
            &Contender::Heuristic("tick-aimd"),
            &[Contender::Heuristic("cubic")],
            4.0,
            2.0,
            3,
        );
        assert!(out.target_survived);
        assert_eq!(out.best_scheme, "cubic");
        assert!(out.regret > 0.0, "tick-aimd should trail cubic: {out:?}");
        assert!((-1.0..=1.0).contains(&out.regret));
    }

    #[test]
    fn search_is_deterministic_and_ranked() {
        let cfg = AdvConfig {
            budget: 6,
            init: 4,
            batch: 2,
            secs: 2.0,
            top_k: 6,
            ..AdvConfig::default()
        };
        let target = Contender::Heuristic("tick-aimd");
        let roster = [Contender::Heuristic("cubic")];
        let a = search(&cfg, &target, &roster, |_, _| {});
        let b = search(&cfg, &target, &roster, |_, _| {});
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.evaluated, 6);
        assert!(a.rounds >= 2);
        // Ranked hardest-first.
        for w in a.ranked.windows(2) {
            assert!(w[0].regret >= w[1].regret);
        }
        // Byte-identical serialisation.
        assert_eq!(
            report_json(&cfg, &a).to_string(),
            report_json(&cfg, &b).to_string()
        );
    }
}
