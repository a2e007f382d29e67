//! Set III: the adversarial evaluation suite.
//!
//! Set I measures throughput/delay and Set II TCP-friendliness — both over
//! clean links. Set III asks the robustness question instead: what happens
//! to each scheme when the network misbehaves? Every contender runs through
//! a grid of fault scenarios (burst loss, corruption, reordering,
//! duplication, blackouts, link flaps, jitter spikes, ACK compression) and
//! is scored on survival and on degradation relative to its own clean-link
//! baseline, so schemes are compared on *robustness*, not raw speed.
//!
//! This module is the scenario grid plus views over `Family::Fault` matrix
//! cells (`matrix::scenarios_fault` turns the grid into scenarios,
//! `run_matrix` runs them); it rolls nothing out itself.

use crate::matrix::{Family, MatrixCell};
use sage_collector::EnvSpec;
use sage_netsim::faults::{FaultPlan, FlapPlan, GilbertElliott};
use sage_netsim::internet::bdp_bytes;
use sage_netsim::link::LinkModel;
use sage_netsim::time::{from_secs, MILLIS};

/// One named fault configuration of the Set III grid.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    pub id: &'static str,
    pub plan: FaultPlan,
}

/// The scenario identifier of the clean baseline every degradation is
/// measured against.
pub const CLEAN: &str = "clean";

/// The Set III fault-scenario grid. The first entry is always the clean
/// baseline.
pub fn scenario_grid() -> Vec<FaultScenario> {
    vec![
        FaultScenario {
            id: CLEAN,
            plan: FaultPlan::none(),
        },
        FaultScenario {
            id: "burst-mild",
            plan: FaultPlan {
                burst_loss: Some(GilbertElliott::mild()),
                ..FaultPlan::default()
            },
        },
        FaultScenario {
            id: "burst-harsh",
            plan: FaultPlan {
                burst_loss: Some(GilbertElliott::harsh()),
                ..FaultPlan::default()
            },
        },
        FaultScenario {
            id: "corrupt",
            plan: FaultPlan {
                corrupt_prob: 0.01,
                ..FaultPlan::default()
            },
        },
        FaultScenario {
            id: "reorder",
            plan: FaultPlan {
                reorder_prob: 0.02,
                reorder_delay_min: 2 * MILLIS,
                reorder_delay_max: 12 * MILLIS,
                ..FaultPlan::default()
            },
        },
        FaultScenario {
            id: "duplicate",
            plan: FaultPlan {
                duplicate_prob: 0.02,
                ..FaultPlan::default()
            },
        },
        FaultScenario {
            id: "blackout",
            plan: FaultPlan {
                blackouts: vec![(from_secs(3.0), from_secs(4.0))],
                ..FaultPlan::default()
            },
        },
        FaultScenario {
            id: "flaps",
            plan: FaultPlan {
                flaps: Some(FlapPlan {
                    up_mean_s: 1.5,
                    down_mean_s: 0.1,
                }),
                ..FaultPlan::default()
            },
        },
        FaultScenario {
            id: "jitter",
            plan: FaultPlan {
                jitter_spike_prob: 0.01,
                jitter_spike_max: 30 * MILLIS,
                ..FaultPlan::default()
            },
        },
        FaultScenario {
            id: "ack-compress",
            plan: FaultPlan {
                ack_compression: 2 * MILLIS,
                ..FaultPlan::default()
            },
        },
        FaultScenario {
            id: "kitchen-sink",
            plan: FaultPlan {
                burst_loss: Some(GilbertElliott::mild()),
                corrupt_prob: 0.002,
                reorder_prob: 0.01,
                reorder_delay_min: 2 * MILLIS,
                reorder_delay_max: 10 * MILLIS,
                duplicate_prob: 0.005,
                flaps: Some(FlapPlan {
                    up_mean_s: 3.0,
                    down_mean_s: 0.08,
                }),
                jitter_spike_prob: 0.005,
                jitter_spike_max: 20 * MILLIS,
                ack_compression: MILLIS,
                ..FaultPlan::default()
            },
        },
    ]
}

/// The Set III bottleneck: one mid-grid environment (48 Mbit/s, 40 ms,
/// 2 x BDP) with the scenario's fault plan attached.
pub fn set3_env(scenario: &FaultScenario, duration_secs: f64) -> EnvSpec {
    let mbps = 48.0;
    let rtt_ms = 40.0;
    let buffer_bytes = bdp_bytes(mbps, rtt_ms) * 2;
    let link = LinkModel::Constant { mbps };
    let id = format!("s3-{}", scenario.id);
    EnvSpec {
        faults: scenario.plan.clone(),
        ..EnvSpec::single_flow(id, link, rtt_ms, buffer_bytes, duration_secs, mbps, 3)
    }
}

/// Goodput drop of a fault cell against its scheme's own clean-link cell,
/// percent (0 = none). A dead cell is fully degraded; without a clean
/// baseline that moved data there is nothing to degrade from.
fn degradation_pct(cell: &MatrixCell, clean: Option<&MatrixCell>) -> f64 {
    let clean_mbps = clean.map_or(0.0, |c| c.goodput_mbps);
    if !cell.completed {
        100.0
    } else if clean_mbps > 0.0 {
        ((clean_mbps - cell.goodput_mbps) / clean_mbps * 100.0).max(0.0)
    } else {
        0.0
    }
}

/// Per-scheme summary over the fault scenarios (clean excluded): survival
/// count, worst-case and mean degradation.
#[derive(Debug, Clone)]
pub struct Set3Summary {
    pub scheme: String,
    pub scenarios: usize,
    pub survived: usize,
    pub mean_degradation_pct: f64,
    pub worst_degradation_pct: f64,
    pub mean_retx_overhead_pct: f64,
    pub restarts: u64,
}

/// Summarise the `Family::Fault` cells of a matrix run into one row per
/// scheme, sorted by mean degradation (most robust first). Each cell is
/// judged against the `s3-clean` cell of the same scheme and seed.
pub fn summarise(cells: &[MatrixCell]) -> Vec<Set3Summary> {
    let clean_id = format!("s3-{CLEAN}");
    let cells: Vec<&MatrixCell> = cells.iter().filter(|c| c.family == Family::Fault).collect();
    let mut schemes: Vec<&str> = cells.iter().map(|c| c.scheme.as_str()).collect();
    schemes.sort();
    schemes.dedup();
    let mut out: Vec<Set3Summary> = schemes
        .into_iter()
        .map(|scheme| {
            let of_scheme = || cells.iter().filter(|c| c.scheme == scheme);
            let faulty: Vec<(&MatrixCell, f64)> = of_scheme()
                .filter(|c| c.scenario != clean_id)
                .map(|&c| {
                    let clean = of_scheme()
                        .find(|k| k.scenario == clean_id && k.seed == c.seed)
                        .copied();
                    (c, degradation_pct(c, clean))
                })
                .collect();
            let n = faulty.len().max(1) as f64;
            Set3Summary {
                scheme: scheme.to_string(),
                scenarios: faulty.len(),
                survived: faulty.iter().filter(|(c, _)| c.survived).count(),
                mean_degradation_pct: faulty.iter().map(|(_, d)| d).sum::<f64>() / n,
                worst_degradation_pct: faulty.iter().map(|&(_, d)| d).fold(0.0, f64::max),
                mean_retx_overhead_pct: faulty.iter().map(|(c, _)| c.retx_pct).sum::<f64>() / n,
                restarts: faulty.iter().map(|(c, _)| c.restarts).sum(),
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.survived
            .cmp(&a.survived)
            .then(a.mean_degradation_pct.total_cmp(&b.mean_degradation_pct))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{run_matrix, scenarios_fault, MatrixSpec};
    use crate::runner::Contender;

    #[test]
    fn grid_has_clean_baseline_first_and_unique_ids() {
        let g = scenario_grid();
        assert_eq!(g[0].id, CLEAN);
        assert!(g[0].plan.is_none());
        assert!(g.len() >= 10, "grid should cover the fault families");
        let mut ids: Vec<&str> = g.iter().map(|s| s.id).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(g.iter().skip(1).all(|s| !s.plan.is_none()));
    }

    #[test]
    fn set3_runs_heuristics_through_faults() {
        // A small slice of the grid to keep the test fast: clean + two
        // fault scenarios, two schemes.
        let spec = MatrixSpec {
            schemes: vec![Contender::Heuristic("cubic"), Contender::Heuristic("vegas")],
            scenarios: scenarios_fault(Some(&[CLEAN, "burst-mild", "blackout"]), 6.0),
            seeds: vec![3],
            alpha: 2.0,
            threads: 0,
        };
        let cells = run_matrix(&spec, |_, _| {}).cells;
        assert_eq!(cells.len(), 6);
        assert!(
            cells.iter().all(|c| c.survived),
            "all schemes must survive: {cells:?}"
        );
        let clean_of = |c: &MatrixCell| {
            cells
                .iter()
                .find(|k| k.scheme == c.scheme && k.scenario == "s3-clean")
        };
        // Clean baselines carry zero degradation by construction.
        for c in cells.iter().filter(|c| c.scenario == "s3-clean") {
            assert_eq!(degradation_pct(c, clean_of(c)), 0.0);
            assert!(c.goodput_mbps > 1.0, "{c:?}");
        }
        // A one-second blackout in a six-second run must cost throughput.
        for c in cells.iter().filter(|c| c.scenario == "s3-blackout") {
            let d = degradation_pct(c, clean_of(c));
            assert!(d > 5.0, "blackout barely hurt {c:?}");
        }
        let summary = summarise(&cells);
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].scenarios, 2);
        assert_eq!(summary[0].survived, 2);
        assert!(summary.iter().all(|s| s.worst_degradation_pct > 5.0));
    }
}
