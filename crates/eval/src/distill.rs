//! Harvesting and fidelity measurement for symbolic distillation.
//!
//! `sage-distill` owns the tree (it sits *below* `core` in the dependency
//! graph so `sage-heuristics` can register `"sage-sym"`); this module owns
//! the glue that needs the neural model: replaying matrix scenarios with
//! the deployed [`SagePolicy`] to harvest `(raw state, mixture mean)` rows,
//! and the action agreement that says how well a fitted tree explains the
//! model it was fitted from.
//!
//! Determinism contract: the scenario fan-out uses `par_map_range` (ordered
//! reduction) with per-scenario seeds from `Rng::stream_seed`, and the
//! harvested flow is the policy in `Deterministic` mode — so the harvested
//! dataset digest is byte-identical at any `SAGE_THREADS`.

use sage_collector::{rollout, EnvSpec, Series};
use sage_core::model::SageModel;
use sage_core::{ActionMode, SagePolicy};
use sage_distill::{Dataset, SymbolicModel};
use sage_gr::{log_ratio, GrConfig, STATE_DIM};
use sage_netsim::time::Nanos;
use sage_transport::{AckEvent, CongestionControl, SocketView};
use sage_util::{par_map_range, Rng};
use std::sync::{Arc, Mutex};

use crate::matrix::ScenarioSpec;

/// Row sink shared between a scenario's harvesting flow and the caller.
type Sink = Arc<Mutex<Vec<(Vec<f64>, f64)>>>;

/// The deployed deterministic policy, with every tick's `(raw 69-dim state,
/// mixture mean)` pushed into a sink — the rows are what the policy itself
/// observed and chose, so they are exactly the distribution the symbolic
/// tier will see.
struct HarvestCc {
    policy: SagePolicy,
    sink: Sink,
}

impl CongestionControl for HarvestCc {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn on_ack(&mut self, ack: &AckEvent, sock: &SocketView) {
        self.policy.on_ack(ack, sock);
    }

    fn on_congestion_event(&mut self, now: Nanos, sock: &SocketView) {
        self.policy.on_congestion_event(now, sock);
    }

    fn on_rto(&mut self, now: Nanos, sock: &SocketView) {
        self.policy.on_rto(now, sock);
    }

    fn on_tick(&mut self, now: Nanos, sock: &SocketView) {
        let (state, mean) = self.policy.act(now, sock);
        self.sink
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((state.to_vec(), mean));
    }

    fn cwnd_pkts(&self) -> f64 {
        self.policy.cwnd_pkts()
    }
}

/// Replay one scenario with the deterministic policy, returning the rows
/// recorded by the flow under test (companion self-flows run the same
/// policy but are not recorded). The rows come from the policy's own sink;
/// the rollout records only the series, and nothing reads them.
fn harvest_scenario(model: &Arc<SageModel>, gr_cfg: GrConfig, env: &EnvSpec, seed: u64) -> Dataset {
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let mut first = true;
    rollout::<Series>(
        env,
        "sage",
        |_flow_seed| {
            let policy = SagePolicy::new(model.clone(), gr_cfg, 0, ActionMode::Deterministic);
            if std::mem::take(&mut first) {
                let sink = sink.clone();
                Box::new(HarvestCc { policy, sink })
            } else {
                Box::new(policy)
            }
        },
        gr_cfg,
        seed,
    );
    let rows = std::mem::take(&mut *sink.lock().unwrap_or_else(|e| e.into_inner()));
    Dataset::from_rows(STATE_DIM, rows)
}

/// Harvest a dataset from `scenarios`, fanning the replays out over
/// `threads` workers (0 = `SAGE_THREADS`) with an ordered reduction, so the
/// result is byte-identical at any thread count. Scenario `i` runs under
/// `Rng::stream_seed(master_seed, i)` — two harvests with different master
/// seeds (train vs held-out) share no seed streams.
pub fn harvest(
    model: &Arc<SageModel>,
    gr_cfg: GrConfig,
    scenarios: &[ScenarioSpec],
    master_seed: u64,
    threads: usize,
) -> Dataset {
    let parts = par_map_range(threads, scenarios.len(), |i| {
        let seed = Rng::stream_seed(master_seed, i as u64);
        harvest_scenario(model, gr_cfg, &scenarios[i].env, seed)
    });
    let mut out = Dataset::new(STATE_DIM);
    for p in &parts {
        out.extend(p);
    }
    out
}

/// Action-agreement between a fitted tree and the harvested targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agreement {
    pub rows: usize,
    /// Fraction of rows where the clamped log-ratio actions differ by at
    /// most the tolerance.
    pub agree_rate: f64,
    /// Mean |Δ log-ratio| over all rows.
    pub mean_abs_lr: f64,
    /// Max |Δ log-ratio| over all rows.
    pub max_abs_lr: f64,
}

/// Default agreement tolerance in log-ratio units: 0.03 ≈ a 3% cwnd step,
/// i.e. well inside one AIMD additive increase at typical windows.
pub const AGREE_TOL_LR: f64 = 0.03;

/// Score `tree` against dataset targets in *deployed action* units: both
/// the tree output and the target pass through the same [`log_ratio`] the
/// policies apply, so saturated actions that land on the same clamp rail
/// agree exactly.
pub fn agreement(tree: &SymbolicModel, ds: &Dataset, tol_lr: f64) -> Agreement {
    if ds.is_empty() {
        return Agreement {
            rows: 0,
            agree_rate: 0.0,
            mean_abs_lr: 0.0,
            max_abs_lr: 0.0,
        };
    }
    let (mut agree, mut sum, mut max) = (0usize, 0.0f64, 0.0f64);
    for i in 0..ds.len() {
        let d = (log_ratio(tree.predict(ds.row(i))) - log_ratio(ds.ys[i])).abs();
        if d <= tol_lr {
            agree += 1;
        }
        sum += d;
        max = max.max(d);
    }
    Agreement {
        rows: ds.len(),
        agree_rate: agree as f64 / ds.len() as f64,
        mean_abs_lr: sum / ds.len() as f64,
        max_abs_lr: max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::scenarios_set12;
    use sage_collector::Trajectory;
    use sage_core::model::NetConfig;
    use sage_distill::TreeConfig;

    fn tiny_model() -> Arc<SageModel> {
        let cfg = NetConfig {
            enc1: 8,
            gru: 8,
            enc2: 8,
            fc: 8,
            residual_blocks: 1,
            critic_hidden: 8,
            ..NetConfig::default()
        };
        Arc::new(SageModel::new(
            cfg,
            vec![0.0; STATE_DIM],
            vec![1.0; STATE_DIM],
            3,
        ))
    }

    #[test]
    fn harvest_is_thread_invariant_and_seed_sensitive() {
        let model = tiny_model();
        let scenarios = scenarios_set12(2, 0, 2.0, 77);
        let a = harvest(&model, GrConfig::default(), &scenarios, 11, 1);
        let b = harvest(&model, GrConfig::default(), &scenarios, 11, 4);
        assert!(!a.is_empty());
        assert_eq!(a.digest(), b.digest(), "harvest must not depend on threads");
        let c = harvest(&model, GrConfig::default(), &scenarios, 12, 1);
        assert_ne!(a.digest(), c.digest(), "master seed must matter");
    }

    #[test]
    fn distilled_tree_agrees_with_its_own_training_targets() {
        let model = tiny_model();
        let scenarios = scenarios_set12(2, 0, 2.0, 78);
        let ds = harvest(&model, GrConfig::default(), &scenarios, 21, 0);
        let tree = SymbolicModel::fit(
            &ds,
            &TreeConfig {
                max_depth: 8,
                min_leaf: 8,
                ..TreeConfig::default()
            },
        );
        let fit = agreement(&tree, &ds, AGREE_TOL_LR);
        assert_eq!(fit.rows, ds.len());
        // An untrained GMM is nearly constant-mean, so the tree should fit
        // it tightly; the bound here is deliberately loose.
        assert!(fit.agree_rate > 0.5, "agree {}", fit.agree_rate);
    }

    /// Train/deploy observation parity — characterised, not fixed. The
    /// pool's states come from `rollout`'s `GrMonitor`, which
    /// `Simulation::finish_tick` feeds a view rebuilt *after* the tick's
    /// action; a deployed policy observes *before* acting. So training sees
    /// `bdp_cwnd` and `pre_act` one action ahead of deployment, and every
    /// other feature identically. This pins exactly that shape, so a change
    /// to the observe path cannot widen the skew unnoticed; closing it
    /// regenerates pool, model and goldens.
    #[test]
    fn deployed_observation_matches_the_pool_except_two_action_lagged_features() {
        const SKEWED: [usize; 2] = [63, 68];
        assert_eq!(
            SKEWED.map(|c| sage_gr::STATE_NAMES[c]),
            ["bdp_cwnd", "pre_act"]
        );
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/sage.model");
        let model = Arc::new(SageModel::load_file(&path).expect("committed sage.model"));
        let env = sage_collector::set1_flat_grid(6.0)
            .into_iter()
            .find(|e| e.id == "s1-flat-bw48-rtt20-q8")
            .expect("grid scenario");
        let gr_cfg = GrConfig::default();
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        let mk = |_| -> Box<dyn CongestionControl> {
            let policy = SagePolicy::new(model.clone(), gr_cfg, 0, ActionMode::Deterministic);
            let sink = sink.clone();
            Box::new(HarvestCc { policy, sink })
        };
        let traj = rollout::<Trajectory>(&env, "sage", mk, gr_cfg, 5).traj;
        let rows = sink.lock().unwrap();
        assert_eq!(rows.len(), traj.len(), "one observation per recorded tick");
        assert!(rows.len() >= 500);
        let mut skewed_ticks = [0usize; 2];
        for (t, ((deployed, _), recorded)) in rows.iter().zip(traj.states.rows()).enumerate() {
            for (c, (&d, &p)) in deployed.iter().zip(&recorded).enumerate() {
                if d as f32 == p {
                    continue;
                }
                let k = SKEWED.iter().position(|&s| s == c);
                let k = k.unwrap_or_else(|| panic!("tick {t}: feature {c} differs ({d} vs {p})"));
                skewed_ticks[k] += 1;
            }
        }
        // Present (or this test proves nothing), but not on every tick.
        for n in skewed_ticks {
            assert!(n > 0 && n < rows.len(), "skewed ticks {skewed_ticks:?}");
        }
    }
}
