//! Rolling a scheme through an environment while recording the flow under
//! test: the GR unit's full trajectory where the pool and the learners read
//! it, only the goodput, delay and window series where a score does.

use crate::env::{EnvSpec, SetKind};
use crate::pool::Trajectory;
use sage_gr::{reward_friendliness, GrConfig, GrUnit, RewardParams};
use sage_heuristics::build;
use sage_transport::sim::{Monitor, TickRecord};
use sage_transport::{CongestionControl, FlowConfig, FlowStats, SimConfig, Simulation, SocketView};

/// Result of one rollout: what was recorded of the flow under test (by
/// default the full trajectory) plus run statistics.
pub struct RolloutResult<T = Trajectory> {
    pub traj: T,
    /// Statistics of the flow under test.
    pub stats: FlowStats,
    /// Statistics of every flow (competing Cubic flows included).
    pub all_stats: Vec<FlowStats>,
}

/// The per-tick series of the flow under test that scores, regime checks
/// and time-series figures read: the same three a [`Trajectory`] carries,
/// recorded without running the GR unit.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Receiver goodput, bits/s.
    pub thr: Vec<f32>,
    /// Mean one-way delay, seconds.
    pub owd: Vec<f32>,
    /// Congestion window, packets.
    pub cwnd: Vec<f32>,
}

impl Series {
    pub fn len(&self) -> usize {
        self.thr.len()
    }

    pub fn is_empty(&self) -> bool {
        self.thr.is_empty()
    }

    fn push(&mut self, tick: &TickRecord) {
        self.thr.push(tick.goodput_bps as f32);
        self.owd.push(tick.mean_owd as f32);
        self.cwnd.push(tick.cwnd_pkts as f32);
    }
}

/// What a rollout records of the flow under test, tick by tick. The caller
/// chooses by the type it reads — a [`Trajectory`] for the pool and the
/// learners, a [`Series`] for a score — and the run is the same either way:
/// recording only watches the simulation.
pub trait Record: Sized {
    /// The recording in progress.
    type Recorder;
    fn recorder(env: &EnvSpec, scheme: &str, gr_cfg: GrConfig) -> Self::Recorder;
    fn on_tick(rec: &mut Self::Recorder, view: &SocketView, tick: &TickRecord);
    fn finish(rec: Self::Recorder) -> Self;
}

/// The full pool trajectory: the GR unit builds each tick's state, action
/// and Power reward, and the friendliness reward is taken against the
/// environment's fair share.
impl Record for Trajectory {
    type Recorder = (GrUnit, Trajectory);

    fn recorder(env: &EnvSpec, scheme: &str, gr_cfg: GrConfig) -> Self::Recorder {
        let gr = GrUnit::new(gr_cfg, RewardParams::for_capacity(env.capacity_mbps));
        let traj = Trajectory {
            scheme: scheme.to_string(),
            env_id: env.id.clone(),
            set2: env.set == SetKind::SetII,
            fair_share_bps: env.fair_share_bps(),
            ..Default::default()
        };
        (gr, traj)
    }

    fn on_tick((gr, traj): &mut Self::Recorder, view: &SocketView, tick: &TickRecord) {
        let step = gr.on_tick(view, tick);
        traj.states
            .push(&std::array::from_fn(|i| step.state[i] as f32));
        traj.actions.push(step.action as f32);
        traj.r1.push(step.reward_power as f32);
        traj.r2
            .push(reward_friendliness(step.delivery_bps, traj.fair_share_bps) as f32);
        traj.thr.push(tick.goodput_bps as f32);
        traj.owd.push(tick.mean_owd as f32);
        traj.cwnd.push(tick.cwnd_pkts as f32);
    }

    fn finish((_, mut traj): Self::Recorder) -> Self {
        traj.states.shrink_to_fit();
        traj
    }
}

impl Record for Series {
    type Recorder = Series;

    fn recorder(_env: &EnvSpec, _scheme: &str, _gr_cfg: GrConfig) -> Self::Recorder {
        Series::default()
    }

    fn on_tick(rec: &mut Self::Recorder, _view: &SocketView, tick: &TickRecord) {
        rec.push(tick);
    }

    fn finish(rec: Self::Recorder) -> Self {
        rec
    }
}

/// Hands the ticks of the flow under test to `R`'s recorder.
struct Watch<R: Record> {
    test_idx: usize,
    rec: R::Recorder,
}

impl<R: Record> Monitor for Watch<R> {
    fn on_tick(&mut self, flow_idx: usize, view: &SocketView, tick: &TickRecord) {
        if flow_idx == self.test_idx {
            R::on_tick(&mut self.rec, view, tick);
        }
    }
}

/// Build the simulation for an environment: competing Cubic flows first
/// (staggered by 100 ms), then the flow under test, then any additional
/// same-scheme flows (`EnvSpec::self_flows`) staggered by
/// `EnvSpec::self_stagger`. `ccas[0]` is the flow under test.
///
/// # Panics
///
/// Panics if the `"cubic"` competitor scheme is missing from the registry —
/// a compile-time wiring error, not an input condition.
fn build_sim(
    env: &EnvSpec,
    ccas: Vec<Box<dyn CongestionControl>>,
    seed: u64,
    span_base: u64,
) -> (Simulation, usize) {
    let mut cfg = SimConfig::new(env.link.clone(), env.buffer_bytes, env.rtt_ms, env.duration);
    cfg.aqm = env.aqm;
    cfg.random_loss = env.random_loss;
    cfg.seed = seed ^ env.seed;
    cfg.faults = env.faults.clone();
    cfg.topology = env.topology.clone();
    cfg.span_base = span_base;
    let mut flows = Vec::new();
    for k in 0..env.competing_cubic {
        #[expect(
            clippy::expect_used,
            reason = "\"cubic\" is a compile-time scheme name that the registry always contains"
        )]
        flows.push(FlowConfig::starting_at(
            build("cubic", seed.wrapping_add(k as u64 + 1)).expect("cubic exists"),
            (k as u64) * 100 * sage_netsim::time::MILLIS,
        ));
    }
    let test_idx = flows.len();
    for (k, cca) in ccas.into_iter().enumerate() {
        flows.push(FlowConfig::starting_at(
            cca,
            env.test_flow_start + (k as u64) * env.self_stagger,
        ));
    }
    (Simulation::new(cfg, flows), test_idx)
}

/// Flight-recorder span base for one (environment, scheme, seed) cell: a
/// pure function of the cell identity, so spans are stable across thread
/// counts and runs. The low id bits stay clear for per-flow offsets.
pub fn cell_span_base(env_id: &str, scheme: &str, seed: u64) -> u64 {
    let mut h = sage_util::Fnv64::new();
    h.write(env_id.as_bytes());
    h.write(scheme.as_bytes());
    h.write_u64(seed);
    h.finish() << 16
}

/// Roll one scheme through one environment, recording the flow under test
/// as a `T` (see [`Record`]). `mk(flow_seed)` is called once per flow of the
/// scheme under test (`env.self_flows` times, with seeds `seed`, `seed + 1`,
/// ...), so intra-scheme fairness scenarios can stamp out learned policies
/// and heuristics alike. The first flow is the flow under test; its ticks
/// are the ones recorded.
pub fn rollout<T: Record>(
    env: &EnvSpec,
    scheme: &str,
    mut mk: impl FnMut(u64) -> Box<dyn CongestionControl>,
    gr_cfg: GrConfig,
    seed: u64,
) -> RolloutResult<T> {
    let ccas: Vec<Box<dyn CongestionControl>> = (0..env.self_flows as u64)
        .map(|k| mk(seed.wrapping_add(k)))
        .collect();
    let span_base = cell_span_base(&env.id, scheme, seed);
    let (mut sim, test_idx) = build_sim(env, ccas, seed, span_base);
    let mut watch = Watch::<T> {
        test_idx,
        rec: T::recorder(env, scheme, gr_cfg),
    };
    let all_stats = sim.run(&mut watch);
    let stats = all_stats[test_idx].clone();
    RolloutResult {
        traj: T::finish(watch.rec),
        stats,
        all_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{set1_flat_grid, set2_grid};
    use crate::supervise::collect_pool;

    #[test]
    fn rollout_records_expected_tick_count() {
        let mut env = set1_flat_grid(5.0)[7].clone();
        env.duration = sage_netsim::time::from_secs(5.0);
        let res: RolloutResult = rollout(
            &env,
            "cubic",
            |_| build("cubic", 1).unwrap(),
            GrConfig::default(),
            3,
        );
        // 5 s at 10 ms per tick = about 500 steps.
        assert!((450..=501).contains(&res.traj.len()), "{}", res.traj.len());
        assert_eq!(res.traj.states.len(), res.traj.len());
        assert!(res.stats.avg_goodput_mbps > 0.0);
    }

    #[test]
    fn set2_rollout_runs_cubic_competitor() {
        let env = set2_grid(8.0)
            .into_iter()
            .find(|e| e.id.contains("bw24-rtt40-q2"))
            .unwrap();
        let res: RolloutResult = rollout(
            &env,
            "vegas",
            |_| build("vegas", 1).unwrap(),
            GrConfig::default(),
            3,
        );
        assert_eq!(res.all_stats.len(), 2);
        assert_eq!(res.all_stats[0].name, "cubic");
        assert!(res.traj.set2);
        // R2 rewards populated and bounded in [0, 1].
        assert!(res.traj.r2.iter().all(|&r| (0.0..=1.0).contains(&r)));
        // Vegas vs Cubic: vegas should be below fair share most of the time
        // (the paper's Set II failure mode), so mean R2 is noticeably < 1.
        let mean_r2: f32 = res.traj.r2.iter().sum::<f32>() / res.traj.r2.len() as f32;
        assert!(mean_r2 < 0.9, "vegas mean R2 {mean_r2}");
    }

    #[test]
    fn collect_pool_covers_schemes_and_envs() {
        let envs: Vec<EnvSpec> = crate::env::training_envs(2, 1, 3.0, 7);
        let pool = collect_pool(
            &envs,
            &["cubic", "vegas"],
            GrConfig::default(),
            1,
            |_, _| {},
        );
        assert_eq!(pool.trajectories.len(), 6);
        assert_eq!(
            pool.schemes(),
            vec!["cubic".to_string(), "vegas".to_string()]
        );
        assert!(pool.total_steps() > 500);
    }

    #[test]
    fn self_flows_share_one_bottleneck() {
        let mut env = set1_flat_grid(6.0)[7].clone();
        env.self_flows = 3;
        env.self_stagger = sage_netsim::time::from_secs(1.0);
        let res: RolloutResult = rollout(
            &env,
            "cubic",
            |s| build("cubic", s).unwrap(),
            GrConfig::default(),
            3,
        );
        assert_eq!(res.all_stats.len(), 3, "one FlowStats per self flow");
        assert!(res.all_stats.iter().all(|s| s.delivered_bytes > 0));
        // Later flows start staggered, so they are active for less time.
        assert!(res.all_stats[0].active_secs > res.all_stats[2].active_secs);
        // The recorded trajectory belongs to the first (test) flow.
        assert!(res.traj.len() > 500);
    }

    #[test]
    fn deterministic_rollouts() {
        let env = set1_flat_grid(3.0)[0].clone();
        let a: RolloutResult = rollout(
            &env,
            "cubic",
            |_| build("cubic", 1).unwrap(),
            GrConfig::default(),
            5,
        );
        let b: RolloutResult = rollout(
            &env,
            "cubic",
            |_| build("cubic", 1).unwrap(),
            GrConfig::default(),
            5,
        );
        assert_eq!(a.traj.actions, b.traj.actions);
        assert_eq!(a.traj.r1, b.traj.r1);
    }
}
