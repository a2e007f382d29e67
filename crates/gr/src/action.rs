//! The Execution block (the paper's TCP Pure deployment: GR state in, cwnd
//! ratio out, window enforced): the cwnd-ratio action codec and the
//! observe→act loop every learned controller runs.
//!
//! Training encodes a recorded ratio `a_t = cwnd_t / cwnd_{t-1}` with
//! [`encode_ratio`]; deployment decodes a policy output with [`log_ratio`]
//! and enforces it through [`CwndActor`]. Both directions and their bounds
//! are defined here and nowhere else, so the train side and the deploy side
//! cannot drift apart. The actor is two-phase — [`CwndActor::observe`] then
//! [`CwndActor::apply`] — because the serving runtime runs one batched
//! forward between the two; a single-flow controller simply calls them back
//! to back.

use crate::reward::RewardParams;
use crate::state::{GrConfig, GrUnit, STATE_DIM};
use sage_transport::sim::TickRecord;
use sage_transport::{SocketView, INIT_CWND, MIN_CWND};

/// Bounds of the log-action (ln of the cwnd ratio) a policy may emit per
/// 10 ms step.
pub const LOG_ACTION_MIN: f64 = -1.4; // ratio ~0.25
pub const LOG_ACTION_MAX: f64 = 1.4; // ratio ~4.0

/// Action scale: the policy and critic operate on `ln(ratio) / ACTION_SCALE`.
/// Per-10 ms cwnd ratios concentrate within a few percent of 1.0 (log-actions
/// of a few hundredths); rescaling makes the GMM's support and the critic's
/// action input comparable to the standardised state features. Without it,
/// Q(s, a) is numerically almost independent of `a`, the CRR advantage
/// collapses to zero, and the mixture cannot resolve conditional structure
/// above its sigma floor.
pub const ACTION_SCALE: f64 = 0.05;

/// Bounds of the scaled action.
pub const SCALED_ACTION_MIN: f64 = LOG_ACTION_MIN / ACTION_SCALE;
pub const SCALED_ACTION_MAX: f64 = LOG_ACTION_MAX / ACTION_SCALE;

/// Upper bound on the enforced congestion window (packets).
pub const MAX_CWND: f64 = 40_000.0;

/// Training side: a recorded cwnd ratio as the scaled log-action the policy
/// and critic see.
pub fn encode_ratio(ratio: f64) -> f64 {
    (ratio.max(1e-6).ln() / ACTION_SCALE).clamp(SCALED_ACTION_MIN, SCALED_ACTION_MAX)
}

/// Deployment side: a raw policy output (scaled units — a mixture sample or
/// mean, or a tree prediction) as the bounded `ln(ratio)` to enforce.
pub fn log_ratio(raw: f64) -> f64 {
    (raw * ACTION_SCALE).clamp(LOG_ACTION_MIN, LOG_ACTION_MAX)
}

/// Per-flow deployment state: the GR windows, the enforced window and the
/// loss counter the tick synthesis differences against.
pub struct CwndActor {
    gr: GrUnit,
    cwnd: f64,
    prev_lost_bytes: u64,
}

impl CwndActor {
    pub fn new(gr_cfg: GrConfig) -> Self {
        CwndActor {
            gr: GrUnit::new(gr_cfg, RewardParams::default()),
            cwnd: INIT_CWND,
            prev_lost_bytes: 0,
        }
    }

    /// Phase one: synthesise the tick record from the sender's own view and
    /// advance the GR unit; returns the state the policy acts on. The
    /// receiver-side fields (`mean_owd`) only feed rewards, which deployment
    /// neither reads nor computes.
    pub fn observe(&mut self, now: u64, sock: &SocketView) -> [f64; STATE_DIM] {
        let lost_bytes_delta = sock.lost_bytes_total.saturating_sub(self.prev_lost_bytes);
        self.prev_lost_bytes = sock.lost_bytes_total;
        let tick = TickRecord {
            now,
            goodput_bps: sock.delivery_rate_bps,
            mean_owd: 0.0,
            lost_bytes_delta,
            cwnd_pkts: self.cwnd,
        };
        self.gr.observe(sock, &tick)
    }

    /// Phase two: enforce a raw policy output as a cwnd ratio. Returns the
    /// bounded log-ratio that was applied.
    pub fn apply(&mut self, raw: f64) -> f64 {
        let lr = log_ratio(raw);
        self.cwnd = (self.cwnd * lr.exp()).clamp(MIN_CWND, MAX_CWND);
        lr
    }

    /// A timeout still collapses the window (transport safety); the policy
    /// regrows it from the observed state.
    pub fn on_rto(&mut self) {
        self.cwnd = (self.cwnd * 0.5).max(MIN_CWND);
    }

    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Adopt a window decided elsewhere (serve's heuristic takeover, the
    /// hybrid's Cubic underlay) so the next observation reports it.
    pub fn set_cwnd(&mut self, cwnd: f64) {
        self.cwnd = cwnd;
    }

    /// Rows the GR unit's signal history holds (see
    /// [`GrUnit::history_rows`]).
    pub fn history_rows(&self) -> usize {
        self.gr.history_rows()
    }

    /// Cumulative lost bytes at the last observation (serve digests it).
    pub fn prev_lost_bytes(&self) -> u64 {
        self.prev_lost_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_util::{forall, PropConfig};

    fn view(now: u64, lost_bytes_total: u64) -> SocketView {
        SocketView {
            lost_bytes_total,
            ..crate::state::tests::view(now, 10.0)
        }
    }

    #[test]
    fn scaled_bounds_are_the_log_bounds_exactly() {
        assert_eq!(SCALED_ACTION_MIN * ACTION_SCALE, LOG_ACTION_MIN);
        assert_eq!(SCALED_ACTION_MAX * ACTION_SCALE, LOG_ACTION_MAX);
    }

    /// ROADMAP 1(b): what training encodes, deployment decodes.
    #[test]
    fn decode_inverts_encode_inside_the_bounds() {
        forall("codec round trip", PropConfig::default(), |rng| {
            let r = rng.range(LOG_ACTION_MIN, LOG_ACTION_MAX).exp();
            let back = log_ratio(encode_ratio(r)).exp();
            if ((back - r) / r).abs() <= 1e-12 {
                Ok(())
            } else {
                Err(format!("ratio {r} came back as {back}"))
            }
        });
    }

    #[test]
    fn both_sides_saturate_to_the_same_bound() {
        forall("codec saturation", PropConfig::default(), |rng| {
            let beyond = rng.range(LOG_ACTION_MAX, 20.0);
            for (lr, bound) in [(beyond, LOG_ACTION_MAX), (-beyond, LOG_ACTION_MIN)] {
                let trained = encode_ratio(lr.exp());
                if trained != bound / ACTION_SCALE || log_ratio(trained) != bound {
                    return Err(format!("ln-ratio {lr}: encoded {trained}"));
                }
                if log_ratio(lr / ACTION_SCALE) != bound {
                    return Err(format!("raw {} not clamped to {bound}", lr / ACTION_SCALE));
                }
            }
            Ok(())
        });
        // Non-positive recorded ratios hit the floor instead of going NaN.
        assert_eq!(encode_ratio(0.0), SCALED_ACTION_MIN);
        assert_eq!(encode_ratio(-3.0), SCALED_ACTION_MIN);
    }

    #[test]
    fn apply_keeps_cwnd_in_bounds_for_any_finite_raw() {
        forall("actor bounds", PropConfig::default(), |rng| {
            let mut a = CwndActor::new(GrConfig::default());
            for i in 1..=64u64 {
                a.observe(i * 10_000_000, &view(i * 10_000_000, 0));
                let raw = match rng.below(4) {
                    0 => f64::MAX,
                    1 => f64::MIN,
                    2 => rng.range(-1e6, 1e6),
                    _ => rng.range(SCALED_ACTION_MIN, SCALED_ACTION_MAX),
                };
                let lr = a.apply(raw);
                if !(LOG_ACTION_MIN..=LOG_ACTION_MAX).contains(&lr)
                    || !(MIN_CWND..=MAX_CWND).contains(&a.cwnd())
                {
                    return Err(format!("raw {raw}: lr {lr}, cwnd {}", a.cwnd()));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn observe_reports_own_cwnd_and_loss_delta_and_rto_halves() {
        // Row 69 (`pre_act`) of an observation is the action recorded at the
        // one before it.
        const PRE_ACT: usize = STATE_DIM - 1;
        let mut a = CwndActor::new(GrConfig::default());
        a.observe(10_000_000, &view(10_000_000, 3000));
        assert_eq!(a.prev_lost_bytes(), 3000);
        // The first observation has no previous window: its action is 1.
        assert_eq!(a.observe(15_000_000, &view(15_000_000, 3000))[PRE_ACT], 1.0);
        a.apply(0.2 / ACTION_SCALE);
        // The next observation's action is the ratio just enforced.
        a.observe(20_000_000, &view(20_000_000, 4500));
        let pre_act = a.observe(30_000_000, &view(30_000_000, 4500))[PRE_ACT];
        assert!((pre_act - 0.2f64.exp()).abs() < 1e-12);
        assert_eq!(a.prev_lost_bytes(), 4500);
        let before = a.cwnd();
        a.on_rto();
        assert_eq!(a.cwnd(), (before * 0.5).max(MIN_CWND));
        a.set_cwnd(MIN_CWND);
        a.on_rto();
        assert_eq!(a.cwnd(), MIN_CWND);
    }
}
