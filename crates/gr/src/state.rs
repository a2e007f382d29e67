//! The 69-element input representation of Table 1.

use sage_transport::sim::TickRecord;
use sage_transport::SocketView;
use sage_util::RingWindow;

/// Dimension of the full state vector.
pub const STATE_DIM: usize = 69;

/// Human-readable names of the 69 inputs, in Table 1 order (index 0 = row 1).
pub const STATE_NAMES: [&str; STATE_DIM] = [
    "srtt",
    "rttvar",
    "thr",
    "ca_state",
    "rtt_s.avg",
    "rtt_s.min",
    "rtt_s.max",
    "rtt_m.avg",
    "rtt_m.min",
    "rtt_m.max",
    "rtt_l.avg",
    "rtt_l.min",
    "rtt_l.max",
    "thr_s.avg",
    "thr_s.min",
    "thr_s.max",
    "thr_m.avg",
    "thr_m.min",
    "thr_m.max",
    "thr_l.avg",
    "thr_l.min",
    "thr_l.max",
    "rtt_rate_s.avg",
    "rtt_rate_s.min",
    "rtt_rate_s.max",
    "rtt_rate_m.avg",
    "rtt_rate_m.min",
    "rtt_rate_m.max",
    "rtt_rate_l.avg",
    "rtt_rate_l.min",
    "rtt_rate_l.max",
    "rtt_var_s.avg",
    "rtt_var_s.min",
    "rtt_var_s.max",
    "rtt_var_m.avg",
    "rtt_var_m.min",
    "rtt_var_m.max",
    "rtt_var_l.avg",
    "rtt_var_l.min",
    "rtt_var_l.max",
    "inflight_s.avg",
    "inflight_s.min",
    "inflight_s.max",
    "inflight_m.avg",
    "inflight_m.min",
    "inflight_m.max",
    "inflight_l.avg",
    "inflight_l.min",
    "inflight_l.max",
    "lost_s.avg",
    "lost_s.min",
    "lost_s.max",
    "lost_m.avg",
    "lost_m.min",
    "lost_m.max",
    "lost_l.avg",
    "lost_l.min",
    "lost_l.max",
    "time_delta",
    "rtt_rate",
    "loss_db",
    "acked_rate",
    "dr_ratio",
    "bdp_cwnd",
    "dr",
    "cwnd_unacked_rate",
    "dr_max",
    "dr_max_ratio",
    "pre_act",
];

/// Normalisation scales, so every feature lands roughly in [0, a few].
/// RTT-like values are in seconds (already small); rates are scaled by
/// 1/RATE_SCALE; byte counts by 1/BYTES_SCALE.
pub const RATE_SCALE: f64 = 1.0e8; // 100 Mbit/s
pub const BYTES_SCALE: f64 = 1.0e6; // 1 MB

/// Window lengths (in monitor ticks) for the three timescales.
#[derive(Debug, Clone, Copy)]
pub struct GrConfig {
    pub small: usize,
    pub medium: usize,
    pub large: usize,
}

impl Default for GrConfig {
    /// The paper's §7.4 default mix: Small=10, Medium=200, Large=1000 ticks.
    fn default() -> Self {
        GrConfig {
            small: 10,
            medium: 200,
            large: 1000,
        }
    }
}

impl GrConfig {
    /// Uniform granularity (for the Sage-s/m/l study of Fig. 14/16).
    pub fn uniform(n: usize) -> Self {
        GrConfig {
            small: n,
            medium: n,
            large: n,
        }
    }
}

/// One recorded timestep.
#[derive(Debug, Clone)]
pub struct GrStep {
    /// The 69-element state vector (normalised).
    pub state: Vec<f64>,
    /// Action `a_t = cwnd_t / cwnd_{t-1}`.
    pub action: f64,
    /// Single-flow reward `R1` (Eq. 1); needs only local observations.
    pub reward_power: f64,
    /// Delivery rate this tick (bit/s), for computing `R2` with an external
    /// fair-share figure.
    pub delivery_bps: f64,
}

/// Three-timescale window set over one signal.
struct Tri {
    s: RingWindow,
    m: RingWindow,
    l: RingWindow,
}

impl Tri {
    fn new(cfg: &GrConfig) -> Self {
        Tri {
            s: RingWindow::new(cfg.small),
            m: RingWindow::new(cfg.medium),
            l: RingWindow::new(cfg.large),
        }
    }

    fn push(&mut self, x: f64) {
        self.s.push(x);
        self.m.push(x);
        self.l.push(x);
    }

    /// avg/min/max for each of the three windows, 9 values.
    fn emit(&self, out: &mut Vec<f64>) {
        for w in [&self.s, &self.m, &self.l] {
            out.push(w.mean());
            out.push(w.min());
            out.push(w.max());
        }
    }
}

/// Stateful builder producing one [`GrStep`] per monitor tick.
pub struct GrUnit {
    cfg: GrConfig,
    reward: crate::reward::RewardParams,
    rtt_w: Tri,
    thr_w: Tri,
    rtt_rate_w: Tri,
    rtt_var_w: Tri,
    inflight_w: Tri,
    lost_w: Tri,
    prev_cwnd: f64,
    prev_action: f64,
    prev_rtt: f64,
    prev_dr: f64,
    prev_time: u64,
    prev_delivered_bytes: u64,
    prev_dr_max: f64,
}

impl GrUnit {
    pub fn new(cfg: GrConfig, reward: crate::reward::RewardParams) -> Self {
        GrUnit {
            rtt_w: Tri::new(&cfg),
            thr_w: Tri::new(&cfg),
            rtt_rate_w: Tri::new(&cfg),
            rtt_var_w: Tri::new(&cfg),
            inflight_w: Tri::new(&cfg),
            lost_w: Tri::new(&cfg),
            cfg,
            reward,
            prev_cwnd: 0.0,
            prev_action: 1.0,
            prev_rtt: 0.0,
            prev_dr: 0.0,
            prev_time: 0,
            prev_delivered_bytes: 0,
            prev_dr_max: 0.0,
        }
    }

    pub fn config(&self) -> GrConfig {
        self.cfg
    }

    /// Ingest one monitor tick; returns the recorded step.
    pub fn on_tick(&mut self, view: &SocketView, tick: &TickRecord) -> GrStep {
        let srtt = view.srtt;
        let thr = view.delivery_rate_bps / RATE_SCALE;
        let rtt_rate = if self.prev_rtt > 0.0 && view.latest_rtt > 0.0 {
            view.latest_rtt / self.prev_rtt
        } else {
            1.0
        };
        let lost_bytes = tick.lost_bytes_delta as f64 / BYTES_SCALE;
        let inflight = view.inflight_bytes as f64 / BYTES_SCALE;

        self.rtt_w.push(srtt);
        self.thr_w.push(thr);
        self.rtt_rate_w.push(rtt_rate);
        self.rtt_var_w.push(view.rttvar);
        self.inflight_w.push(inflight);
        self.lost_w.push(lost_bytes);

        let mut s = Vec::with_capacity(STATE_DIM);
        // Rows 1-4.
        s.push(srtt);
        s.push(view.rttvar);
        s.push(thr);
        s.push(view.ca_state.as_f64());
        // Rows 5-58: the six three-timescale signal groups.
        self.rtt_w.emit(&mut s);
        self.thr_w.emit(&mut s);
        self.rtt_rate_w.emit(&mut s);
        self.rtt_var_w.emit(&mut s);
        self.inflight_w.emit(&mut s);
        self.lost_w.emit(&mut s);
        // Rows 59-69: instantaneous derived signals.
        let dt = (view.now.saturating_sub(self.prev_time)) as f64 / 1e9;
        let time_delta = if view.min_rtt > 0.0 {
            dt / view.min_rtt
        } else {
            0.0
        };
        s.push(time_delta.min(100.0)); // 59 time_delta
        s.push(rtt_rate); // 60 rtt_rate
        s.push(lost_bytes / dt.max(1e-9) / RATE_SCALE * 8.0 * BYTES_SCALE); // 61 loss_db (bit/s scaled)
        let acked_delta = view
            .delivered_bytes_total
            .saturating_sub(self.prev_delivered_bytes);
        let acked_rate = acked_delta as f64 * 8.0 / dt.max(1e-9) / RATE_SCALE;
        s.push(acked_rate); // 62 acked_rate
        let dr_ratio = if self.prev_dr > 0.0 && view.delivery_rate_bps > 0.0 {
            view.delivery_rate_bps / self.prev_dr
        } else {
            1.0
        };
        s.push(dr_ratio.min(100.0)); // 63 dr_ratio
        let bdp = view.bdp_pkts();
        let bdp_cwnd = if view.cwnd_pkts > 0.0 {
            bdp / view.cwnd_pkts
        } else {
            0.0
        };
        s.push(bdp_cwnd.min(100.0)); // 64 bdp_cwnd
        s.push(view.delivery_rate_bps / RATE_SCALE); // 65 dr
        let unacked_rate = if view.sent_bytes_total > 0 {
            view.inflight_bytes as f64 / view.sent_bytes_total as f64
        } else {
            0.0
        };
        s.push(unacked_rate); // 66 cwnd_unacked_rate
        s.push(view.max_delivery_rate_bps / RATE_SCALE); // 67 dr_max
        let dr_max_ratio = if view.prev_max_delivery_rate_bps > 0.0 {
            view.max_delivery_rate_bps / view.prev_max_delivery_rate_bps
        } else {
            1.0
        };
        s.push(dr_max_ratio.min(100.0)); // 68 dr_max_ratio
        s.push(self.prev_action); // 69 pre_act

        debug_assert_eq!(s.len(), STATE_DIM);

        // Action = cwnd ratio.
        let action = if self.prev_cwnd > 0.0 {
            (tick.cwnd_pkts / self.prev_cwnd).clamp(0.05, 20.0)
        } else {
            1.0
        };
        let r1 = crate::reward::reward_power(
            &self.reward,
            tick.goodput_bps,
            tick.lost_bytes_delta as f64 * 8.0 / dt.max(1e-9),
            tick.mean_owd,
            view.min_rtt,
        );

        self.prev_cwnd = tick.cwnd_pkts;
        self.prev_action = action;
        self.prev_rtt = view.latest_rtt;
        self.prev_dr = view.delivery_rate_bps;
        self.prev_time = view.now;
        self.prev_delivered_bytes = view.delivered_bytes_total;
        self.prev_dr_max = view.max_delivery_rate_bps;

        GrStep {
            state: s,
            action,
            reward_power: r1,
            delivery_bps: tick.goodput_bps,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reward::RewardParams;
    use sage_transport::cc::CaState;

    pub(crate) fn view(now: u64, cwnd: f64) -> SocketView {
        SocketView {
            now,
            mss: 1500,
            srtt: 0.05,
            rttvar: 0.002,
            latest_rtt: 0.05,
            prev_rtt: 0.05,
            min_rtt: 0.04,
            inflight_pkts: 20.0,
            inflight_bytes: 30_000,
            delivery_rate_bps: 12e6,
            prev_delivery_rate_bps: 12e6,
            max_delivery_rate_bps: 14e6,
            prev_max_delivery_rate_bps: 14e6,
            ca_state: CaState::Open,
            delivered_bytes_total: 1_000_000,
            sent_bytes_total: 1_100_000,
            lost_bytes_total: 0,
            lost_pkts_total: 0,
            cwnd_pkts: cwnd,
            ssthresh_pkts: f64::INFINITY,
        }
    }

    fn tick(now: u64, cwnd: f64) -> TickRecord {
        TickRecord {
            now,
            goodput_bps: 12e6,
            mean_owd: 0.03,
            lost_bytes_delta: 0,
            cwnd_pkts: cwnd,
        }
    }

    #[test]
    fn state_has_exactly_69_elements() {
        let mut gr = GrUnit::new(GrConfig::default(), RewardParams::default());
        let step = gr.on_tick(&view(10_000_000, 10.0), &tick(10_000_000, 10.0));
        assert_eq!(step.state.len(), STATE_DIM);
        assert_eq!(STATE_NAMES.len(), STATE_DIM);
    }

    #[test]
    fn action_is_cwnd_ratio() {
        let mut gr = GrUnit::new(GrConfig::default(), RewardParams::default());
        let s1 = gr.on_tick(&view(10_000_000, 10.0), &tick(10_000_000, 10.0));
        assert_eq!(s1.action, 1.0, "first step has no previous cwnd");
        let s2 = gr.on_tick(&view(20_000_000, 15.0), &tick(20_000_000, 15.0));
        assert!((s2.action - 1.5).abs() < 1e-12);
        let s3 = gr.on_tick(&view(30_000_000, 7.5), &tick(30_000_000, 7.5));
        assert!((s3.action - 0.5).abs() < 1e-12);
    }

    #[test]
    fn action_ratio_is_clamped() {
        let mut gr = GrUnit::new(GrConfig::default(), RewardParams::default());
        gr.on_tick(&view(10_000_000, 10.0), &tick(10_000_000, 10.0));
        let s = gr.on_tick(&view(20_000_000, 10_000.0), &tick(20_000_000, 10_000.0));
        assert_eq!(s.action, 20.0);
    }

    #[test]
    fn windows_track_signal_changes() {
        let mut gr = GrUnit::new(
            GrConfig {
                small: 2,
                medium: 4,
                large: 8,
            },
            RewardParams::default(),
        );
        let mut v = view(10_000_000, 10.0);
        for i in 1..=8u64 {
            v.now = i * 10_000_000;
            v.srtt = 0.01 * i as f64;
            gr.on_tick(&v, &tick(v.now, 10.0));
        }
        let step = gr.on_tick(&v, &tick(v.now, 10.0));
        // rtt_s.max (idx 6) over last 2 >= rtt_s.min (idx 5).
        assert!(step.state[6] >= step.state[5]);
        // rtt_l windows hold older (smaller) samples, so rtt_l.min < rtt_s.min.
        assert!(step.state[11] < step.state[5]);
    }

    #[test]
    fn previous_action_is_echoed() {
        let mut gr = GrUnit::new(GrConfig::default(), RewardParams::default());
        gr.on_tick(&view(10_000_000, 10.0), &tick(10_000_000, 10.0));
        let s2 = gr.on_tick(&view(20_000_000, 20.0), &tick(20_000_000, 20.0));
        let s3 = gr.on_tick(&view(30_000_000, 20.0), &tick(30_000_000, 20.0));
        // pre_act in s3 must equal s2's action (2.0).
        assert!((s3.state[68] - s2.action).abs() < 1e-12);
    }

    #[test]
    fn all_features_finite() {
        let mut gr = GrUnit::new(GrConfig::default(), RewardParams::default());
        for i in 1..=50u64 {
            let step = gr.on_tick(&view(i * 10_000_000, 10.0), &tick(i * 10_000_000, 10.0));
            assert!(
                step.state.iter().all(|x| x.is_finite()),
                "non-finite at tick {i}"
            );
        }
    }
}
