//! The 69-element input representation of Table 1.

use sage_transport::sim::TickRecord;
use sage_transport::SocketView;
use std::collections::VecDeque;

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

/// The six signal groups of Table 1 rows 5-58, in row order: srtt, thr,
/// rtt_rate, rttvar, inflight, lost.
const SIGNALS: usize = 6;

/// Windowed statistics over the six signal groups: what rows 5-58 read.
trait Windows {
    fn push(&mut self, row: [f64; SIGNALS]);

    /// avg/min/max of the Small, Medium and Large window of each signal:
    /// 54 values, in Table 1 order.
    fn emit(&self, out: &mut Vec<f64>);
}

/// NaN and −0.0: the values a window's min/max must fold for. `f64::min`
/// and `f64::max` skip NaN operands and resolve ±0.0 ties by evaluation
/// order, and the deques reproduce neither.
fn needs_fold(x: f64) -> bool {
    x.is_nan() || (x == 0.0 && x.is_sign_negative())
}

/// One flow's history of the six signals: a single ring of rows sized to
/// the largest window, read by all three windows; per signal and window a
/// running sum and a count of live [`needs_fold`] values; per signal one
/// min and one max deque over the largest window, with a cursor per window.
struct History {
    /// Small, Medium, Large window lengths, in ticks.
    wins: [usize; 3],
    rows: Vec<[f64; SIGNALS]>,
    /// Slot of the next push.
    head: usize,
    /// Pushes so far, which is the sequence number of the next push.
    pushed: u64,
    tracks: [Track; SIGNALS],
}

/// One signal's running statistics over the three windows.
#[derive(Default)]
struct Track {
    sum: [f64; 3],
    /// Live [`needs_fold`] values per window: the window folds while any.
    odd: [u32; 3],
    min: Extremum,
    max: Extremum,
}

/// A monotonic deque of `(seq, value)` over the largest window, and per
/// window the index of its first entry inside that window. Windows are
/// suffixes of one history, so the entry under a window's cursor is that
/// window's extremum.
#[derive(Default)]
struct Extremum {
    q: VecDeque<(u64, f64)>,
    at: [usize; 3],
}

impl Extremum {
    /// Append `x`, pushed as `seq`, after dropping every entry it `beats`:
    /// such an entry can never be an extremum again. Of equal values only
    /// the newest is kept; the extremum is the same.
    fn push(&mut self, seq: u64, x: f64, beats: impl Fn(f64, f64) -> bool) {
        while self.q.back().is_some_and(|&(_, v)| beats(x, v)) {
            self.q.pop_back();
        }
        let n = self.q.len();
        for a in &mut self.at {
            *a = (*a).min(n);
        }
        self.q.push_back((seq, x));
    }

    /// Move each window's cursor past the entries older than that window's
    /// oldest live push, then drop the entries no window reaches.
    fn advance(&mut self, oldest: &[u64; 3]) {
        for (a, &o) in self.at.iter_mut().zip(oldest) {
            while self.q.get(*a).is_some_and(|&(s, _)| s < o) {
                *a += 1;
            }
        }
        let stale = self.at.iter().copied().min().unwrap_or(0);
        self.q.drain(..stale);
        for a in &mut self.at {
            *a -= stale;
        }
    }

    /// Window `k`'s extremum; `None` if the window holds only NaNs.
    fn get(&self, k: usize) -> Option<f64> {
        self.q.get(self.at[k]).map(|&(_, v)| v)
    }
}

impl History {
    fn new(cfg: &GrConfig) -> Self {
        let wins = [cfg.small, cfg.medium, cfg.large];
        assert!(
            wins.iter().all(|&w| w > 0),
            "window capacity must be positive"
        );
        let cap = wins.iter().copied().max().unwrap_or(1);
        History {
            wins,
            rows: vec![[0.0; SIGNALS]; cap],
            head: 0,
            pushed: 0,
            tracks: Default::default(),
        }
    }

    /// Window of length `len` (at most the ring's) of signal `j`, oldest
    /// to newest.
    fn window(&self, j: usize, len: usize) -> impl Iterator<Item = f64> + '_ {
        let cap = self.rows.len();
        let start = (self.head + cap - len) % cap;
        (0..len).map(move |i| self.rows[(start + i) % cap][j])
    }
}

impl Windows for History {
    fn push(&mut self, row: [f64; SIGNALS]) {
        let cap = self.rows.len();
        let seq = self.pushed;
        // Each full window gives up its oldest row before the new one is
        // added: the reference's order of float operations.
        for (k, &w) in self.wins.iter().enumerate() {
            if seq >= w as u64 {
                let old = self.rows[(self.head + cap - w) % cap];
                for (t, &x) in self.tracks.iter_mut().zip(&old) {
                    t.sum[k] -= x;
                    if needs_fold(x) {
                        t.odd[k] -= 1;
                    }
                }
            }
        }
        self.rows[self.head] = row;
        self.head = (self.head + 1) % cap;
        self.pushed += 1;
        let oldest = self.wins.map(|w| self.pushed.saturating_sub(w as u64));
        for (t, &x) in self.tracks.iter_mut().zip(&row) {
            for sum in &mut t.sum {
                *sum += x;
            }
            if needs_fold(x) {
                for odd in &mut t.odd {
                    *odd += 1;
                }
            }
            if !x.is_nan() {
                t.min.push(seq, x, |x, v| v >= x);
                t.max.push(seq, x, |x, v| v <= x);
            }
            t.min.advance(&oldest);
            t.max.advance(&oldest);
        }
    }

    fn emit(&self, out: &mut Vec<f64>) {
        for (j, t) in self.tracks.iter().enumerate() {
            for (k, &w) in self.wins.iter().enumerate() {
                let len = self.pushed.min(w as u64) as usize;
                out.push(t.sum[k] / len as f64);
                if t.odd[k] > 0 {
                    let (lo, hi) = self
                        .window(j, len)
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                            (lo.min(x), hi.max(x))
                        });
                    out.push(lo);
                    out.push(hi);
                } else {
                    out.push(t.min.get(k).unwrap_or(f64::INFINITY));
                    out.push(t.max.get(k).unwrap_or(f64::NEG_INFINITY));
                }
            }
        }
    }
}

/// Stateful builder producing one [`GrStep`] per monitor tick.
pub struct GrUnit {
    cfg: GrConfig,
    reward: crate::reward::RewardParams,
    history: History,
    carry: Carry,
}

/// What one tick leaves for the next: the previous tick's values that the
/// action and rows 59-69 are relative to.
struct Carry {
    cwnd: f64,
    action: f64,
    rtt: f64,
    dr: f64,
    time: u64,
    delivered_bytes: u64,
}

impl GrUnit {
    pub fn new(cfg: GrConfig, reward: crate::reward::RewardParams) -> Self {
        GrUnit {
            history: History::new(&cfg),
            cfg,
            reward,
            carry: Carry::new(),
        }
    }

    pub fn config(&self) -> GrConfig {
        self.cfg
    }

    /// Ingest one monitor tick; returns the recorded step.
    pub fn on_tick(&mut self, view: &SocketView, tick: &TickRecord) -> GrStep {
        self.carry.tick(&self.reward, &mut self.history, view, tick)
    }
}

impl Carry {
    fn new() -> Self {
        Carry {
            cwnd: 0.0,
            action: 1.0,
            rtt: 0.0,
            dr: 0.0,
            time: 0,
            delivered_bytes: 0,
        }
    }

    fn tick(
        &mut self,
        reward: &crate::reward::RewardParams,
        windows: &mut impl Windows,
        view: &SocketView,
        tick: &TickRecord,
    ) -> GrStep {
        let srtt = view.srtt;
        let thr = view.delivery_rate_bps / RATE_SCALE;
        let rtt_rate = if self.rtt > 0.0 && view.latest_rtt > 0.0 {
            view.latest_rtt / self.rtt
        } else {
            1.0
        };
        let lost_bytes = tick.lost_bytes_delta as f64 / BYTES_SCALE;
        let inflight = view.inflight_bytes as f64 / BYTES_SCALE;

        windows.push([srtt, thr, rtt_rate, view.rttvar, inflight, lost_bytes]);

        let mut s = Vec::with_capacity(STATE_DIM);
        // Rows 1-4.
        s.push(srtt);
        s.push(view.rttvar);
        s.push(thr);
        s.push(view.ca_state.as_f64());
        // Rows 5-58: the six three-timescale signal groups.
        windows.emit(&mut s);
        // Rows 59-69: instantaneous derived signals.
        let dt = (view.now.saturating_sub(self.time)) as f64 / 1e9;
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
            .saturating_sub(self.delivered_bytes);
        let acked_rate = acked_delta as f64 * 8.0 / dt.max(1e-9) / RATE_SCALE;
        s.push(acked_rate); // 62 acked_rate
        let dr_ratio = if self.dr > 0.0 && view.delivery_rate_bps > 0.0 {
            view.delivery_rate_bps / self.dr
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
        s.push(self.action); // 69 pre_act

        debug_assert_eq!(s.len(), STATE_DIM);

        // Action = cwnd ratio.
        let action = if self.cwnd > 0.0 {
            (tick.cwnd_pkts / self.cwnd).clamp(0.05, 20.0)
        } else {
            1.0
        };
        let r1 = crate::reward::reward_power(
            reward,
            tick.goodput_bps,
            tick.lost_bytes_delta as f64 * 8.0 / dt.max(1e-9),
            tick.mean_owd,
            view.min_rtt,
        );

        self.cwnd = tick.cwnd_pkts;
        self.action = action;
        self.rtt = view.latest_rtt;
        self.dr = view.delivery_rate_bps;
        self.time = view.now;
        self.delivered_bytes = view.delivered_bytes_total;

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
    use crate::ring::RingWindow;
    use sage_transport::cc::CaState;
    use sage_util::prop::{forall, PropConfig};
    use sage_util::Rng;

    /// Three rings per signal, one per window: the storage the one-ring
    /// history replaced, kept as its bit-for-bit reference.
    struct Tri {
        s: RingWindow,
        m: RingWindow,
        l: RingWindow,
    }

    fn tris(cfg: &GrConfig) -> [Tri; SIGNALS] {
        std::array::from_fn(|_| Tri {
            s: RingWindow::new(cfg.small),
            m: RingWindow::new(cfg.medium),
            l: RingWindow::new(cfg.large),
        })
    }

    impl Windows for [Tri; SIGNALS] {
        fn push(&mut self, row: [f64; SIGNALS]) {
            for (t, x) in self.iter_mut().zip(row) {
                t.s.push(x);
                t.m.push(x);
                t.l.push(x);
            }
        }

        fn emit(&self, out: &mut Vec<f64>) {
            for t in self {
                for w in [&t.s, &t.m, &t.l] {
                    out.push(w.mean());
                    out.push(w.min());
                    out.push(w.max());
                }
            }
        }
    }

    /// Windows of 1 to 40 ticks in any order (small > large included),
    /// or one of the configurations the figures run.
    fn random_config(rng: &mut Rng) -> GrConfig {
        let named = [
            GrConfig::default(),
            GrConfig::uniform(10),
            GrConfig::uniform(1),
            GrConfig {
                small: 300,
                medium: 7,
                large: 50,
            },
        ];
        if rng.chance(0.2) {
            return *rng.choose(&named);
        }
        let mut w = || {
            if rng.chance(0.2) {
                1
            } else {
                1 + rng.below(40)
            }
        };
        GrConfig {
            small: w(),
            medium: w(),
            large: w(),
        }
    }

    /// A sample: with chance `odd`, NaN or a signed zero; otherwise
    /// infinities, duplicates, runs and plain values.
    fn sample(rng: &mut Rng, odd: f64, last: f64) -> f64 {
        if rng.chance(odd) {
            return *rng.choose(&[f64::NAN, 0.0, -0.0]);
        }
        match rng.below(10) {
            0 => *rng.choose(&[f64::INFINITY, f64::NEG_INFINITY]),
            1 | 2 => rng.below(4) as f64,
            3 if last.is_finite() => last + rng.range(0.0, 1.0),
            4 if last.is_finite() => last - rng.range(0.0, 1.0),
            _ => rng.range(-100.0, 100.0),
        }
    }

    /// Equal bits, ±0.0 told apart; any two NaNs match, since Rust leaves
    /// the sign and payload of an arithmetic NaN unspecified.
    fn same(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same(x, y))
    }

    #[test]
    fn one_ring_history_equals_three_rings_per_signal() {
        forall(
            "history == three rings per signal",
            PropConfig::new(200, 0x0E81),
            |rng| {
                let cfg = random_config(rng);
                let mut history = History::new(&cfg);
                let mut reference = tris(&cfg);
                // Odd values come in bursts, so windows also leave them
                // behind and return to the deques.
                let odd = *rng.choose(&[0.0, 0.01, 0.1, 0.5]);
                let mut row = [0.0; SIGNALS];
                for t in 0..1 + rng.below(400) {
                    let burst = if (t / 60) % 2 == 1 { odd } else { 0.0 };
                    for x in &mut row {
                        *x = sample(rng, burst, *x);
                    }
                    history.push(row);
                    reference.push(row);
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    history.emit(&mut got);
                    reference.emit(&mut want);
                    if !same_bits(&got, &want) {
                        let i = (0..got.len())
                            .find(|&i| !same(got[i], want[i]))
                            .unwrap_or(0);
                        return Err(format!(
                            "{cfg:?}, push {t}, value {i}: {:#x} != {:#x}",
                            got[i].to_bits(),
                            want[i].to_bits()
                        ));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn gr_unit_equals_the_three_ring_reference_on_all_69_features() {
        forall(
            "GrUnit == three-ring reference, 69 features",
            PropConfig::new(60, 0x0E82),
            |rng| {
                let cfg = random_config(rng);
                let reward = RewardParams::default();
                let mut unit = GrUnit::new(cfg, reward);
                let (mut carry, mut reference) = (Carry::new(), tris(&cfg));
                let odd = *rng.choose(&[0.0, 0.02, 0.2]);
                let mut v = view(0, 10.0);
                for t in 0..1 + rng.below(600) {
                    let burst = if (t / 100) % 2 == 1 { odd } else { 0.0 };
                    v.now += rng.below(20_000_000) as u64;
                    v.srtt = sample(rng, burst, v.srtt);
                    v.rttvar = sample(rng, burst, v.rttvar);
                    v.latest_rtt = sample(rng, burst, v.latest_rtt);
                    v.delivery_rate_bps = sample(rng, burst, v.delivery_rate_bps) * 1e6;
                    v.inflight_bytes = rng.below(4) as u64 * 1500 * rng.below(100) as u64;
                    v.delivered_bytes_total += rng.below(100_000) as u64;
                    v.cwnd_pkts = 1.0 + rng.below(200) as f64;
                    let mut tk = tick(v.now, v.cwnd_pkts);
                    tk.lost_bytes_delta = *rng.choose(&[0, 0, 1500, 3000]);
                    let got = unit.on_tick(&v, &tk);
                    let want = carry.tick(&reward, &mut reference, &v, &tk);
                    let scalars = |s: &GrStep| [s.action, s.reward_power, s.delivery_bps];
                    if !same_bits(&got.state, &want.state)
                        || !same_bits(&scalars(&got), &scalars(&want))
                    {
                        return Err(format!("{cfg:?}, tick {t}: states differ"));
                    }
                }
                Ok(())
            },
        );
    }

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
