//! The 69-element input representation of Table 1.

use sage_transport::sim::TickRecord;
use sage_transport::SocketView;

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
    pub state: [f64; STATE_DIM],
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

/// Rows 5-58: avg/min/max of three windows of each signal.
const WINDOWED: usize = SIGNALS * 9;

/// Windowed statistics over the six signal groups: what rows 5-58 read.
trait Windows {
    fn push(&mut self, row: [f64; SIGNALS]);

    /// avg/min/max of the Small, Medium and Large window of each signal:
    /// the [`WINDOWED`] values, in Table 1 order, written to the front of
    /// `out`.
    fn emit(&self, out: &mut [f64]);
}

/// NaN and −0.0: the values a window's min/max must fold for. `f64::min`
/// and `f64::max` skip NaN operands and resolve ±0.0 ties by evaluation
/// order, and the deques reproduce neither.
fn needs_fold(x: f64) -> bool {
    x.is_nan() || (x == 0.0 && x.is_sign_negative())
}

/// One flow's history of the six signals: a single ring of rows, read by
/// all three windows, that grows one push at a time up to the largest
/// window; per signal and window a running sum and a count of live
/// [`needs_fold`] values; per signal one min and one max [`Extremum`] over
/// the largest window, with a cursor per window.
struct History {
    /// Small, Medium, Large window lengths, in ticks.
    wins: [usize; 3],
    /// The largest window: the ring's length once it has grown.
    cap: usize,
    /// The last `min(pushed, cap)` rows. While it grows, `head` is its
    /// length, so the lag index `(head + len - w) % len` reads the same
    /// row as in the grown ring.
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
/// window the position of its first entry inside that window. Windows are
/// suffixes of one history, so the entry under a window's cursor is that
/// window's extremum.
///
/// The deque is an index ring: positions count up from the first push and
/// never move, entry `p` lives in slot `p % buf.len()`, and the live entries
/// are `head..tail`. Dropping stale entries from the front is moving `head`,
/// with nothing shifted or drained. The ring starts empty and doubles when
/// full, so a young history holds no more than it has seen.
#[derive(Default)]
struct Extremum {
    buf: Vec<(u64, f64)>,
    head: usize,
    tail: usize,
    at: [usize; 3],
}

impl Extremum {
    /// The entry at position `p` (one of `head..tail`).
    fn entry(&self, p: usize) -> (u64, f64) {
        self.buf[p & (self.buf.len() - 1)]
    }

    /// Append `x`, pushed as `seq`, after dropping every entry it `beats`:
    /// such an entry can never be an extremum again. Of equal values only
    /// the newest is kept; the extremum is the same.
    fn push(&mut self, seq: u64, x: f64, beats: impl Fn(f64, f64) -> bool) {
        while self.tail > self.head && beats(x, self.entry(self.tail - 1).1) {
            self.tail -= 1;
        }
        for a in &mut self.at {
            *a = (*a).min(self.tail);
        }
        if self.tail - self.head == self.buf.len() {
            self.grow();
        }
        let slot = self.tail & (self.buf.len() - 1);
        self.buf[slot] = (seq, x);
        self.tail += 1;
    }

    /// Double the ring (at least four slots), each live entry moving to its
    /// position's slot in the larger one.
    fn grow(&mut self) {
        let cap = (2 * self.buf.len()).max(4);
        let mut buf = vec![(0, 0.0); cap];
        for p in self.head..self.tail {
            buf[p & (cap - 1)] = self.entry(p);
        }
        self.buf = buf;
    }

    /// Move each window's cursor past the entries older than that window's
    /// oldest live push; the entries no window reaches leave the front.
    fn advance(&mut self, oldest: &[u64; 3]) {
        for (k, &o) in oldest.iter().enumerate() {
            while self.at[k] < self.tail && self.entry(self.at[k]).0 < o {
                self.at[k] += 1;
            }
        }
        self.head = self.at.iter().copied().min().unwrap_or(self.tail);
    }

    /// Window `k`'s extremum; `None` if the window holds only NaNs.
    fn get(&self, k: usize) -> Option<f64> {
        (self.at[k] < self.tail).then(|| self.entry(self.at[k]).1)
    }
}

impl History {
    fn new(cfg: &GrConfig) -> Self {
        let wins = [cfg.small, cfg.medium, cfg.large];
        assert!(
            wins.iter().all(|&w| w > 0),
            "window capacity must be positive"
        );
        History {
            wins,
            cap: wins.iter().copied().max().unwrap_or(1),
            rows: Vec::new(),
            head: 0,
            pushed: 0,
            tracks: Default::default(),
        }
    }

    /// Window of length `len` (at most the ring's) of signal `j`, oldest
    /// to newest.
    fn window(&self, j: usize, len: usize) -> impl Iterator<Item = f64> + '_ {
        let n = self.rows.len();
        let start = (self.head + n - len) % n;
        (0..len).map(move |i| self.rows[(start + i) % n][j])
    }
}

impl Windows for History {
    fn push(&mut self, row: [f64; SIGNALS]) {
        let n = self.rows.len();
        let seq = self.pushed;
        // Each full window gives up its oldest row before the new one is
        // added: the reference's order of float operations.
        for (k, &w) in self.wins.iter().enumerate() {
            if seq >= w as u64 {
                let old = self.rows[(self.head + n - w) % n];
                for (t, &x) in self.tracks.iter_mut().zip(&old) {
                    t.sum[k] -= x;
                    if needs_fold(x) {
                        t.odd[k] -= 1;
                    }
                }
            }
        }
        if n < self.cap {
            self.rows.push(row);
        } else {
            self.rows[self.head] = row;
        }
        self.head = (self.head + 1) % self.cap;
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

    fn emit(&self, out: &mut [f64]) {
        let mut out = out.chunks_exact_mut(3);
        for (j, t) in self.tracks.iter().enumerate() {
            for ((k, &w), o) in self.wins.iter().enumerate().zip(&mut out) {
                let len = self.pushed.min(w as u64) as usize;
                o[0] = t.sum[k] / len as f64;
                (o[1], o[2]) = if t.odd[k] > 0 {
                    self.window(j, len)
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                            (lo.min(x), hi.max(x))
                        })
                } else {
                    (
                        t.min.get(k).unwrap_or(f64::INFINITY),
                        t.max.get(k).unwrap_or(f64::NEG_INFINITY),
                    )
                };
            }
        }
    }
}

/// Stateful builder producing one [`GrStep`] per monitor tick.
pub struct GrUnit {
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
            reward,
            carry: Carry::new(),
        }
    }

    /// Rows the signal history holds: the ticks seen, up to the largest
    /// window.
    pub fn history_rows(&self) -> usize {
        self.history.rows.len()
    }

    /// Ingest one monitor tick; returns the recorded step: the state and its
    /// action and reward labels.
    pub fn on_tick(&mut self, view: &SocketView, tick: &TickRecord) -> GrStep {
        let mut state = [0.0; STATE_DIM];
        let (action, dt) = self.carry.tick(&mut self.history, view, tick, &mut state);
        let reward_power = crate::reward::reward_power(
            &self.reward,
            tick.goodput_bps,
            tick.lost_bytes_delta as f64 * 8.0 / dt.max(1e-9),
            tick.mean_owd,
            view.min_rtt,
        );
        GrStep {
            state,
            action,
            reward_power,
            delivery_bps: tick.goodput_bps,
        }
    }

    /// [`Self::on_tick`] without the labels: the state alone, which is all a
    /// deployed controller acts on. The unit advances exactly as there.
    pub fn observe(&mut self, view: &SocketView, tick: &TickRecord) -> [f64; STATE_DIM] {
        let mut state = [0.0; STATE_DIM];
        self.carry.tick(&mut self.history, view, tick, &mut state);
        state
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

    /// Push the tick into `windows`, write the state into `s`, and return
    /// the action `a_t` and the seconds since the previous tick.
    fn tick(
        &mut self,
        windows: &mut impl Windows,
        view: &SocketView,
        tick: &TickRecord,
        s: &mut [f64; STATE_DIM],
    ) -> (f64, f64) {
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

        let (head, rest) = s.split_at_mut(4);
        let (windowed, derived) = rest.split_at_mut(WINDOWED);
        // Rows 1-4.
        head.copy_from_slice(&[srtt, view.rttvar, thr, view.ca_state.as_f64()]);
        // Rows 5-58: the six three-timescale signal groups.
        windows.emit(windowed);
        // Rows 59-69: instantaneous derived signals.
        let dt = (view.now.saturating_sub(self.time)) as f64 / 1e9;
        let time_delta = if view.min_rtt > 0.0 {
            dt / view.min_rtt
        } else {
            0.0
        };
        let acked_delta = view
            .delivered_bytes_total
            .saturating_sub(self.delivered_bytes);
        let acked_rate = acked_delta as f64 * 8.0 / dt.max(1e-9) / RATE_SCALE;
        let dr_ratio = if self.dr > 0.0 && view.delivery_rate_bps > 0.0 {
            view.delivery_rate_bps / self.dr
        } else {
            1.0
        };
        let bdp = view.bdp_pkts();
        let bdp_cwnd = if view.cwnd_pkts > 0.0 {
            bdp / view.cwnd_pkts
        } else {
            0.0
        };
        let unacked_rate = if view.sent_bytes_total > 0 {
            view.inflight_bytes as f64 / view.sent_bytes_total as f64
        } else {
            0.0
        };
        let dr_max_ratio = if view.prev_max_delivery_rate_bps > 0.0 {
            view.max_delivery_rate_bps / view.prev_max_delivery_rate_bps
        } else {
            1.0
        };
        derived.copy_from_slice(&[
            time_delta.min(100.0),                                      // 59 time_delta
            rtt_rate,                                                   // 60 rtt_rate
            lost_bytes / dt.max(1e-9) / RATE_SCALE * 8.0 * BYTES_SCALE, // 61 loss_db (bit/s scaled)
            acked_rate,                                                 // 62 acked_rate
            dr_ratio.min(100.0),                                        // 63 dr_ratio
            bdp_cwnd.min(100.0),                                        // 64 bdp_cwnd
            view.delivery_rate_bps / RATE_SCALE,                        // 65 dr
            unacked_rate,                                               // 66 cwnd_unacked_rate
            view.max_delivery_rate_bps / RATE_SCALE,                    // 67 dr_max
            dr_max_ratio.min(100.0),                                    // 68 dr_max_ratio
            self.action,                                                // 69 pre_act
        ]);

        // Action = cwnd ratio.
        let action = if self.cwnd > 0.0 {
            (tick.cwnd_pkts / self.cwnd).clamp(0.05, 20.0)
        } else {
            1.0
        };

        self.cwnd = tick.cwnd_pkts;
        self.action = action;
        self.rtt = view.latest_rtt;
        self.dr = view.delivery_rate_bps;
        self.time = view.now;
        self.delivered_bytes = view.delivered_bytes_total;
        (action, dt)
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

        fn emit(&self, out: &mut [f64]) {
            let windows = self.iter().flat_map(|t| [&t.s, &t.m, &t.l]);
            for (w, o) in windows.zip(out.chunks_exact_mut(3)) {
                o.copy_from_slice(&[w.mean(), w.min(), w.max()]);
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
                    let (mut got, mut want) = ([0.0; WINDOWED], [0.0; WINDOWED]);
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
    fn history_holds_only_the_rows_pushed_up_to_the_largest_window() {
        let cfg = GrConfig {
            small: 3,
            medium: 40,
            large: 7,
        };
        let mut history = History::new(&cfg);
        assert!(history.rows.is_empty());
        for n in 1..=100 {
            history.push([n as f64; SIGNALS]);
            assert_eq!(history.rows.len(), n.min(40), "after {n} pushes");
        }
        assert!(history.rows.capacity() <= 64);
    }

    /// The default 10/200/1000 windows over 2 500 pushes, NaN and −0.0
    /// inside the first 1 000: the fold path reads a ring still growing,
    /// then one that has wrapped.
    #[test]
    fn growing_ring_equals_the_reference_for_the_default_windows() {
        let cfg = GrConfig::default();
        let mut history = History::new(&cfg);
        let mut reference = tris(&cfg);
        let mut rng = Rng::new(0x0E83);
        let mut row = [0.0; SIGNALS];
        for t in 0..2_500 {
            let odd = if (150..170).contains(&t) || (600..640).contains(&t) {
                0.3
            } else {
                0.0
            };
            for x in &mut row {
                *x = sample(&mut rng, odd, *x);
            }
            if t == 400 {
                row[0] = -0.0;
                row[1] = f64::NAN;
            }
            history.push(row);
            reference.push(row);
            let (mut got, mut want) = ([0.0; WINDOWED], [0.0; WINDOWED]);
            history.emit(&mut got);
            reference.emit(&mut want);
            assert!(same_bits(&got, &want), "push {t}");
            assert_eq!(history.rows.len(), (t + 1).min(1_000));
        }
    }

    /// The extremum rings from empty to the largest window: an ascending
    /// ramp keeps every push in the min ring (1 000 entries at the default
    /// windows, through every doubling to 1 024 slots) while the max ring
    /// holds one; a descending ramp turns both around. NaN and −0.0 bursts
    /// ride on both ramps, so windows fold and then return to the rings.
    #[test]
    fn extremum_rings_grow_through_every_doubling_and_equal_the_reference() {
        let cfg = GrConfig::default();
        let mut history = History::new(&cfg);
        let mut reference = tris(&cfg);
        let mut caps = Vec::new();
        for t in 0..2_500usize {
            let ramp = if t < 1_250 {
                t as f64
            } else {
                (2_500 - t) as f64
            };
            let mut row = [ramp; SIGNALS];
            // The bursts spare the last signal, whose rings are counted.
            if (300..320).contains(&t) || (1_900..1_930).contains(&t) {
                row[t % (SIGNALS - 1)] = if t % 2 == 0 { f64::NAN } else { -0.0 };
                row[(t + 2) % (SIGNALS - 1)] = -0.0;
            }
            history.push(row);
            reference.push(row);
            let (mut got, mut want) = ([0.0; WINDOWED], [0.0; WINDOWED]);
            history.emit(&mut got);
            reference.emit(&mut want);
            assert!(same_bits(&got, &want), "push {t}");
            let min = &history.tracks[SIGNALS - 1].min;
            if caps.last() != Some(&min.buf.len()) {
                caps.push(min.buf.len());
            }
            if t == 1_249 {
                assert_eq!(min.tail - min.head, 1_000, "ascending: every push is a min");
                let max = &history.tracks[SIGNALS - 1].max;
                assert_eq!(max.tail - max.head, 1, "ascending: the newest is the max");
            }
        }
        assert_eq!(caps, [4, 8, 16, 32, 64, 128, 256, 512, 1_024]);
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
                // Advanced through the label-free path alongside.
                let mut observer = GrUnit::new(cfg, reward);
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
                    let observed = observer.observe(&v, &tk);
                    let mut want = [0.0; STATE_DIM];
                    let (action, dt) = carry.tick(&mut reference, &v, &tk, &mut want);
                    // Opaque, as the unit's own copy is: with κ = 2 in sight
                    // the compiler may square instead of calling `powf`.
                    let r1 = crate::reward::reward_power(
                        std::hint::black_box(&reward),
                        tk.goodput_bps,
                        tk.lost_bytes_delta as f64 * 8.0 / dt.max(1e-9),
                        tk.mean_owd,
                        v.min_rtt,
                    );
                    let scalars = [got.action, got.reward_power, got.delivery_bps];
                    if !same_bits(&got.state, &want)
                        || !same_bits(&observed, &want)
                        || !same_bits(&scalars, &[action, r1, tk.goodput_bps])
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
