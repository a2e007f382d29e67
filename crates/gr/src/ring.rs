//! Fixed-capacity ring buffer with O(1) windowed mean and amortised-O(1)
//! min/max (monotonic deques): one per window per signal, the GR unit's
//! storage before its one-ring history. Kept only under `cfg(test)`, as the
//! reference that history must equal bit for bit.
//!
//! The min/max fast path must return bit-identical results to the legacy
//! `fold(INFINITY, f64::min)` scan: `f64::min`/`f64::max` ignore NaN
//! operands, and ties between `0.0` and `-0.0` are resolved by evaluation
//! order. The deques cannot reproduce either corner, so any window holding a
//! NaN or a negative zero falls back to the exact legacy fold.

use std::collections::VecDeque;

/// A sliding window over the last `capacity` samples.
#[derive(Debug, Clone)]
pub struct RingWindow {
    buf: Vec<f64>,
    capacity: usize,
    head: usize,
    len: usize,
    sum: f64,
    /// Monotonically increasing index of the next push.
    seq: u64,
    /// Live samples that are NaN or -0.0 (legacy-fold fallback trigger).
    odd: usize,
    /// Monotonic deque of (seq, value), values strictly increasing: the
    /// front is the window minimum.
    min_q: VecDeque<(u64, f64)>,
    /// Monotonic deque of (seq, value), values strictly decreasing: the
    /// front is the window maximum.
    max_q: VecDeque<(u64, f64)>,
}

impl RingWindow {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        RingWindow {
            buf: vec![0.0; capacity],
            capacity,
            head: 0,
            len: 0,
            sum: 0.0,
            seq: 0,
            odd: 0,
            min_q: VecDeque::new(),
            max_q: VecDeque::new(),
        }
    }

    fn needs_fold(x: f64) -> bool {
        x.is_nan() || (x == 0.0 && x.is_sign_negative())
    }

    /// Push a sample, evicting the oldest once full.
    pub fn push(&mut self, x: f64) {
        if self.len == self.capacity {
            let old = self.buf[self.head];
            self.sum -= old;
            if Self::needs_fold(old) {
                self.odd -= 1;
            }
        } else {
            self.len += 1;
        }
        self.buf[self.head] = x;
        self.head = (self.head + 1) % self.capacity;
        self.sum += x;
        if Self::needs_fold(x) {
            self.odd += 1;
        }
        if !x.is_nan() {
            // Keep only the newest of equal values: the extremum is the same.
            while self.min_q.back().is_some_and(|&(_, v)| v >= x) {
                self.min_q.pop_back();
            }
            self.min_q.push_back((self.seq, x));
            while self.max_q.back().is_some_and(|&(_, v)| v <= x) {
                self.max_q.pop_back();
            }
            self.max_q.push_back((self.seq, x));
        }
        self.seq += 1;
        // Live samples span seqs [seq - len, seq).
        let oldest = self.seq - self.len as u64;
        while self.min_q.front().is_some_and(|&(s, _)| s < oldest) {
            self.min_q.pop_front();
        }
        while self.max_q.front().is_some_and(|&(s, _)| s < oldest) {
            self.max_q.pop_front();
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mean of the samples currently in the window (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.sum / self.len as f64
        }
    }

    /// Minimum of the samples currently in the window (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        if self.odd > 0 {
            return self.iter().fold(f64::INFINITY, f64::min);
        }
        match self.min_q.front() {
            Some(&(_, v)) => v,
            None => f64::INFINITY,
        }
    }

    /// Maximum of the samples currently in the window (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        if self.odd > 0 {
            return self.iter().fold(f64::NEG_INFINITY, f64::max);
        }
        match self.max_q.front() {
            Some(&(_, v)) => v,
            None => f64::NEG_INFINITY,
        }
    }

    /// Most recently pushed sample.
    pub fn last(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            let idx = (self.head + self.capacity - 1) % self.capacity;
            Some(self.buf[idx])
        }
    }

    /// Iterate oldest-to-newest over the live samples.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let start = (self.head + self.capacity - self.len) % self.capacity;
        (0..self.len).map(move |i| self.buf[(start + i) % self.capacity])
    }

    /// Clear the window without deallocating.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.sum = 0.0;
        self.odd = 0;
        self.min_q.clear();
        self.max_q.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_util::prop::{forall, PropConfig};

    #[test]
    fn fills_then_evicts_oldest() {
        let mut w = RingWindow::new(3);
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
        assert_eq!(w.len(), 3);
        assert!((w.mean() - 2.0).abs() < 1e-12);
        w.push(10.0); // evicts 1.0
        assert_eq!(w.len(), 3);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 10.0);
    }

    #[test]
    fn empty_window_is_zero() {
        let w = RingWindow::new(4);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
        assert_eq!(w.last(), None);
    }

    #[test]
    fn last_tracks_most_recent() {
        let mut w = RingWindow::new(2);
        w.push(5.0);
        assert_eq!(w.last(), Some(5.0));
        w.push(6.0);
        w.push(7.0);
        assert_eq!(w.last(), Some(7.0));
    }

    #[test]
    fn iter_is_oldest_to_newest() {
        let mut w = RingWindow::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        let v: Vec<f64> = w.iter().collect();
        assert_eq!(v, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn clear_empties() {
        let mut w = RingWindow::new(3);
        w.push(1.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        w.push(4.0);
        w.push(2.0);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 4.0);
    }

    /// Bit-exact reference: the pre-deque O(n) implementation.
    fn fold_min(w: &RingWindow) -> f64 {
        if w.is_empty() {
            0.0
        } else {
            w.iter().fold(f64::INFINITY, f64::min)
        }
    }

    fn fold_max(w: &RingWindow) -> f64 {
        if w.is_empty() {
            0.0
        } else {
            w.iter().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    #[test]
    fn deque_min_max_matches_legacy_fold() {
        forall(
            "ring min/max == legacy fold",
            PropConfig::default(),
            |rng| {
                let cap = 1 + (rng.next_u64() % 16) as usize;
                let mut w = RingWindow::new(cap);
                let steps = 1 + (rng.next_u64() % 200) as usize;
                for _ in 0..steps {
                    // Mix plain values with duplicates, NaN, zeros of both
                    // signs, and infinities to hit every fallback corner.
                    let x = match rng.next_u64() % 10 {
                        0 => f64::NAN,
                        1 => 0.0,
                        2 => -0.0,
                        3 => f64::INFINITY,
                        4 => (rng.next_u64() % 4) as f64, // duplicates
                        _ => rng.range(-100.0, 100.0),
                    };
                    w.push(x);
                    let (m, fm) = (w.min(), fold_min(&w));
                    if m.to_bits() != fm.to_bits() {
                        return Err(format!("min {m} != fold {fm}"));
                    }
                    let (mx, fmx) = (w.max(), fold_max(&w));
                    if mx.to_bits() != fmx.to_bits() {
                        return Err(format!("max {mx} != fold {fmx}"));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn all_nan_window_matches_legacy_sentinels() {
        let mut w = RingWindow::new(4);
        w.push(f64::NAN);
        w.push(f64::NAN);
        // fold(INFINITY, f64::min) over NaNs keeps the sentinel.
        assert_eq!(w.min(), f64::INFINITY);
        assert_eq!(w.max(), f64::NEG_INFINITY);
    }
}
