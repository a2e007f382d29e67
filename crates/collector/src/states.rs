//! A trajectory's state rows, coded bit for bit.
//!
//! Most of the 69 features do not change from one tick to the next: the
//! window minima and maxima hold for as long as their extremum stays in the
//! window, and the instantaneous rows repeat whenever the flow is idle. A
//! row is therefore stored as a 69-bit mask of the features whose f32 bit
//! pattern differs from the previous row's, plus those features' bit
//! patterns, in feature order. Every 16th row is a key row that stores all
//! 69, so a window decodes from at most 15 rows before its start. Equality
//! is on bits: every NaN payload and the sign of every zero survive the
//! round trip.

use sage_gr::STATE_DIM;

/// Distance between key rows.
const KEY_EVERY: usize = 16;

// A row's mask is one u64 and one u8.
const _: () = assert!(STATE_DIM <= 72);

/// Coded `rows x STATE_DIM` states (see the module docs). Encoded one row
/// at a time by [`States::push`], decoded by [`States::window`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct States {
    /// Per row, the features stored for it: bits 0-63 here, the rest in
    /// `masks_hi`.
    masks: Vec<u64>,
    masks_hi: Vec<u8>,
    /// The stored features' bit patterns, row after row.
    values: Vec<u32>,
    /// Where in `values` each key row starts.
    keys: Vec<usize>,
    /// The last row pushed, which the next one is coded against.
    last: [u32; STATE_DIM],
}

impl Default for States {
    fn default() -> Self {
        States {
            masks: Vec::new(),
            masks_hi: Vec::new(),
            values: Vec::new(),
            keys: Vec::new(),
            last: [0; STATE_DIM],
        }
    }
}

impl States {
    /// Rows stored.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Room for `rows` more rows' masks and key offsets, and for half of
    /// their values (the recorded pools store about two fifths).
    pub(crate) fn reserve_rows(&mut self, rows: usize) {
        self.masks.reserve_exact(rows);
        self.masks_hi.reserve_exact(rows);
        self.keys.reserve_exact(rows.div_ceil(KEY_EVERY));
        self.values.reserve(rows * STATE_DIM / 2);
    }

    /// Append a row.
    pub fn push(&mut self, row: &[f32; STATE_DIM]) {
        self.push_bits(&row.map(f32::to_bits));
    }

    /// Append a row given as f32 bit patterns.
    pub(crate) fn push_bits(&mut self, row: &[u32; STATE_DIM]) {
        let mut mask = [0u64; 2];
        if self.masks.len().is_multiple_of(KEY_EVERY) {
            self.keys.push(self.values.len());
            self.values.extend_from_slice(row);
            mask = [!0, (1 << (STATE_DIM - 64)) - 1];
        } else {
            for ((m, xs), lasts) in mask
                .iter_mut()
                .zip(row.chunks(64))
                .zip(self.last.chunks(64))
            {
                for (i, (x, last)) in xs.iter().zip(lasts).enumerate() {
                    *m |= ((x != last) as u64) << i;
                }
            }
            let mut kept = [0u32; STATE_DIM];
            let mut n = 0;
            for (half, &m) in row.chunks(64).zip(&mask) {
                let mut m = m;
                while m != 0 {
                    kept[n] = half[m.trailing_zeros() as usize];
                    n += 1;
                    m &= m - 1;
                }
            }
            self.values.extend_from_slice(&kept[..n]);
        }
        self.last = *row;
        self.masks.push(mask[0]);
        self.masks_hi.push(mask[1] as u8);
    }

    /// Give back what the vectors over-allocated while growing.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.masks.shrink_to_fit();
        self.masks_hi.shrink_to_fit();
        self.values.shrink_to_fit();
        self.keys.shrink_to_fit();
    }

    /// Bytes the coded rows occupy: masks, stored values and key offsets.
    pub fn coded_bytes(&self) -> usize {
        self.masks.len() * std::mem::size_of::<u64>()
            + self.masks_hi.len()
            + self.values.len() * std::mem::size_of::<u32>()
            + self.keys.len() * std::mem::size_of::<usize>()
    }

    /// Rows `start..start + len` (clipped to the stored rows), decoded from
    /// the key row at or before `start`.
    pub fn window(&self, start: usize, len: usize) -> Rows<'_> {
        let end = start.saturating_add(len).min(self.len());
        let mut rows = Rows {
            states: self,
            row: [0.0; STATE_DIM],
            next: end,
            at: 0,
            end,
        };
        if start < end {
            let key = start / KEY_EVERY;
            rows.next = key * KEY_EVERY;
            rows.at = self.keys[key];
            while rows.next < start {
                rows.step();
            }
        }
        rows
    }

    /// Every row, first to last.
    pub fn rows(&self) -> Rows<'_> {
        self.window(0, self.len())
    }
}

impl FromIterator<[f32; STATE_DIM]> for States {
    fn from_iter<I: IntoIterator<Item = [f32; STATE_DIM]>>(rows: I) -> Self {
        let mut states = States::default();
        for row in rows {
            states.push(&row);
        }
        states
    }
}

/// Decoded rows of a [`States`], in order; see [`States::window`].
pub struct Rows<'a> {
    states: &'a States,
    /// The row decoded last.
    row: [f32; STATE_DIM],
    /// The row the next step decodes.
    next: usize,
    /// Where that row's stored values start.
    at: usize,
    end: usize,
}

impl Rows<'_> {
    /// Decode row `next` over the previous one.
    fn step(&mut self) {
        let s = self.states;
        let (lo, hi) = (s.masks[self.next], s.masks_hi[self.next]);
        let n = (lo.count_ones() + hi.count_ones()) as usize;
        let (vlo, vhi) = s.values[self.at..self.at + n].split_at(lo.count_ones() as usize);
        let (rlo, rhi) = self.row.split_at_mut(64);
        let mut m = lo;
        for &x in vlo {
            rlo[m.trailing_zeros() as usize] = f32::from_bits(x);
            m &= m - 1;
        }
        let mut m = hi;
        for &x in vhi {
            rhi[m.trailing_zeros() as usize] = f32::from_bits(x);
            m &= m - 1;
        }
        self.at += n;
        self.next += 1;
    }
}

impl Iterator for Rows<'_> {
    type Item = [f32; STATE_DIM];

    fn next(&mut self) -> Option<[f32; STATE_DIM]> {
        if self.next >= self.end {
            return None;
        }
        self.step();
        Some(self.row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_util::prop::{forall, PropConfig};
    use sage_util::Rng;

    /// Bit patterns a row must carry unchanged: NaNs with payloads and
    /// either sign, both zeros, subnormals, both infinities, extremes.
    const ODD: [u32; 12] = [
        0x7FC0_0000,
        0xFFC0_0001,
        0x7F80_0001,
        0xFFBF_FFFF,
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x807F_FFFF,
        0x7F80_0000,
        0xFF80_0000,
        0x7F7F_FFFF,
        0x0080_0000,
    ];

    /// `n` rows in runs: held for a while, then some features or all of
    /// them change; values drawn from [`ODD`] and from plain floats.
    fn adversarial_rows(rng: &mut Rng, n: usize) -> Vec<[u32; STATE_DIM]> {
        let mut row = [0u32; STATE_DIM];
        let mut rows = Vec::with_capacity(n);
        let value = |rng: &mut Rng| {
            if rng.chance(0.5) {
                *rng.choose(&ODD)
            } else {
                (rng.range(-1e3, 1e3) as f32).to_bits()
            }
        };
        while rows.len() < n {
            match rng.below(4) {
                // Every value changes.
                0 => row.iter_mut().for_each(|x| {
                    let v = value(rng);
                    *x = if v == *x { v ^ 1 } else { v };
                }),
                // A few change.
                1 | 2 => {
                    for _ in 0..1 + rng.below(8) {
                        row[rng.below(STATE_DIM)] = value(rng);
                    }
                }
                // Nothing changes.
                _ => {}
            }
            // Held for a run: one row, or a long constant stretch.
            let run = if rng.chance(0.2) {
                20 + rng.below(60)
            } else {
                1
            };
            rows.extend(std::iter::repeat_n(row, run.min(n - rows.len())));
        }
        rows
    }

    fn coded(rows: &[[u32; STATE_DIM]]) -> States {
        let mut states = States::default();
        rows.iter().for_each(|r| states.push_bits(r));
        states
    }

    #[test]
    fn adversarial_rows_round_trip_bit_for_bit() {
        forall("coded rows == rows", PropConfig::new(200, 0x57A7), |rng| {
            let n = rng.below(200);
            let rows = adversarial_rows(rng, n);
            let states = coded(&rows);
            if states.len() != n || states.rows().len() != n {
                return Err(format!("{} rows coded of {n}", states.len()));
            }
            for (t, (got, want)) in states.rows().zip(&rows).enumerate() {
                if got.map(f32::to_bits) != *want {
                    return Err(format!("row {t} of {n} decodes to other bits"));
                }
            }
            // Pushing decoded f32 rows codes to the same bytes.
            let again: States = states.rows().collect();
            if again != states {
                return Err("re-coding the decoded rows changed the code".to_string());
            }
            Ok(())
        });
    }

    #[test]
    fn every_window_decodes_as_the_sequential_pass() {
        let mut rng = Rng::new(0x57A8);
        // Three key rows and a partial group.
        let n = 3 * KEY_EVERY + 5;
        let states = coded(&adversarial_rows(&mut rng, n));
        let all: Vec<[u32; STATE_DIM]> = states.rows().map(|r| r.map(f32::to_bits)).collect();
        assert_eq!(all.len(), n);
        for start in 0..=n {
            for len in 0..=n + 1 - start {
                let got: Vec<_> = (states.window(start, len))
                    .map(|r| r.map(f32::to_bits))
                    .collect();
                let end = (start + len).min(n);
                assert_eq!(got, all[start..end], "window {start}+{len} of {n}");
            }
        }
        assert_eq!(states.window(n + 3, 2).count(), 0);
        assert_eq!(states.window(n - 1, usize::MAX).count(), 1);
    }

    #[test]
    fn key_rows_store_every_feature_and_held_rows_store_none() {
        let row = [1.5f32; STATE_DIM];
        let states: States = std::iter::repeat_n(row, 2 * KEY_EVERY + 1).collect();
        assert_eq!(states.values.len(), 3 * STATE_DIM);
        assert_eq!(states.keys, vec![0, STATE_DIM, 2 * STATE_DIM]);
    }
}
