//! The distillation dataset: rows of (raw GR state, policy mean action).
//!
//! States are stored *unstandardised* — the tree splits on raw feature
//! values, so inference needs no mean/std vectors and no arithmetic beyond
//! compares (plus the optional per-leaf linear term). Targets are the
//! policy's mixture-mean action in scaled units (the same units
//! `GmmParams::mean()` returns, i.e. `ln(ratio) / ACTION_SCALE`).

use sage_util::Fnv64;

/// A flat row-major dataset: `xs` holds `n * dim` features, `ys` holds `n`
/// targets. Row order is meaningful — fitting accumulates sums in row
/// order, so two equal datasets fit bit-identical trees.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    pub dim: usize,
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
}

impl Dataset {
    pub fn new(dim: usize) -> Self {
        Dataset {
            dim,
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Build from `(state, target)` rows (convenience for tests/harvest).
    pub fn from_rows(dim: usize, rows: Vec<(Vec<f64>, f64)>) -> Self {
        let mut ds = Dataset::new(dim);
        for (x, y) in rows {
            ds.push(&x, y);
        }
        ds
    }

    pub fn len(&self) -> usize {
        self.ys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Append one row. Rows of the wrong width or with non-finite features
    /// or target are dropped (they would poison variance sums); callers see
    /// `false` and the count unchanged, in every build profile.
    pub fn push(&mut self, x: &[f64], y: f64) -> bool {
        if x.len() != self.dim || !y.is_finite() || x.iter().any(|v| !v.is_finite()) {
            return false;
        }
        self.xs.extend_from_slice(x);
        self.ys.push(y);
        true
    }

    /// Feature slice of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.xs[i * self.dim..(i + 1) * self.dim]
    }

    /// Append another dataset (ordered merge — used by the harvest fan-out's
    /// ordered reduction).
    pub fn extend(&mut self, other: &Dataset) {
        debug_assert_eq!(self.dim, other.dim);
        self.xs.extend_from_slice(&other.xs);
        self.ys.extend_from_slice(&other.ys);
    }

    /// Bit-faithful FNV fingerprint of every row, for differential tests.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.dim as u64);
        h.write_u64(self.len() as u64);
        for &v in &self.xs {
            h.write_f64(v);
        }
        for &v in &self.ys {
            h.write_f64(v);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_drops_non_finite_rows() {
        let mut ds = Dataset::new(2);
        assert!(ds.push(&[1.0, 2.0], 0.5));
        assert!(!ds.push(&[f64::NAN, 2.0], 0.5));
        assert!(!ds.push(&[1.0, 2.0], f64::INFINITY));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn push_drops_rows_of_the_wrong_width() {
        let mut ds = Dataset::new(2);
        assert!(ds.push(&[1.0, 2.0], 0.5));
        assert!(!ds.push(&[1.0], 0.5));
        assert!(!ds.push(&[1.0, 2.0, 3.0], 0.5));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.xs, [1.0, 2.0]);
    }

    #[test]
    fn extend_preserves_order_and_digest() {
        let a = Dataset::from_rows(1, vec![(vec![1.0], 1.0), (vec![2.0], 2.0)]);
        let b = Dataset::from_rows(1, vec![(vec![3.0], 3.0)]);
        let mut ab = a.clone();
        ab.extend(&b);
        let whole = Dataset::from_rows(
            1,
            vec![(vec![1.0], 1.0), (vec![2.0], 2.0), (vec![3.0], 3.0)],
        );
        assert_eq!(ab.digest(), whole.digest());
        let mut ba = b.clone();
        ba.extend(&a);
        assert_ne!(ab.digest(), ba.digest(), "digest is order-sensitive");
    }
}
