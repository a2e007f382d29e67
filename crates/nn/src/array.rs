//! Dense row-major f64 matrices. Rows are batch entries, columns features.

/// A dense matrix (rows x cols), row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Array {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Array {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Array {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Array { rows, cols, data }
    }

    /// A 1 x n row vector.
    pub fn row(data: Vec<f64>) -> Self {
        Array {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    /// A scalar 1 x 1.
    pub fn scalar(x: f64) -> Self {
        Array {
            rows: 1,
            cols: 1,
            data: vec![x],
        }
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Transposed copy.
    pub fn t(&self) -> Array {
        let mut out = Array::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Array {
        Array {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combine (shapes must match).
    pub fn zip(&self, other: &Array, f: impl Fn(f64, f64) -> f64) -> Array {
        assert_eq!(self.shape(), other.shape(), "zip shape");
        Array {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place accumulate.
    pub fn add_assign(&mut self, other: &Array) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Array::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Array::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = crate::infer::matmul(&a, &b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Array::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.t().t(), a);
        assert_eq!(a.t().at(2, 1), 6.0);
    }

    #[test]
    fn zip_and_map() {
        let a = Array::row(vec![1.0, -2.0]);
        let b = Array::row(vec![3.0, 4.0]);
        assert_eq!(a.zip(&b, |x, y| x * y).data, vec![3.0, -8.0]);
        assert_eq!(a.map(f64::abs).data, vec![1.0, 2.0]);
    }
}
