//! Dense row-major f64 matrices. Rows are batch entries, columns features.

/// A dense matrix (rows x cols), row-major.
#[derive(Debug, Clone, Default, PartialEq)]
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
        self.t_into(Vec::new())
    }

    /// [`Array::t`] built in `buf`: its contents are dropped, its allocation
    /// reused (so are the other `_into` forms' here and in `infer`).
    pub fn t_into(&self, mut buf: Vec<f64>) -> Array {
        buf.clear();
        buf.resize(self.data.len(), 0.0);
        for (i, row) in self.row_slices().enumerate() {
            for (j, &x) in row.iter().enumerate() {
                buf[j * self.rows + i] = x;
            }
        }
        Array::from_vec(self.cols, self.rows, buf)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Array {
        self.map_into(Vec::new(), f)
    }

    /// [`Array::map`] built in `buf`.
    pub fn map_into(&self, mut buf: Vec<f64>, f: impl Fn(f64) -> f64) -> Array {
        buf.clear();
        buf.extend(self.data.iter().map(|&x| f(x)));
        Array::from_vec(self.rows, self.cols, buf)
    }

    /// A copy built in `buf`.
    pub fn copy_into(&self, mut buf: Vec<f64>) -> Array {
        buf.clear();
        buf.extend_from_slice(&self.data);
        Array::from_vec(self.rows, self.cols, buf)
    }

    /// [`Array::map`] in place.
    pub fn map_assign(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Rows as slices, in order.
    pub fn row_slices(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Elementwise combine (shapes must match).
    pub fn zip(&self, other: &Array, f: impl Fn(f64, f64) -> f64) -> Array {
        self.zip_into(Vec::new(), other, f)
    }

    /// [`Array::zip`] built in `buf`.
    pub fn zip_into(&self, mut buf: Vec<f64>, other: &Array, f: impl Fn(f64, f64) -> f64) -> Array {
        assert_eq!(self.shape(), other.shape(), "zip shape");
        buf.clear();
        buf.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Array::from_vec(self.rows, self.cols, buf)
    }

    /// [`Array::zip`] in place: `self[i] = f(self[i], other[i])`.
    pub fn zip_assign(&mut self, other: &Array, f: impl Fn(f64, f64) -> f64) {
        assert_eq!(self.shape(), other.shape(), "zip shape");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// In-place accumulate.
    pub fn add_assign(&mut self, other: &Array) {
        self.zip_assign(other, |a, b| a + b);
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
