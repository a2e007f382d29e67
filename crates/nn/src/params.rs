//! Named parameter storage with Adam moments and binary (de)serialisation.

use crate::array::Array;
use sage_util::Rng;
use std::io::{self, Read, Write};

/// Index of a parameter within a [`ParamStore`].
pub type ParamId = usize;

/// One trainable tensor plus its optimiser state.
pub struct Param {
    pub name: String,
    pub value: Array,
    pub grad: Array,
    pub m: Array,
    pub v: Array,
}

/// The set of all trainable tensors of a model.
#[derive(Default)]
pub struct ParamStore {
    pub params: Vec<Param>,
}

impl ParamStore {
    pub fn new() -> Self {
        ParamStore { params: Vec::new() }
    }

    /// Register a tensor initialised to zeros.
    pub fn zeros(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.push(name, Array::zeros(rows, cols))
    }

    /// Register a tensor with scaled-uniform ("Glorot") initialisation.
    pub fn glorot(&mut self, name: &str, rows: usize, cols: usize, rng: &mut Rng) -> ParamId {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols).map(|_| rng.range(-limit, limit)).collect();
        self.push(name, Array::from_vec(rows, cols, data))
    }

    /// Register a tensor filled with a constant.
    pub fn constant(&mut self, name: &str, rows: usize, cols: usize, x: f64) -> ParamId {
        self.push(name, Array::from_vec(rows, cols, vec![x; rows * cols]))
    }

    fn push(&mut self, name: &str, value: Array) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(Param {
            name: name.to_string(),
            grad: Array::zeros(r, c),
            m: Array::zeros(r, c),
            v: Array::zeros(r, c),
            value,
        });
        self.params.len() - 1
    }

    pub fn get(&self, id: ParamId) -> &Array {
        &self.params[id].value
    }

    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.data.iter_mut().for_each(|g| *g = 0.0);
        }
    }

    /// Total scalar parameter count.
    pub fn count(&self) -> usize {
        self.params.iter().map(|p| p.value.data.len()).sum()
    }

    /// Copy values from another store (shapes must match) — used for target
    /// networks.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(
            self.params.len(),
            other.params.len(),
            "param count mismatch"
        );
        for (dst, src) in self.params.iter_mut().zip(&other.params) {
            assert_eq!(dst.value.shape(), src.value.shape(), "{} shape", dst.name);
            dst.value.data.copy_from_slice(&src.value.data);
        }
    }

    /// Serialise values (not optimiser state) to a little-endian binary blob.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"SAGEPRM1")?;
        w.write_all(&(self.params.len() as u64).to_le_bytes())?;
        for p in &self.params {
            let nb = p.name.as_bytes();
            w.write_all(&(nb.len() as u64).to_le_bytes())?;
            w.write_all(nb)?;
            w.write_all(&(p.value.rows as u64).to_le_bytes())?;
            w.write_all(&(p.value.cols as u64).to_le_bytes())?;
            for &x in &p.value.data {
                w.write_all(&x.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Load values into an existing store with identical structure.
    pub fn load(&mut self, r: &mut impl Read) -> io::Result<()> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != b"SAGEPRM1" {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
        }
        let mut u = [0u8; 8];
        r.read_exact(&mut u)?;
        let n = u64::from_le_bytes(u) as usize;
        if n != self.params.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "param count mismatch",
            ));
        }
        for p in &mut self.params {
            r.read_exact(&mut u)?;
            let name_len = u64::from_le_bytes(u) as usize;
            // Validate before allocating: a corrupted stream must produce a
            // clean error, not an out-of-memory abort.
            if name_len != p.name.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "param name mismatch",
                ));
            }
            let mut name = vec![0u8; name_len];
            r.read_exact(&mut name)?;
            if name != p.name.as_bytes() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "param name mismatch",
                ));
            }
            r.read_exact(&mut u)?;
            let rows = u64::from_le_bytes(u) as usize;
            r.read_exact(&mut u)?;
            let cols = u64::from_le_bytes(u) as usize;
            if (rows, cols) != p.value.shape() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "param shape mismatch",
                ));
            }
            let mut b = [0u8; 8];
            for x in &mut p.value.data {
                r.read_exact(&mut b)?;
                *x = f64::from_le_bytes(b);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_round_trip() {
        let mut rng = Rng::new(1);
        let mut a = ParamStore::new();
        a.glorot("w1", 4, 3, &mut rng);
        a.zeros("b1", 1, 3);
        let mut buf = Vec::new();
        a.save(&mut buf).unwrap();

        let mut b = ParamStore::new();
        let mut rng2 = Rng::new(99);
        b.glorot("w1", 4, 3, &mut rng2);
        b.zeros("b1", 1, 3);
        b.load(&mut &buf[..]).unwrap();
        assert_eq!(a.get(0).data, b.get(0).data);
    }

    #[test]
    fn load_rejects_mismatched_structure() {
        let mut a = ParamStore::new();
        a.zeros("w", 2, 2);
        let mut buf = Vec::new();
        a.save(&mut buf).unwrap();
        let mut b = ParamStore::new();
        b.zeros("different", 2, 2);
        assert!(b.load(&mut &buf[..]).is_err());
    }

    #[test]
    fn glorot_within_limit() {
        let mut rng = Rng::new(5);
        let mut s = ParamStore::new();
        s.glorot("w", 100, 100, &mut rng);
        let limit = (6.0f64 / 200.0).sqrt();
        assert!(s.get(0).data.iter().all(|&x| x.abs() <= limit));
    }
}
