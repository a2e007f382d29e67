//! The pool of policies: recorded trajectories and their binary storage.
//!
//! A custom little-endian format is used instead of JSON because a pool is a
//! few hundred thousand 70-float records — exactly the "once, before
//! training" artefact the paper describes. In memory the states are coded
//! ([`States`]); the file holds them as plain f32 rows, and loading codes
//! them while it streams.

use crate::states::States;
use sage_gr::STATE_DIM;
use sage_util::{CheckedReader, CheckedWriter};
use std::io::{self, Read, Write};

/// One scheme's recorded behaviour in one environment.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    pub scheme: String,
    pub env_id: String,
    /// True for Set II (TCP-friendliness) environments.
    pub set2: bool,
    /// Ideal fair share of the recorded flow, bits/s.
    pub fair_share_bps: f64,
    /// One coded state row per step.
    pub states: States,
    /// Per-step action (cwnd ratio).
    pub actions: Vec<f32>,
    /// Per-step Power reward (Eq. 1).
    pub r1: Vec<f32>,
    /// Per-step TCP-friendliness reward (Eq. 2).
    pub r2: Vec<f32>,
    /// Per-step receiver goodput, bits/s (for scores and figures).
    pub thr: Vec<f32>,
    /// Per-step mean one-way delay, seconds.
    pub owd: Vec<f32>,
    /// Per-step congestion window, packets.
    pub cwnd: Vec<f32>,
}

impl Trajectory {
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The reward stream matching the environment's set: R2 in Set II
    /// (farsighted TCP-friendliness), R1 otherwise (myopic Power).
    pub fn reward(&self, t: usize) -> f32 {
        if self.set2 {
            self.r2[t]
        } else {
            self.r1[t]
        }
    }
}

/// A pool of trajectories (the dataset D of §4.2).
#[derive(Debug, Clone, Default)]
pub struct Pool {
    pub trajectories: Vec<Trajectory>,
}

impl Pool {
    pub fn new() -> Self {
        Pool {
            trajectories: Vec::new(),
        }
    }

    /// Total number of recorded steps.
    pub fn total_steps(&self) -> usize {
        self.trajectories.iter().map(|t| t.len()).sum()
    }

    /// Distinct scheme names present.
    pub fn schemes(&self) -> Vec<String> {
        let mut v: Vec<String> = self.trajectories.iter().map(|t| t.scheme.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Keep only trajectories of the given schemes (for the Fig. 15 pool
    /// diversity study and the BC-top baselines).
    pub fn filter_schemes(&self, keep: &[&str]) -> Pool {
        Pool {
            trajectories: self
                .trajectories
                .iter()
                .filter(|t| keep.contains(&t.scheme.as_str()))
                .cloned()
                .collect(),
        }
    }

    /// Per-feature mean and standard deviation over all states (for input
    /// standardisation during training and inference).
    pub fn feature_stats(&self) -> (Vec<f64>, Vec<f64>) {
        let mut mean = vec![0.0f64; STATE_DIM];
        let mut n = 0u64;
        for t in &self.trajectories {
            for s in t.states.rows() {
                for (m, &x) in mean.iter_mut().zip(&s) {
                    *m += x as f64;
                }
                n += 1;
            }
        }
        if n > 0 {
            mean.iter_mut().for_each(|m| *m /= n as f64);
        }
        let mut var = vec![0.0f64; STATE_DIM];
        for t in &self.trajectories {
            for s in t.states.rows() {
                for ((v, &m), &x) in var.iter_mut().zip(&mean).zip(&s) {
                    let d = x as f64 - m;
                    *v += d * d;
                }
            }
        }
        let std: Vec<f64> = var
            .iter()
            .map(|&v| (v / n.max(1) as f64).sqrt().max(1e-6))
            .collect();
        (mean, std)
    }

    /// Serialise to a little-endian binary stream.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&(STATE_DIM as u64).to_le_bytes())?;
        w.write_all(&(self.trajectories.len() as u64).to_le_bytes())?;
        for t in &self.trajectories {
            write_str(w, &t.scheme)?;
            write_str(w, &t.env_id)?;
            w.write_all(&[t.set2 as u8])?;
            w.write_all(&t.fair_share_bps.to_le_bytes())?;
            w.write_all(&(t.len() as u64).to_le_bytes())?;
            write_states(w, &t.states)?;
            for xs in [&t.actions, &t.r1, &t.r2, &t.thr, &t.owd, &t.cwnd] {
                write_f32s(w, xs)?;
            }
        }
        Ok(())
    }

    /// Crash-safe save: the serialised pool streams through a
    /// [`CheckedWriter`] to a temp file, gets its checksum footer, is
    /// fsynced, then atomically renamed over `path`. A crash at any point
    /// leaves either the old file or the new one — never a partial pool.
    pub fn save_file(&self, path: &std::path::Path) -> io::Result<()> {
        let mut w = CheckedWriter::create(path)?;
        self.save(&mut w)?;
        w.commit()
    }

    /// Load a pool saved by [`Pool::save_file`]. A truncated or extended
    /// file fails the footer check before any decoding; the payload then
    /// decodes chunk by chunk, every count bounded by the bytes left before
    /// anything is allocated from it; a bit flip fails the CRC compared at
    /// the end. Any of these is `InvalidData`, and a CRC mismatch is
    /// reported in preference to the decode error it caused.
    pub fn load_file(path: &std::path::Path) -> io::Result<Pool> {
        let mut r = CheckedReader::open(path)?;
        let left = r.remaining();
        let pool = Payload { r: &mut r, left }.decode();
        r.finish()?;
        pool
    }
}

const MAGIC: &[u8; 8] = b"SAGEPOOL";

/// Bytes of a trajectory with empty names and no steps: its two string
/// lengths, `set2`, `fair_share_bps` and `steps`.
const TRAJ_MIN_BYTES: u64 = 8 + 8 + 1 + 8 + 8;

/// Bytes per recorded step: the state row and the six per-step arrays.
const STEP_BYTES: u64 = 4 * (STATE_DIM as u64 + 6);

/// Floats moved per read or write call of an array.
const F32_CHUNK: usize = 1024;

/// Bytes of one state row in the file.
const ROW_BYTES: usize = 4 * STATE_DIM;

fn invalid(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// A pool payload being decoded: `left` is what remains of it, and no
/// field is read, nor any count allocated from, past it.
struct Payload<R> {
    r: R,
    left: u64,
}

impl<R: Read> Payload<R> {
    fn decode(mut self) -> io::Result<Pool> {
        if &self.array::<8>("magic")? != MAGIC {
            return Err(invalid("bad pool magic".to_string()));
        }
        let dim = self.u64("state dim")?;
        if dim != STATE_DIM as u64 {
            return Err(invalid(format!(
                "state dim mismatch: {dim}, expected {STATE_DIM}"
            )));
        }
        let n = self.u64("trajectory count")?;
        self.fits(n, TRAJ_MIN_BYTES, "trajectories")?;
        let mut trajectories = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let scheme = self.string("scheme")?;
            let env_id = self.string("env id")?;
            let set2 = self.array::<1>("set2")?[0] != 0;
            let fair_share_bps = f64::from_le_bytes(self.array("fair share")?);
            let steps = self.u64("steps")?;
            self.fits(steps, STEP_BYTES, "steps")?;
            let steps = steps as usize;
            trajectories.push(Trajectory {
                scheme,
                env_id,
                set2,
                fair_share_bps,
                states: self.states(steps)?,
                actions: self.f32s(steps)?,
                r1: self.f32s(steps)?,
                r2: self.f32s(steps)?,
                thr: self.f32s(steps)?,
                owd: self.f32s(steps)?,
                cwnd: self.f32s(steps)?,
            });
        }
        if self.left != 0 {
            return Err(invalid(format!(
                "{} bytes after the last trajectory",
                self.left
            )));
        }
        Ok(Pool { trajectories })
    }

    /// Claim `n` bytes of what is left, or fail naming `what` needed them.
    fn claim(&mut self, n: u64, what: &str) -> io::Result<()> {
        if n > self.left {
            return Err(invalid(format!(
                "{what} needs {n} bytes, the payload has {} left",
                self.left
            )));
        }
        self.left -= n;
        Ok(())
    }

    /// `count` items of at least `each` bytes fit in what is left.
    fn fits(&self, count: u64, each: u64, what: &str) -> io::Result<()> {
        if count > self.left / each {
            return Err(invalid(format!(
                "{count} {what} cannot fit in the {} bytes left",
                self.left
            )));
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        self.claim(N as u64, what)?;
        let mut b = [0u8; N];
        self.r.read_exact(&mut b)?;
        Ok(b)
    }

    fn u64(&mut self, what: &str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    fn string(&mut self, what: &str) -> io::Result<String> {
        let n = self.u64(what)?;
        if n > 1 << 20 {
            return Err(invalid(format!("{what} of {n} bytes is too long")));
        }
        self.claim(n, what)?;
        let mut b = vec![0u8; n as usize];
        self.r.read_exact(&mut b)?;
        String::from_utf8(b).map_err(|_| invalid(format!("{what} is not utf-8")))
    }

    /// `n` state rows, coded as they are read.
    fn states(&mut self, n: usize) -> io::Result<States> {
        self.claim((n * ROW_BYTES) as u64, "state rows")?;
        let mut out = States::default();
        out.reserve_rows(n);
        let mut bytes = [0u8; ROW_BYTES];
        let mut row = [0u32; STATE_DIM];
        for _ in 0..n {
            self.r.read_exact(&mut bytes)?;
            for (x, b) in row.iter_mut().zip(bytes.chunks_exact(4)) {
                *x = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
            out.push_bits(&row);
        }
        out.shrink_to_fit();
        Ok(out)
    }

    /// `n` floats, read [`F32_CHUNK`] at a time into a vector allocated
    /// once at its final size.
    fn f32s(&mut self, n: usize) -> io::Result<Vec<f32>> {
        self.claim(4 * n as u64, "f32 array")?;
        let mut out = Vec::with_capacity(n);
        let mut buf = [0u8; 4 * F32_CHUNK];
        while out.len() < n {
            let k = (n - out.len()).min(F32_CHUNK);
            let bytes = &mut buf[..4 * k];
            self.r.read_exact(bytes)?;
            out.extend(
                bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            );
        }
        Ok(out)
    }
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u64).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

fn write_states(w: &mut impl Write, states: &States) -> io::Result<()> {
    let mut bytes = [0u8; ROW_BYTES];
    for row in states.rows() {
        for (b, x) in bytes.chunks_exact_mut(4).zip(row) {
            b.copy_from_slice(&x.to_bits().to_le_bytes());
        }
        w.write_all(&bytes)?;
    }
    Ok(())
}

fn write_f32s(w: &mut impl Write, xs: &[f32]) -> io::Result<()> {
    let mut buf = [0u8; 4 * F32_CHUNK];
    for chunk in xs.chunks(F32_CHUNK) {
        for (b, x) in buf.chunks_exact_mut(4).zip(chunk) {
            b.copy_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf[..4 * chunk.len()])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_util::Rng;

    /// Decode a serialised pool held in memory, as `load_file` decodes the
    /// stream behind a valid footer.
    fn from_bytes(payload: &[u8]) -> io::Result<Pool> {
        Payload {
            r: payload,
            left: payload.len() as u64,
        }
        .decode()
    }

    fn sample_traj(scheme: &str, steps: usize, set2: bool) -> Trajectory {
        Trajectory {
            scheme: scheme.into(),
            env_id: "env-x".into(),
            set2,
            fair_share_bps: 12e6,
            states: (0..steps)
                .map(|r| std::array::from_fn(|c| (r * STATE_DIM + c) as f32 * 0.01))
                .collect(),
            actions: (0..steps).map(|i| 1.0 + i as f32 * 0.001).collect(),
            r1: vec![0.5; steps],
            r2: vec![0.8; steps],
            thr: vec![1e7; steps],
            owd: vec![0.03; steps],
            cwnd: vec![20.0; steps],
        }
    }

    #[test]
    fn save_load_round_trip() {
        let mut p = Pool::new();
        p.trajectories.push(sample_traj("cubic", 7, false));
        p.trajectories.push(sample_traj("vegas", 3, true));
        let mut buf = Vec::new();
        p.save(&mut buf).unwrap();
        let q = from_bytes(&buf).unwrap();
        assert_eq!(q.trajectories.len(), 2);
        assert_eq!(q.trajectories[0].scheme, "cubic");
        assert_eq!(q.trajectories[0].states, p.trajectories[0].states);
        assert!(q.trajectories[1].set2);
        assert_eq!(q.total_steps(), 10);
    }

    #[test]
    fn reward_selects_by_set() {
        let t1 = sample_traj("cubic", 2, false);
        assert_eq!(t1.reward(0), 0.5);
        let t2 = sample_traj("cubic", 2, true);
        assert_eq!(t2.reward(0), 0.8);
    }

    #[test]
    fn filter_schemes_keeps_subset() {
        let mut p = Pool::new();
        p.trajectories.push(sample_traj("cubic", 2, false));
        p.trajectories.push(sample_traj("vegas", 2, false));
        p.trajectories.push(sample_traj("bic", 2, false));
        let f = p.filter_schemes(&["cubic", "vegas"]);
        assert_eq!(f.schemes(), vec!["cubic".to_string(), "vegas".to_string()]);
    }

    #[test]
    fn feature_stats_standardise() {
        let mut p = Pool::new();
        p.trajectories.push(sample_traj("cubic", 50, false));
        let (mean, std) = p.feature_stats();
        assert_eq!(mean.len(), STATE_DIM);
        assert!(std.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn load_rejects_garbage() {
        let garbage = b"NOTAPOOLxxxxxxxxxxxx".to_vec();
        assert!(from_bytes(&garbage).is_err());
    }

    #[test]
    fn load_rejects_truncation_at_every_byte_boundary() {
        let mut p = Pool::new();
        p.trajectories.push(sample_traj("cubic", 2, false));
        p.trajectories.push(sample_traj("vegas", 1, true));
        let mut buf = Vec::new();
        p.save(&mut buf).unwrap();
        // The raw stream parser must fail on every proper prefix: no
        // truncation may silently yield a smaller-but-valid pool.
        for n in 0..buf.len() {
            assert!(
                from_bytes(&buf[..n]).is_err(),
                "raw load accepted a {n}-byte prefix of a {}-byte pool",
                buf.len()
            );
        }
        assert!(from_bytes(&buf).is_ok());
    }

    #[test]
    fn load_file_rejects_truncated_file_at_every_byte_boundary() {
        let mut p = Pool::new();
        p.trajectories.push(sample_traj("cubic", 2, false));
        let good = std::env::temp_dir().join("sage_pool_trunc_good.bin");
        let bad = std::env::temp_dir().join("sage_pool_trunc_bad.bin");
        p.save_file(&good).unwrap();
        let bytes = std::fs::read(&good).unwrap();
        for n in 0..bytes.len() {
            std::fs::write(&bad, &bytes[..n]).unwrap();
            assert!(
                Pool::load_file(&bad).is_err(),
                "accepted truncation at byte {n}"
            );
        }
        assert!(Pool::load_file(&good).is_ok());
        std::fs::remove_file(&good).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn save_file_is_atomic_and_checksummed() {
        let mut p = Pool::new();
        p.trajectories.push(sample_traj("bic", 3, false));
        let path = std::env::temp_dir().join("sage_pool_atomic.bin");
        p.save_file(&path).unwrap();
        let q = Pool::load_file(&path).unwrap();
        assert_eq!(q.total_steps(), p.total_steps());
        // Corrupt one payload byte: load must fail with a checksum error.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = Pool::load_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    /// Where each field of a two-trajectory pool sits in its payload.
    struct Layout {
        bytes: Vec<u8>,
        /// Offsets of the u64 fields: dim, count, then per trajectory the
        /// scheme length, env length and steps.
        dim: usize,
        count: usize,
        strings: Vec<usize>,
        steps: Vec<usize>,
    }

    fn layout() -> Layout {
        let mut p = Pool::new();
        p.trajectories.push(sample_traj("cubic", 3, false));
        p.trajectories.push(sample_traj("vegas", 2, true));
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let (mut strings, mut steps) = (Vec::new(), Vec::new());
        let mut at = 24;
        for t in &p.trajectories {
            strings.push(at);
            at += 8 + t.scheme.len();
            strings.push(at);
            at += 8 + t.env_id.len() + 1 + 8;
            steps.push(at);
            at += 8 + t.len() * STEP_BYTES as usize;
        }
        assert_eq!(at, bytes.len());
        Layout {
            bytes,
            dim: 8,
            count: 16,
            strings,
            steps,
        }
    }

    fn with_u64(bytes: &[u8], at: usize, v: u64) -> Vec<u8> {
        let mut b = bytes.to_vec();
        b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        b
    }

    /// `payload` behind a valid footer at `path`, loaded back.
    fn load_footered(path: &std::path::Path, payload: &[u8]) -> io::Result<Pool> {
        sage_util::atomic_write_checksummed(path, payload).unwrap();
        Pool::load_file(path)
    }

    #[test]
    fn a_footer_valid_hostile_pool_is_invalid_data() {
        use sage_util::prop::{forall, PropConfig};
        let l = layout();
        let path =
            std::env::temp_dir().join(format!("sage_pool_hostile_{}.bin", std::process::id()));
        let invalid =
            |r: io::Result<Pool>| r.err().map(|e| e.kind()) == Some(io::ErrorKind::InvalidData);
        // The two shapes that once aborted or panicked: 2^40 trajectories
        // (a 255 TB `Vec::with_capacity`), and 2^62 + 3 steps (`steps · 69`
        // overflows).
        assert!(invalid(load_footered(
            &path,
            &with_u64(&l.bytes, l.count, 1 << 40)
        )));
        assert!(invalid(load_footered(
            &path,
            &with_u64(&l.bytes, l.steps[0], (1 << 62) + 3)
        )));
        forall(
            "hostile pool field -> InvalidData",
            PropConfig::new(300, 0x9001),
            |rng| {
                let near = |rng: &mut Rng, v: u64| match rng.below(6) {
                    0 => v.wrapping_add(1 + rng.below(3) as u64),
                    1 => v.saturating_sub(1 + rng.below(3) as u64),
                    2 => 1 << (20 + rng.below(44)),
                    3 => u64::MAX - rng.below(4) as u64,
                    4 => (1 << 62) + rng.below(8) as u64,
                    _ => rng.next_u64(),
                };
                let get = |at: usize| u64::from_le_bytes(l.bytes[at..at + 8].try_into().unwrap());
                let (what, payload) = match rng.below(7) {
                    0 => {
                        let mut b = l.bytes.clone();
                        b[rng.below(8)] ^= 1 + rng.below(255) as u8;
                        ("magic", b)
                    }
                    1 => (
                        "dim",
                        with_u64(&l.bytes, l.dim, near(rng, STATE_DIM as u64)),
                    ),
                    2 => ("count", with_u64(&l.bytes, l.count, near(rng, 2))),
                    3 => {
                        let at = *rng.choose(&l.strings);
                        ("string length", with_u64(&l.bytes, at, near(rng, get(at))))
                    }
                    4 => {
                        let at = *rng.choose(&l.steps);
                        ("steps", with_u64(&l.bytes, at, near(rng, get(at))))
                    }
                    5 => {
                        // Bytes cut from or added to the payload, footer redone.
                        let mut b = l.bytes.clone();
                        let k = 1 + rng.below(400);
                        if rng.chance(0.5) {
                            b.truncate(b.len() - k);
                        } else {
                            b.extend((0..k).map(|_| rng.next_u64() as u8));
                        }
                        ("payload length", b)
                    }
                    _ => {
                        // A flipped payload byte under the old footer.
                        sage_util::atomic_write_checksummed(&path, &l.bytes).unwrap();
                        let mut file = std::fs::read(&path).unwrap();
                        file[rng.below(l.bytes.len())] ^= 1 << rng.below(8);
                        std::fs::write(&path, &file).unwrap();
                        if !invalid(Pool::load_file(&path)) {
                            return Err("flipped payload byte loaded".to_string());
                        }
                        return Ok(());
                    }
                };
                if !invalid(from_bytes(&payload)) {
                    return Err(format!("{what}: from_bytes did not return InvalidData"));
                }
                if !invalid(load_footered(&path, &payload)) {
                    return Err(format!("{what}: load_file did not return InvalidData"));
                }
                Ok(())
            },
        );
        std::fs::remove_file(&path).ok();
    }
}
