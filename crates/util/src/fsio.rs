//! Crash-safe artefact I/O: atomic writes and checksum-verified reads.
//!
//! Pools, models and trees are written once and read many times, often by a
//! later process; a crash mid-write must never leave a file that parses into
//! a garbage state. Every footered artefact goes through one writer,
//! [`CheckedWriter`] (temp file + fsync + atomic rename), and one reader,
//! [`CheckedReader`]; both stream the payload in fixed chunks, so neither
//! holds a second copy of it. The reader checks the footer's magic and
//! stored length against the file length before any decoding, which
//! rejects a truncated or extended file at once; it compares the CRC after
//! the caller has decoded, so a bit flip is rejected too, and a decoder
//! bounds every count by [`CheckedReader::remaining`] before it allocates.

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Footer magic. The footer is `MAGIC || payload_len: u64 LE || crc32: u32 LE`.
const FOOTER_MAGIC: &[u8; 8] = b"SAGECRC1";

/// Total footer size in bytes.
const FOOTER_LEN: usize = 8 + 8 + 4;

/// `CRC_TABLES[0]` is the bytewise table of the reflected polynomial
/// 0xEDB88320; `CRC_TABLES[k][b]` is the CRC state after byte `b` and `k`
/// zero bytes, which is what lets [`Crc32`] fold eight bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// FNV-1a 64-bit hash of a byte slice. Used for state digests (e.g. the
/// serve-runtime flow table) where a stable, order-sensitive 64-bit
/// fingerprint is wanted; see [`Fnv64`] for incremental hashing.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Hash the exact bit pattern (distinguishes -0.0 from 0.0 and every
    /// NaN payload — digests must be byte-faithful to the state).
    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Bytes a [`CheckedReader`] or [`CheckedWriter`] moves per file call: the
/// only buffer either holds, whatever the artefact's size.
const CHUNK: usize = 64 << 10;

/// Running CRC-32: [`crc32`] of the concatenation of every `update`.
#[derive(Debug, Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Slicing-by-8: the value of the bytewise loop, eight bytes per table
    /// round (artefacts are MBs, and every load checksums them whole).
    fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    fn finish(self) -> u32 {
        !self.0
    }
}

fn invalid(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// The payload of a footered file, read in [`CHUNK`]-sized pieces while its
/// CRC is computed. [`CheckedReader::open`] checks the footer's magic and
/// stored length against the file before a payload byte is read, so a
/// truncated or extended file fails before any decoding; the CRC is
/// compared by [`CheckedReader::finish`], after the caller has decoded.
pub struct CheckedReader {
    file: io::BufReader<io::Take<fs::File>>,
    /// Payload bytes not yet handed to the caller.
    left: u64,
    crc: Crc32,
    stored_crc: u32,
}

impl CheckedReader {
    pub fn open(path: &Path) -> io::Result<CheckedReader> {
        let mut file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len < FOOTER_LEN as u64 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("file truncated: {len} bytes is shorter than the checksum footer"),
            ));
        }
        let payload_len = len - FOOTER_LEN as u64;
        let mut footer = [0u8; FOOTER_LEN];
        file.seek(SeekFrom::Start(payload_len))?;
        file.read_exact(&mut footer)?;
        if &footer[..8] != FOOTER_MAGIC {
            return Err(invalid(
                "missing checksum footer (file truncated mid-write or from an incompatible version)"
                    .to_string(),
            ));
        }
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&footer[8..16]);
        let mut crc_bytes = [0u8; 4];
        crc_bytes.copy_from_slice(&footer[16..]);
        let stored_len = u64::from_le_bytes(len_bytes);
        if stored_len != payload_len {
            return Err(invalid(format!(
                "length mismatch: footer says {stored_len} bytes, file holds {payload_len}"
            )));
        }
        file.seek(SeekFrom::Start(0))?;
        Ok(CheckedReader {
            file: io::BufReader::with_capacity(CHUNK, file.take(payload_len)),
            left: payload_len,
            crc: Crc32::new(),
            stored_crc: u32::from_le_bytes(crc_bytes),
        })
    }

    /// Payload bytes not yet read: the most any count in the rest of the
    /// payload can honestly ask for.
    pub fn remaining(&self) -> u64 {
        self.left
    }

    /// Read what is left of the payload, then compare the CRC of the whole
    /// payload with the footer's; returns that CRC. A mismatch is
    /// `InvalidData`.
    pub fn finish(mut self) -> io::Result<u32> {
        io::copy(&mut self, &mut io::sink())?;
        let actual = self.crc.finish();
        if actual != self.stored_crc {
            return Err(invalid(format!(
                "checksum mismatch: stored {:#010x}, computed {actual:#010x}",
                self.stored_crc
            )));
        }
        Ok(actual)
    }
}

impl Read for CheckedReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = self.file.read(out)?;
        self.crc.update(&out[..n]);
        self.left -= n as u64;
        Ok(n)
    }
}

/// A footered file written in [`CHUNK`]-sized pieces to a sibling temp
/// file while its CRC is computed; [`CheckedWriter::commit`] appends the
/// footer, fsyncs and renames it over the target. Dropped uncommitted, it
/// removes the temp file and leaves the target as it was.
pub struct CheckedWriter {
    file: io::BufWriter<fs::File>,
    tmp: PathBuf,
    path: PathBuf,
    len: u64,
    crc: Crc32,
    committed: bool,
}

impl CheckedWriter {
    pub fn create(path: &Path) -> io::Result<CheckedWriter> {
        let tmp = temp_path(path);
        let file = fs::File::create(&tmp)?;
        Ok(CheckedWriter {
            file: io::BufWriter::with_capacity(CHUNK, file),
            tmp,
            path: path.to_path_buf(),
            len: 0,
            crc: Crc32::new(),
            committed: false,
        })
    }

    /// Append the footer (`MAGIC || payload_len || crc32`), fsync, and
    /// atomically replace the target.
    pub fn commit(mut self) -> io::Result<()> {
        self.file.write_all(FOOTER_MAGIC)?;
        self.file.write_all(&self.len.to_le_bytes())?;
        self.file.write_all(&self.crc.finish().to_le_bytes())?;
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        // `install` cleans up after itself if the rename fails.
        self.committed = true;
        install(&self.tmp, &self.path)
    }
}

impl Write for CheckedWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let n = self.file.write(bytes)?;
        self.crc.update(&bytes[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Drop for CheckedWriter {
    fn drop(&mut self) {
        if !self.committed {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// The sibling temp file a write goes to before its rename.
fn temp_path(path: &Path) -> PathBuf {
    path.with_extension(format!(
        "{}.tmp~",
        path.extension().and_then(|e| e.to_str()).unwrap_or("bin")
    ))
}

/// Rename the fsynced `tmp` over `path`, then fsync the directory so the
/// rename itself survives a crash.
fn install(tmp: &Path, path: &Path) -> io::Result<()> {
    if let Err(e) = fs::rename(tmp, path) {
        let _ = fs::remove_file(tmp);
        return Err(e);
    }
    if let Some(d) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        // Directory fsync is best-effort: not all filesystems support it.
        if let Ok(dh) = fs::File::open(d) {
            let _ = dh.sync_all();
        }
    }
    Ok(())
}

/// Atomically replace `path` with `bytes` (no footer): write to a sibling
/// temp file, fsync it, rename over the target. Readers never observe a
/// partial file.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    install(&tmp, path)
}

/// Atomically write `payload` with a checksum footer appended.
pub fn atomic_write_checksummed(path: &Path, payload: &[u8]) -> io::Result<()> {
    let mut w = CheckedWriter::create(path)?;
    w.write_all(payload)?;
    w.commit()
}

/// Read a footered file whole: its payload and the CRC it was verified
/// against.
pub fn read_checksummed(path: &Path) -> io::Result<(Vec<u8>, u32)> {
    let mut r = CheckedReader::open(path)?;
    let mut payload = Vec::with_capacity(usize::try_from(r.remaining()).unwrap_or(0));
    r.read_to_end(&mut payload)?;
    let crc = r.finish()?;
    Ok((payload, crc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise definition, kept as the oracle of the sliced loop.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn sliced_crc32_is_the_bytewise_crc32() {
        use crate::prop::{forall, PropConfig};
        forall(
            "slicing-by-8 == bytewise",
            PropConfig::new(300, 0xC3C),
            |rng| {
                // Every length mod 8, every alignment of the 8-byte rounds.
                let len = rng.below(200);
                let bytes: Vec<u8> = (0..len + 8).map(|_| rng.next_u64() as u8).collect();
                let from = rng.below(8);
                let part = &bytes[from..from + len];
                if crc32(part) != crc32_bytewise(part) {
                    return Err(format!("{len} bytes from offset {from}"));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn fnv1a64_known_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv64_incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
        let mut a = Fnv64::new();
        a.write_f64(0.0);
        let mut b = Fnv64::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "digest must be bit-faithful");
    }

    /// A file under the temp dir, unique per test.
    fn temp_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sage_fsio_{name}_{}.bin", std::process::id()))
    }

    /// `payload` with its footer, as [`CheckedWriter`] lays it out on disk.
    fn footered(name: &str, payload: &[u8]) -> Vec<u8> {
        let path = temp_file(name);
        atomic_write_checksummed(&path, payload).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn footer_round_trip() {
        let bytes = footered("footered_rt", b"hello world");
        assert_eq!(bytes.len(), 11 + FOOTER_LEN);
        assert_eq!(&bytes[11..19], FOOTER_MAGIC);
        assert_eq!(bytes[19..27], 11u64.to_le_bytes());
        assert_eq!(bytes[27..], crc32(b"hello world").to_le_bytes());
        let path = temp_file("round_trip");
        std::fs::write(&path, &bytes).unwrap();
        let (payload, crc) = read_checksummed(&path).unwrap();
        assert_eq!(
            (payload.as_slice(), crc),
            (&b"hello world"[..], crc32(b"hello world"))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn footer_rejects_every_truncation() {
        let buf = footered("footered_trunc", b"payload bytes");
        let path = temp_file("truncation");
        for n in 0..buf.len() {
            std::fs::write(&path, &buf[..n]).unwrap();
            assert!(
                CheckedReader::open(&path).is_err(),
                "truncation at {n} passed the footer check"
            );
        }
        // Extended by one byte: the stored length no longer matches.
        let mut longer = buf.clone();
        longer.insert(0, b'x');
        std::fs::write(&path, &longer).unwrap();
        let err = CheckedReader::open(&path)
            .err()
            .expect("extended file rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn footer_rejects_bit_flip() {
        let buf = footered("footered_flip", b"some payload");
        let path = temp_file("bit_flip");
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let err = read_checksummed(&path).err();
            assert!(
                err.is_some_and(|e| e.kind() == io::ErrorKind::InvalidData),
                "bit flip at {i} not rejected as InvalidData"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_chunks_checksum_like_one_slice() {
        // Several chunks and an odd tail, written in uneven pieces.
        let payload: Vec<u8> = (0..3 * CHUNK + 13).map(|i| (i * 31 % 251) as u8).collect();
        let path = temp_file("chunks");
        let mut w = CheckedWriter::create(&path).unwrap();
        for piece in payload.chunks(CHUNK / 3 + 7) {
            w.write_all(piece).unwrap();
        }
        w.commit().unwrap();
        let mut r = CheckedReader::open(&path).unwrap();
        assert_eq!(r.remaining(), payload.len() as u64);
        let mut head = vec![0u8; 1000];
        r.read_exact(&mut head).unwrap();
        assert_eq!(head, payload[..1000]);
        assert_eq!(r.remaining(), (payload.len() - 1000) as u64);
        // `finish` reads the rest and checks the CRC of the whole payload.
        assert_eq!(r.finish().unwrap(), crc32(&payload));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_uncommitted_writer_leaves_the_target_alone() {
        let path = temp_file("uncommitted");
        atomic_write_checksummed(&path, b"old").unwrap();
        {
            let mut w = CheckedWriter::create(&path).unwrap();
            w.write_all(b"new, never committed").unwrap();
        }
        assert_eq!(read_checksummed(&path).unwrap().0, b"old");
        assert!(!temp_path(&path).exists(), "temp file left behind");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_read_round_trip() {
        let path = std::env::temp_dir().join("sage_fsio_rt.bin");
        atomic_write_checksummed(&path, b"abc123").unwrap();
        assert_eq!(read_checksummed(&path).unwrap().0, b"abc123");
        // Overwrite is atomic too.
        atomic_write_checksummed(&path, b"second").unwrap();
        assert_eq!(read_checksummed(&path).unwrap().0, b"second");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_temp_file_left_behind() {
        let dir = std::env::temp_dir();
        let path = dir.join("sage_fsio_tmpcheck.bin");
        atomic_write_checksummed(&path, b"x").unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .contains("sage_fsio_tmpcheck.bin.")
            })
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }
}
