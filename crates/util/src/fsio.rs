//! Crash-safe artefact I/O: atomic writes and checksum-verified reads.
//!
//! Pools and models are written once and read many times, often by a later
//! process; a crash mid-write must never leave a file that parses into a
//! garbage state. Writers here go through a temp file + fsync + atomic
//! rename, and every payload carries a trailing checksum footer so that
//! truncation and bit corruption are detected deterministically on load.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

/// Footer magic. The footer is `MAGIC || payload_len: u64 LE || crc32: u32 LE`.
pub const FOOTER_MAGIC: &[u8; 8] = b"SAGECRC1";

/// Total footer size in bytes.
pub const FOOTER_LEN: usize = 8 + 8 + 4;

/// `CRC_TABLES[0]` is the bytewise table of the reflected polynomial
/// 0xEDB88320; `CRC_TABLES[k][b]` is the CRC state after byte `b` and `k`
/// zero bytes, which is what lets [`crc32`] fold eight bytes per step.
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

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8: the
/// value of the bytewise loop, eight bytes per table round (artefacts are
/// MBs, and every load and every manifest pass checksums them whole).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
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
    !crc
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

/// Append the checksum footer to a payload.
pub fn append_footer(payload: &mut Vec<u8>) {
    let len = payload.len() as u64;
    let crc = crc32(payload);
    payload.extend_from_slice(FOOTER_MAGIC);
    payload.extend_from_slice(&len.to_le_bytes());
    payload.extend_from_slice(&crc.to_le_bytes());
}

/// Split a footered buffer into its payload, verifying length and checksum.
/// Rejects truncated, extended, and bit-flipped files with a clear error.
pub fn verify_footer(buf: &[u8]) -> io::Result<&[u8]> {
    if buf.len() < FOOTER_LEN {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "file truncated: {} bytes is shorter than the checksum footer",
                buf.len()
            ),
        ));
    }
    let (payload, footer) = buf.split_at(buf.len() - FOOTER_LEN);
    if &footer[..8] != FOOTER_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "missing checksum footer (file truncated mid-write or from an incompatible version)",
        ));
    }
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&footer[8..16]);
    let stored_len = u64::from_le_bytes(len_bytes);
    if stored_len != payload.len() as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "length mismatch: footer says {stored_len} bytes, file holds {}",
                payload.len()
            ),
        ));
    }
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&footer[16..20]);
    let stored_crc = u32::from_le_bytes(crc_bytes);
    let actual = crc32(payload);
    if stored_crc != actual {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"),
        ));
    }
    Ok(payload)
}

/// Atomically replace `path` with `bytes`: write to a sibling temp file,
/// fsync it, rename over the target, then fsync the directory so the rename
/// itself survives a crash. Readers never observe a partial file.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = path.with_extension(format!(
        "{}.tmp~",
        path.extension().and_then(|e| e.to_str()).unwrap_or("bin")
    ));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(d) = dir {
        // Directory fsync is best-effort: not all filesystems support it.
        if let Ok(dh) = fs::File::open(d) {
            let _ = dh.sync_all();
        }
    }
    Ok(())
}

/// Atomically write `payload` with a checksum footer appended.
pub fn atomic_write_checksummed(path: &Path, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(payload.len() + FOOTER_LEN);
    buf.extend_from_slice(payload);
    append_footer(&mut buf);
    atomic_write(path, &buf)
}

/// Read a footered file, verify, and return the payload.
pub fn read_checksummed(path: &Path) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    fs::File::open(path)?.read_to_end(&mut buf)?;
    let payload = verify_footer(&buf)?;
    let n = payload.len();
    buf.truncate(n);
    Ok(buf)
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

    #[test]
    fn footer_round_trip() {
        let mut buf = b"hello world".to_vec();
        append_footer(&mut buf);
        assert_eq!(verify_footer(&buf).unwrap(), b"hello world");
    }

    #[test]
    fn footer_rejects_every_truncation() {
        let mut buf = b"payload bytes".to_vec();
        append_footer(&mut buf);
        for n in 0..buf.len() {
            assert!(
                verify_footer(&buf[..n]).is_err(),
                "truncation at {n} accepted"
            );
        }
    }

    #[test]
    fn footer_rejects_bit_flip() {
        let mut buf = b"some payload".to_vec();
        append_footer(&mut buf);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(verify_footer(&bad).is_err(), "bit flip at {i} accepted");
        }
    }

    #[test]
    fn atomic_write_read_round_trip() {
        let path = std::env::temp_dir().join("sage_fsio_rt.bin");
        atomic_write_checksummed(&path, b"abc123").unwrap();
        assert_eq!(read_checksummed(&path).unwrap(), b"abc123");
        // Overwrite is atomic too.
        atomic_write_checksummed(&path, b"second").unwrap();
        assert_eq!(read_checksummed(&path).unwrap(), b"second");
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
