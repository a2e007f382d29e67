//! Golden files: the one place a pin is stored, compared and rewritten.
//!
//! A pinned test computes its bytes and hands them to [`check`] with the
//! file that holds them. Normally the bytes are compared; with
//! `SAGE_REGEN_GOLDEN=1` ([`env_cfg::regen_golden`]) the file is rewritten
//! instead. Nothing else in the workspace rewrites a pin, so every pin moves
//! the same way: [`REGEN`] reruns the whole suite in that mode after
//! retraining and redrawing every figure.

use crate::env_cfg;
use std::fmt;
use std::path::Path;

/// The one command that regenerates every committed result and golden.
pub const REGEN: &str = "./run_experiments.sh";

/// Longest excerpt of a differing line a mismatch message quotes.
const EXCERPT: usize = 160;

/// Why a golden check failed. `Debug` prints the message as it is, so a
/// test's `.unwrap()` shows it whole.
pub struct Mismatch(String);

impl fmt::Debug for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Compare `got` with the golden file at `path`, or rewrite the file when
/// `SAGE_REGEN_GOLDEN` is `1`. The error names the file, the first line
/// that differs and [`REGEN`]; the caller asserts on it.
pub fn check(path: impl AsRef<Path>, got: impl AsRef<[u8]>) -> Result<(), Mismatch> {
    check_or_write(path.as_ref(), got.as_ref(), env_cfg::regen_golden()).map_err(Mismatch)
}

/// [`check`] with the switch passed in: `regen` rewrites a file that
/// differs or is missing.
fn check_or_write(path: &Path, got: &[u8], regen: bool) -> Result<(), String> {
    let want = std::fs::read(path);
    if want.as_deref().is_ok_and(|w| w == got) {
        return Ok(());
    }
    let file = path.display();
    if regen {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("golden {file}: {e}"))?;
        }
        crate::atomic_write(path, got).map_err(|e| format!("golden {file}: {e}"))?;
        eprintln!("regenerated {file}");
        return Ok(());
    }
    let want = want.map_err(|e| {
        format!("golden {file} cannot be read ({e}); regenerate every golden with {REGEN}")
    })?;
    let (at, line) = first_difference(&want, got);
    Err(format!(
        "golden {file} differs from what the test computed, first at line {line} \
         (byte {at}; {} B committed, {} B computed):\n  \
         committed: {}\n  computed:  {}\n\
         if the change is intentional, regenerate every golden with {REGEN}",
        want.len(),
        got.len(),
        excerpt(&want, at),
        excerpt(got, at)
    ))
}

/// The offset of the first byte where `want` and `got` differ (the shorter
/// length when one is a prefix of the other), and its 1-based line number.
fn first_difference(want: &[u8], got: &[u8]) -> (usize, usize) {
    let at = want.iter().zip(got).take_while(|(a, b)| a == b).count();
    let line = 1 + want[..at].iter().filter(|&&b| b == b'\n').count();
    (at, line)
}

/// The line of `side` that holds byte `at`, quoted, from its start or from
/// half an excerpt before `at`, whichever is later, to its end or
/// [`EXCERPT`] bytes on.
fn excerpt(side: &[u8], at: usize) -> String {
    let line_start = side[..at]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);
    let rest = &side[line_start.max(at.saturating_sub(EXCERPT / 2))..];
    let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
    format!("{:?}", String::from_utf8_lossy(&rest[..len.min(EXCERPT)]))
}

#[cfg(test)]
mod tests {
    use super::{check_or_write, REGEN};
    use std::path::PathBuf;

    /// A fresh directory under the system temp dir, one per test.
    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sage_golden_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn equal_bytes_pass() {
        let d = dir("equal");
        let path = d.join("pin.txt");
        std::fs::write(&path, b"digest 0123\nflows 64\n").unwrap();
        assert_eq!(
            check_or_write(&path, b"digest 0123\nflows 64\n", false),
            Ok(())
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn a_one_byte_mismatch_names_the_file_the_line_and_the_command() {
        let d = dir("mismatch");
        let path = d.join("pin.txt");
        std::fs::write(&path, b"digest 0123\nflows 64\n").unwrap();
        let err = check_or_write(&path, b"digest 0123\nflows 65\n", false).unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("line 2"), "{err}");
        assert!(
            err.contains("\"flows 64\"") && err.contains("\"flows 65\""),
            "{err}"
        );
        assert!(err.contains(REGEN), "{err}");
        // Comparing never writes.
        assert_eq!(std::fs::read(&path).unwrap(), b"digest 0123\nflows 64\n");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn a_missing_file_fails_with_the_same_command() {
        let d = dir("missing");
        let path = d.join("pin.txt");
        let err = check_or_write(&path, b"digest 0123\n", false).unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains(REGEN), "{err}");
        assert!(!path.exists());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn regen_mode_writes_the_file() {
        let d = dir("regen");
        let path = d.join("golden").join("pin.txt");
        assert_eq!(check_or_write(&path, b"digest 0123\n", true), Ok(()));
        assert_eq!(std::fs::read(&path).unwrap(), b"digest 0123\n");
        assert_eq!(check_or_write(&path, b"digest 4567\n", true), Ok(()));
        assert_eq!(std::fs::read(&path).unwrap(), b"digest 4567\n");
        assert_eq!(check_or_write(&path, b"digest 4567\n", false), Ok(()));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn a_difference_is_located_by_byte_and_line() {
        use super::{excerpt, first_difference};
        assert_eq!(first_difference(b"a\nb\n", b"a\nb\nc\n"), (4, 3));
        assert_eq!(first_difference(b"a\nbx\n", b"a\nby\n"), (3, 2));
        assert_eq!(excerpt(b"a\nbx\nz", 3), "\"bx\"");
        // A file that ended quotes the empty rest of its line.
        assert_eq!(excerpt(b"a\nb\n", 4), "\"\"");
        // A long line is quoted from half an excerpt before the byte.
        let long = [b'0'; 400];
        assert_eq!(excerpt(&long, 300).len(), super::EXCERPT + 2);
    }
}
