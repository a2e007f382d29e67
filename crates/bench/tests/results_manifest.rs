//! Every committed result is what the committed artifacts produce.
//!
//! Every file under `artifacts/results/` is written by a row of the figure
//! table, and `MANIFEST.json` records, per file, the row that wrote it, the
//! row's knobs (grid scale, training steps), the CRC of every artifact it
//! read and a digest of the bytes written. This gate holds the directory to
//! it: a result file that was edited, left behind by a deleted row, produced
//! before its row's constants changed, or produced from a model other than
//! the committed one fails here, with the command that regenerates it.

use sage_bench::artifacts_dir;
use sage_bench::ctx::{knobs, read_manifest, MANIFEST};
use sage_bench::figures::TABLE;
use sage_util::prop::ensure;
use sage_util::{fnv1a64, forall, read_checksummed, Json, PropConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The committed `artifacts/results/`.
fn results() -> PathBuf {
    artifacts_dir().join("results")
}

fn rerun(id: &str) -> String {
    format!("regenerate with: cargo run --release -p sage-bench --bin figures -- {id}")
}

/// Everything wrong with `results`, given the artifacts in `artifacts`.
fn findings(results: &Path, artifacts: &Path) -> Vec<String> {
    let manifest = match read_manifest(results) {
        Ok(m) => m,
        Err(why) => return vec![why],
    };
    let mut found = Vec::new();

    let mut files: Vec<String> = std::fs::read_dir(results)
        .expect("results directory")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    files.sort();
    for file in &files {
        if file != MANIFEST && !manifest.contains_key(file) {
            found.push(format!(
                "{file}: neither a {MANIFEST} entry nor {MANIFEST} itself; nothing \
                 regenerates it, so it can only go stale"
            ));
        }
    }

    for fig in &TABLE {
        if !manifest.contains_key(fig.file) {
            found.push(format!(
                "{}: no {MANIFEST} entry; {}",
                fig.file,
                rerun(fig.id)
            ));
        }
    }

    let mut committed: BTreeMap<String, String> = BTreeMap::new();
    for (file, entry) in &manifest {
        let text = |key: &str| entry.get(key).and_then(Json::as_str).unwrap_or("");
        let Some(fig) = TABLE.iter().find(|f| f.file == file && f.id == text("id")) else {
            found.push(format!(
                "{file}: {MANIFEST} entry of no row of the figure table"
            ));
            continue;
        };
        let bytes = std::fs::read(results.join(file)).unwrap_or_default();
        let digest = format!("{:016x}", fnv1a64(&bytes));
        if digest != text("digest") {
            found.push(format!(
                "{file}: hashes to {digest}, {MANIFEST} records {}; {}",
                text("digest"),
                rerun(fig.id)
            ));
        }
        if entry.get("knobs") != Some(&knobs(fig.scale(), fig.steps)) {
            found.push(format!(
                "{file}: produced under knobs {}, the row's are {}; {}",
                entry.get("knobs").unwrap_or(&Json::Null),
                knobs(fig.scale(), fig.steps),
                rerun(fig.id)
            ));
        }
        for read in entry.get("read").and_then(Json::as_arr).unwrap_or(&[]) {
            let artifact = read.get("artifact").and_then(Json::as_str).unwrap_or("");
            let recorded = read.get("crc32").and_then(Json::as_str).unwrap_or("");
            let actual = committed.entry(artifact.to_string()).or_insert_with(|| {
                match read_checksummed(&artifacts.join(artifact)) {
                    Ok((_, crc)) => format!("{crc:08x}"),
                    Err(e) => format!("unreadable: {e}"),
                }
            });
            if recorded != actual {
                found.push(format!(
                    "{file}: produced from {artifact} with crc32 {recorded}, the committed \
                     {artifact} has {actual}; {}",
                    rerun(fig.id)
                ));
            }
        }
        if let Some(line) = String::from_utf8_lossy(&bytes)
            .lines()
            .find(|l| l.starts_with("trained "))
        {
            found.push(format!("{file}: carries a wall-clock line {line:?}"));
        }
    }
    found
}

#[test]
fn committed_results_match_their_manifest_and_the_committed_artifacts() {
    let found = findings(&results(), &artifacts_dir());
    assert!(found.is_empty(), "{}", found.join("\n"));
}

/// A copy of the committed results directory, altered by `tamper`.
fn tampered(name: &str, tamper: impl FnOnce(&Path)) -> Vec<String> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sage-results-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for entry in std::fs::read_dir(results()).expect("results directory") {
        let from = entry.expect("dir entry").path();
        std::fs::copy(&from, dir.join(from.file_name().expect("file name"))).expect("copy");
    }
    tamper(&dir);
    let found = findings(&dir, &artifacts_dir());
    std::fs::remove_dir_all(&dir).expect("clean up");
    found
}

#[test]
fn one_flipped_output_byte_is_the_only_finding() {
    let found = tampered("flip", |dir| {
        let path = dir.join("fig10.txt");
        let mut bytes = std::fs::read(&path).expect("fig10.txt");
        let last = bytes.len() - 2;
        bytes[last] ^= 1;
        std::fs::write(&path, bytes).expect("rewrite");
    });
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].starts_with("fig10.txt: hashes to ") && found[0].ends_with("figures -- fig10"),
        "{found:?}"
    );
}

#[test]
fn one_flipped_report_byte_is_the_only_finding() {
    let found = tampered("report", |dir| {
        let path = dir.join("EVAL_matrix.json");
        let mut bytes = std::fs::read(&path).expect("EVAL_matrix.json");
        let last = bytes.len() - 2;
        bytes[last] ^= 1;
        std::fs::write(&path, bytes).expect("rewrite");
    });
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].starts_with("EVAL_matrix.json: hashes to ")
            && found[0].ends_with("figures -- matrix"),
        "{found:?}"
    );
}

#[test]
fn knobs_other_than_the_rows_are_the_only_finding() {
    // What an edited row constant leaves behind: the entry records fig10's
    // old grid, 20 + 10 environments, as 21 + 10.
    let found = tampered("knobs", |dir| {
        let path = dir.join(MANIFEST);
        let text = std::fs::read_to_string(&path).expect("manifest");
        let (head, tail) = text.split_once("\"fig10.txt\"").expect("fig10 entry");
        let forged = tail.replacen("\"set1\":20", "\"set1\":21", 1);
        assert_ne!(forged, tail, "fig10's entry records its Set I count");
        std::fs::write(&path, format!("{head}\"fig10.txt\"{forged}")).expect("rewrite");
    });
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(
        found[0].starts_with("fig10.txt: produced under knobs ")
            && found[0].ends_with("figures -- fig10"),
        "{found:?}"
    );
}

#[test]
fn a_foreign_model_crc_is_the_only_finding() {
    let found = tampered("crc", |dir| {
        let path = dir.join(MANIFEST);
        let text = std::fs::read_to_string(&path).expect("manifest");
        // fig17's entry: same file, another model's CRC recorded.
        let (head, tail) = text.split_once("\"fig17.txt\"").expect("fig17 entry");
        let crc_at = tail.find("\"crc32\":\"").expect("fig17 read sage.model") + 9;
        let forged = format!("{}deadbeef{}", &tail[..crc_at], &tail[crc_at + 8..]);
        std::fs::write(&path, format!("{head}\"fig17.txt\"{forged}")).expect("rewrite");
    });
    assert_eq!(found.len(), 1, "{found:?}");
    let (_, crc) = read_checksummed(&artifacts_dir().join("sage.model")).expect("sage.model");
    let committed = format!("{crc:08x}");
    for part in [
        "fig17.txt: produced from sage.model with crc32 deadbeef",
        &committed,
        "figures -- fig17",
    ] {
        assert!(found[0].contains(part), "{found:?} lacks {part:?}");
    }
}

#[test]
fn an_unlisted_file_is_the_only_finding() {
    let found = tampered("stray", |dir| {
        std::fs::write(dir.join("fig20.txt"), "from a bin that no longer exists\n").expect("write");
    });
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("fig20.txt: neither a "), "{found:?}");
}

/// A damaged manifest is a parse result, never a panic or an abort: the
/// committed `MANIFEST.json` cut at any byte, or with any one bit flipped.
#[test]
fn a_cut_or_flipped_manifest_parses_to_a_result() {
    let bytes = std::fs::read(results().join(MANIFEST)).expect("manifest");
    let closing = bytes.iter().rposition(|&b| b == b'}').expect("an object");
    forall("damaged manifest", PropConfig::new(400, 0x3A11), |rng| {
        let at = rng.below(bytes.len());
        let mut damaged = bytes.clone();
        let cut = rng.below(2) == 0;
        if cut {
            damaged.truncate(at);
        } else {
            damaged[at] ^= 1 << rng.below(8);
        }
        let parsed = Json::parse(&String::from_utf8_lossy(&damaged));
        ensure(!cut || at > closing || parsed.is_err(), || {
            format!("the manifest cut at byte {at} parsed")
        })
    });
}
