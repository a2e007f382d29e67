//! The committed figure outputs are what the committed artifacts produce.
//!
//! `artifacts/results/MANIFEST.json` records, per output file, the figure
//! that wrote it, the knobs in force, the CRC of every artifact it read and
//! a digest of the bytes written. This gate holds the directory to it: a
//! result file that was edited, left behind by a deleted figure, produced at
//! smoke scale, or produced from a pool or model other than the committed
//! one fails here, with the command that regenerates it.

use sage_bench::ctx::{knobs, read_manifest, MANIFEST};
use sage_bench::figures::TABLE;
use sage_bench::{artifacts_dir, results_dir};
use sage_util::{fnv1a64, read_checksummed, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Written by `adv_search`, `distill_report` and `eval_matrix`, which rewrite
/// them byte for byte on every run.
const REPORTS: [&str; 5] = [
    "ADV_hardest.json",
    "DISTILL_report.json",
    "EVAL_matrix.json",
    "OBS_slo.json",
    "FAIRNESS_trace.md",
];

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
        let known = file == MANIFEST || manifest.contains_key(file) || REPORTS.contains(&&**file);
        if !known {
            found.push(format!(
                "{file}: neither a {MANIFEST} entry nor one of the five reports; nothing \
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
                "{file}: produced under knobs {}, the row's are {}; {} with SAGE_SET1, \
                 SAGE_SET2 and SAGE_SECS unset",
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
    let found = findings(&results_dir(), &artifacts_dir());
    assert!(found.is_empty(), "{}", found.join("\n"));
}

/// A copy of the committed results directory, altered by `tamper`.
fn tampered(name: &str, tamper: impl FnOnce(&Path)) -> Vec<String> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sage-results-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for entry in std::fs::read_dir(results_dir()).expect("results directory") {
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
