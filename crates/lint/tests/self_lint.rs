//! The workspace self-lint golden: the repo's own sources must carry
//! zero unsuppressed findings, and every suppression must state a
//! reason. This is the test-suite twin of the `sage_lint` binary stage
//! in `scripts/check.sh`.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/lint → workspace root is two up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let report = sage_lint::lint_workspace(&workspace_root()).expect("workspace walks");
    let lines: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: {}: {}", f.file, f.line, f.rule, f.msg))
        .collect();
    assert!(
        report.findings.is_empty(),
        "unsuppressed lint findings:\n{}",
        lines.join("\n")
    );
    // Sanity: the walk actually visited the workspace, not an empty dir.
    assert!(
        report.files_scanned > 50,
        "only {} files",
        report.files_scanned
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    let report = sage_lint::lint_workspace(&workspace_root()).expect("workspace walks");
    assert!(
        !report.suppressed.is_empty(),
        "the workspace is known to carry justified suppressions"
    );
    for s in &report.suppressed {
        assert!(
            s.reason.trim().len() >= 10,
            "{}:{}: suppression reason too thin: {:?}",
            s.file,
            s.line,
            s.reason
        );
    }
}

/// Seeded negative control: inject a library file that compiles and breaks
/// the contract twice — it reads the environment (D6) and iterates a
/// `HashMap` (D1) — into the real workspace source set and require both to
/// be caught. If this fails, the detector has silently rotted and the clean
/// self-lint above proves nothing.
#[test]
fn injected_env_read_and_hash_iteration_are_caught() {
    let mut sources = sage_lint::collect_sources(&workspace_root()).expect("workspace walks");
    sources.push((
        "crates/netsim/src/injected_negctrl.rs".to_string(),
        concat!(
            "pub fn bad_total(xs: &std::collections::HashMap<u32, f64>) -> f64 {\n",
            "    let scale = std::env::var(\"SAGE_SCALE\").map_or(1.0, |_| 2.0);\n",
            "    xs.values().sum::<f64>() * scale\n",
            "}\n"
        )
        .to_string(),
    ));
    let report = sage_lint::analyze_sources(&sources);
    let caught: Vec<(usize, sage_lint::Rule)> = report
        .findings
        .iter()
        .map(|f| {
            // The injection must be the *only* source of findings — the
            // real tree stays clean around it.
            assert!(f.file.contains("injected_negctrl"), "{f:?}");
            (f.line, f.rule)
        })
        .collect();
    assert_eq!(
        caught,
        [(1, sage_lint::Rule::D1), (2, sage_lint::Rule::D6)],
        "{:?}",
        report.findings
    );
}
