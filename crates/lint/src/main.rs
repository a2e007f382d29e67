//! `sage_lint` binary: lint the workspace, print findings, exit non-zero
//! on any unsuppressed finding.
//!
//! Usage: `cargo run -p sage-lint [workspace-root]` (default: the
//! workspace this binary was built from).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        // CARGO_MANIFEST_DIR = crates/lint → workspace root is two up.
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let report = match sage_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "sage-lint: cannot walk workspace at {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    for f in &report.findings {
        println!("{}:{}: {}: {}", f.file, f.line, f.rule, f.msg);
    }
    println!(
        "sage-lint: {} files, {} unsuppressed finding(s), {} suppressed",
        report.files_scanned,
        report.findings.len(),
        report.suppressed.len()
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
