//! `sage-lint`: the workspace determinism & safety lint.
//!
//! The repo's headline guarantee is exact replay: the same seed yields the
//! same pool bytes, model bytes, league rankings and serve digests at any
//! thread count. The golden-digest tests catch a violation only after a
//! scenario happens to exercise it; this crate rejects the violation at
//! the source line that introduces it, before it can reach a digest.
//!
//! Two modules, zero dependencies: [`lexer`] turns a file into tokens plus
//! per-line comment/attribute structure, and [`rules`] runs the token rules
//! (D1–D3, D6, U1, P1, O1, A0) over it. See [`rules`] for the rule table
//! and the `// lint:allow(RULE): reason` suppression syntax.
//!
//! Run it with `cargo run -p sage-lint`; it walks every `crates/*/src`,
//! `crates/*/tests`, root `src/` and `tests/` file, prints the findings and
//! exits non-zero if there is one.

pub mod lexer;
pub mod rules;

pub use rules::{analyze, FileClass, FileOutcome, Finding, Rule, Suppressed};

use std::io;
use std::path::{Path, PathBuf};

/// Lint results for a whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    pub suppressed: Vec<Suppressed>,
}

/// Lint in-memory sources, given as `(workspace-relative path, content)`;
/// the path decides which rules apply ([`FileClass::from_rel_path`]).
pub fn analyze_sources(sources: &[(String, String)]) -> WorkspaceReport {
    let mut report = WorkspaceReport {
        files_scanned: sources.len(),
        ..Default::default()
    };
    for (rel, src) in sources {
        let out = analyze(rel, &FileClass::from_rel_path(rel), src);
        report.findings.extend(out.findings);
        report.suppressed.extend(out.suppressed);
    }
    report
}

/// The directories scanned relative to the workspace root: every crate's
/// `src` and `tests`, plus the root facade crate. Fixture corpora (the
/// lint's own test inputs) and binary golden directories are skipped.
fn scan_roots(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = vec![root.join("src"), root.join("tests")];
    let crates_dir = root.join("crates");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    entries.sort();
    for c in entries {
        roots.push(c.join("src"));
        roots.push(c.join("tests"));
    }
    Ok(roots.into_iter().filter(|p| p.is_dir()).collect())
}

/// Recursively collect `.rs` files under `dir` in sorted order, skipping
/// `fixtures/` (intentional rule-trippers) and `golden/` directories.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if name == "fixtures" || name == "golden" {
                continue;
            }
            collect_rs(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Collect the workspace's lintable sources as `(rel_path, text)` pairs,
/// in sorted path order. Exposed so tests can lint the real tree with
/// injected negative-control files appended.
pub fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for sub in scan_roots(root)? {
        collect_rs(&sub, &mut files)?;
    }
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// Lint every source file of the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    Ok(analyze_sources(&collect_sources(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_class_from_paths() {
        let c = FileClass::from_rel_path("crates/serve/src/runtime.rs");
        assert_eq!(c.crate_name, "serve");
        assert!(!c.in_tests_dir && !c.is_util_par && !c.is_env_cfg);
        let c = FileClass::from_rel_path("crates/core/tests/golden_train.rs");
        assert!(c.in_tests_dir);
        let c = FileClass::from_rel_path("crates/util/src/par.rs");
        assert!(c.is_util_par);
        let c = FileClass::from_rel_path("crates/util/src/env_cfg.rs");
        assert!(c.is_env_cfg);
        let c = FileClass::from_rel_path("src/lib.rs");
        assert_eq!(c.crate_name, "sage");
    }

    #[test]
    fn analyze_sources_classes_each_file_by_its_path() {
        let read = "fn site() { let _ = std::env::var(\"X\"); }\n".to_string();
        let sources = vec![
            ("crates/core/src/lib.rs".to_string(), read.clone()),
            ("crates/bench/src/lib.rs".to_string(), read),
            (
                "crates/eval/src/lib.rs".to_string(),
                "use std::collections::HashMap;\n".to_string(),
            ),
        ];
        let r = analyze_sources(&sources);
        assert_eq!(r.files_scanned, 3);
        let hits: Vec<(&str, Rule)> = r
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.rule))
            .collect();
        assert_eq!(
            hits,
            [
                ("crates/core/src/lib.rs", Rule::D6),
                ("crates/eval/src/lib.rs", Rule::D1)
            ]
        );
    }

    #[test]
    fn d6_findings_are_suppressible_and_unused_allows_fire_a0() {
        let src = "\
// lint:allow(D6): fixture exercises the suppression path for D6
fn site() { let _ = std::env::var(\"X\"); }\n";
        let r = analyze_sources(&[("crates/core/src/lib.rs".to_string(), src.to_string())]);
        assert!(
            r.findings.is_empty(),
            "allow must cover the D6 site: {:?}",
            r.findings
        );
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].rule, Rule::D6);

        // The same allow with nothing to suppress is an A0.
        let src = "// lint:allow(D6): nothing here reads the environment\nfn quiet() {}\n";
        let r = analyze_sources(&[("crates/core/src/lib.rs".to_string(), src.to_string())]);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, Rule::A0);
    }
}
