//! The rule engine: line-oriented rules applied to one lexed file, and the
//! `// lint:allow(...)` suppression machinery.
//!
//! | Rule | What it rejects | Why |
//! |------|-----------------|-----|
//! | D1 | `HashMap`/`HashSet`/`RandomState` | hash iteration order is seeded per process — replay-breaking |
//! | D2 | `Instant`/`SystemTime`/`thread::spawn`/`mpsc` outside obs, `util::par`, bench | wall clocks and free-running threads leak scheduling into results |
//! | D3 | `rand::`, `thread_rng`, `OsRng`, `getrandom`, ... | ambient entropy bypasses the seeded `sage_util::Rng` |
//! | D6 | `env::var`/`var_os`/`vars`/`vars_os` outside `util::env_cfg`, bench, and tests | ambient configuration read mid-pipeline makes results depend on the environment, invisibly |
//! | U1 | `unsafe` without a `// SAFETY:` comment | every unsafe site must state its proof obligations |
//! | P1 | `unwrap()`/`expect(`/`panic!` in library non-test code | library code propagates errors; panics are for provable invariants only |
//! | O1 | `obs_counter!`/`obs_gauge!`/`obs_hist!` names not in `snake.dot.case` | one metric namespace: lowercase dot-separated segments, grep-able and collision-free |
//! | A0 | malformed or unused `lint:allow` | suppressions must carry a reason and actually suppress something |
//!
//! Every rule sees one lexed file and nothing else. What needs more than
//! tokens is the compiler's job: `par_map`'s `Fn + Sync` bound rejects a
//! closure that mutates captured state, `unsafe_code = "deny"` in the root
//! manifest rejects `unsafe` outside `nn::infer`, and `clippy.toml` mirrors
//! D1–D3 (see DESIGN.md "Static analysis").
//!
//! Suppression syntax: `// lint:allow(RULE[,RULE...]): reason`. On a line
//! with code it covers that line; on a comment-only line it covers the
//! next line that has code. The reason is mandatory.

use crate::lexer::{lex, Lexed, SpannedTok, Tok};
use std::fmt;

/// Rule identifiers. `A0` is the meta-rule about suppressions themselves
/// and can never be suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    D1,
    D2,
    D3,
    D6,
    U1,
    P1,
    O1,
    A0,
}

impl Rule {
    pub const ALL: [Rule; 8] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::D6,
        Rule::U1,
        Rule::P1,
        Rule::O1,
        Rule::A0,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D6 => "D6",
            Rule::U1 => "U1",
            Rule::P1 => "P1",
            Rule::O1 => "O1",
            Rule::A0 => "A0",
        }
    }

    /// A rule a `lint:allow` may name — every rule but `A0`.
    fn parse(s: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| *r != Rule::A0 && r.name() == s.trim())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An unsuppressed rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: Rule,
    pub msg: String,
}

/// A violation covered by a `lint:allow` annotation.
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub file: String,
    pub line: usize,
    pub rule: Rule,
    pub reason: String,
}

/// Result of analysing one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    pub findings: Vec<Finding>,
    pub suppressed: Vec<Suppressed>,
}

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Short crate directory name (`util`, `serve`, `bench`, ... or
    /// `sage` for the root facade crate).
    pub crate_name: String,
    /// File lives under a `tests/` directory (integration tests).
    pub in_tests_dir: bool,
    /// The one file allowed to own threads: `crates/util/src/par.rs`.
    pub is_util_par: bool,
    /// The one file allowed to read ambient configuration:
    /// `crates/util/src/env_cfg.rs` (the D6 config layer).
    pub is_env_cfg: bool,
}

impl FileClass {
    /// Derive the class from a workspace-relative path such as
    /// `crates/serve/src/runtime.rs` or `src/lib.rs`.
    pub fn from_rel_path(rel: &str) -> FileClass {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_name = match parts.first() {
            Some(&"crates") if parts.len() > 1 => parts[1].to_string(),
            _ => "sage".to_string(),
        };
        FileClass {
            crate_name,
            in_tests_dir: parts.contains(&"tests"),
            is_util_par: rel.ends_with("crates/util/src/par.rs"),
            is_env_cfg: rel.ends_with("crates/util/src/env_cfg.rs"),
        }
    }

    fn applies(&self, rule: Rule, in_test_region: bool) -> bool {
        let library_code = self.crate_name != "bench" && !self.in_tests_dir && !in_test_region;
        match rule {
            // Benches are timing tools by nature: exempt from the hash-map
            // and wall-clock rules (their reports are not digest-covered).
            Rule::D1 => self.crate_name != "bench",
            Rule::D2 => self.crate_name != "bench" && self.crate_name != "obs" && !self.is_util_par,
            // Ambient entropy is never acceptable, benches included.
            Rule::D3 => true,
            // Bins and tests own their process's environment; a library
            // reads it only through the named accessors of `env_cfg`.
            Rule::D6 => library_code && !self.is_env_cfg,
            Rule::U1 => true,
            Rule::P1 => library_code,
            // Metric names share one namespace; the rule applies everywhere.
            Rule::O1 => true,
            Rule::A0 => true,
        }
    }
}

/// One parsed `lint:allow` annotation.
struct Allow {
    line: usize,
    target: usize,
    rules: Vec<Rule>,
    reason: String,
    used: bool,
}

/// Route one violation through the file's allows: suppressed if an allow
/// targets its line and rule, a finding otherwise.
fn emit(
    file: &str,
    allows: &mut [Allow],
    out: &mut FileOutcome,
    line: usize,
    rule: Rule,
    msg: String,
) {
    for a in allows.iter_mut() {
        if a.target == line && a.rules.contains(&rule) {
            a.used = true;
            out.suppressed.push(Suppressed {
                file: file.to_string(),
                line,
                rule,
                reason: a.reason.clone(),
            });
            return;
        }
    }
    out.findings.push(Finding {
        file: file.to_string(),
        line,
        rule,
        msg,
    });
}

/// Report every allow that suppressed nothing as an A0 finding.
fn finish_allows(file: &str, allows: &[Allow], out: &mut FileOutcome) {
    for a in allows.iter().filter(|a| !a.used) {
        out.findings.push(Finding {
            file: file.to_string(),
            line: a.line,
            rule: Rule::A0,
            msg: format!(
                "unused suppression `lint:allow({})` — nothing on line {} fires it (A0)",
                a.rules
                    .iter()
                    .map(|r| r.name())
                    .collect::<Vec<_>>()
                    .join(","),
                a.target
            ),
        });
    }
}

/// The rules D1–D3, D6, U1, P1 and O1 over one lexed file.
fn line_pass(
    file: &str,
    class: &FileClass,
    lexed: &Lexed,
    allows: &mut [Allow],
    out: &mut FileOutcome,
) {
    let test_regions = test_regions(lexed);
    let in_test = |line: usize| test_regions.iter().any(|&(a, b)| line >= a && line <= b);

    let toks = &lexed.toks;
    for (i, st) in toks.iter().enumerate() {
        let Tok::Ident(id) = &st.tok else { continue };
        let line = st.line;
        let mut hit = |rule: Rule, msg: String, out: &mut FileOutcome| {
            if class.applies(rule, in_test(line)) {
                emit(file, allows, out, line, rule, msg);
            }
        };
        match id.as_str() {
            "HashMap" | "HashSet" | "RandomState" => hit(
                Rule::D1,
                format!("`{id}` iterates in per-process seeded order; use BTreeMap/BTreeSet or a slab (D1)"),
                out,
            ),
            "Instant" | "SystemTime" => hit(
                Rule::D2,
                format!("wall clock `{id}` outside sage-obs/util::par/bench leaks real time into results (D2)"),
                out,
            ),
            "mpsc" => hit(
                Rule::D2,
                "`mpsc` channels order messages by scheduling; use util::par's ordered reduction (D2)".into(),
                out,
            ),
            "thread" if path_seq(toks, i, &["spawn"]) => hit(
                Rule::D2,
                "free-running `thread::spawn` escapes the deterministic worker pool (D2)".into(),
                out,
            ),
            "rand" if followed_by_path_sep(toks, i) => hit(
                Rule::D3,
                "the `rand` crate draws ambient entropy; all RNG flows through sage_util::Rng (D3)".into(),
                out,
            ),
            "thread_rng" | "from_entropy" | "getrandom" | "OsRng" | "StdRng" | "SmallRng" => hit(
                Rule::D3,
                format!("`{id}` is ambient entropy; seed a sage_util::Rng instead (D3)"),
                out,
            ),
            "env" if ["var", "var_os", "vars", "vars_os"]
                .iter()
                .any(|read| path_seq(toks, i, &[read])) =>
            {
                hit(
                    Rule::D6,
                    "environment read outside the config layer; route ambient configuration \
                     through a named accessor in sage_util::env_cfg (D6)"
                        .into(),
                    out,
                )
            }
            "unsafe" if !safety_comment_covers(lexed, line) => hit(
                Rule::U1,
                "`unsafe` without a `// SAFETY:` comment on the preceding lines (U1)".into(),
                out,
            ),
            "unwrap" if next_is(toks, i, '(') => hit(
                Rule::P1,
                "`unwrap()` in library code; propagate a Result or annotate the invariant (P1)".into(),
                out,
            ),
            "expect" if next_is(toks, i, '(') => hit(
                Rule::P1,
                "`expect()` in library code; propagate a Result or annotate the invariant (P1)".into(),
                out,
            ),
            "panic" if next_is(toks, i, '!') => hit(
                Rule::P1,
                "`panic!` in library code; return an error or annotate the invariant (P1)".into(),
                out,
            ),
            "obs_counter" | "obs_gauge" | "obs_hist" => {
                if let Some(name) = macro_str_arg(toks, i) {
                    if !is_metric_name(&name) {
                        hit(
                            Rule::O1,
                            format!(
                                "metric name `{name}` in `{id}!` is not snake.dot.case \
                                 (lowercase `[a-z0-9_]` segments, >= 2, dot-separated) (O1)"
                            ),
                            out,
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// Analyse one file's source under the given class.
pub fn analyze(file: &str, class: &FileClass, src: &str) -> FileOutcome {
    let lexed = lex(src);
    let mut out = FileOutcome::default();
    let mut allows = parse_allows(file, &lexed, &mut out);
    line_pass(file, class, &lexed, &mut allows, &mut out);
    finish_allows(file, &allows, &mut out);
    out.findings.sort_by_key(|f| (f.line, f.rule));
    out
}

// ---------------------------------------------------------------------
// Token helpers shared by the line rules
// ---------------------------------------------------------------------

/// `toks[i]` is an identifier; is the token right after it `want`?
fn next_is(toks: &[SpannedTok], i: usize, want: char) -> bool {
    matches!(toks.get(i + 1), Some(t) if t.tok == Tok::Punct(want))
}

/// Does `toks[i]` start the path `ident :: seg1 :: seg2 ...`?
fn path_seq(toks: &[SpannedTok], i: usize, segs: &[&str]) -> bool {
    let mut j = i + 1;
    for seg in segs {
        if !(matches!(toks.get(j), Some(t) if t.tok == Tok::Punct(':'))
            && matches!(toks.get(j + 1), Some(t) if t.tok == Tok::Punct(':')))
        {
            return false;
        }
        j += 2;
        match toks.get(j) {
            Some(t) if t.tok == Tok::Ident(seg.to_string()) => j += 1,
            _ => return false,
        }
    }
    true
}

/// If `toks[i]` is a macro name invoked as `name!("literal", ...)` (or
/// `name!["literal"]` / `name!{"literal"}`), return the literal. Names
/// passed as expressions are invisible to this — fine, because the obs
/// macros only accept literals.
fn macro_str_arg(toks: &[SpannedTok], i: usize) -> Option<String> {
    if !next_is(toks, i, '!') {
        return None;
    }
    let open = toks.get(i + 2)?;
    if !matches!(
        open.tok,
        Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{')
    ) {
        return None;
    }
    match &toks.get(i + 3)?.tok {
        Tok::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// O1 shape: lowercase `[a-z0-9_]` segments, at least two, dot-separated,
/// with no empty segment (no leading/trailing/double dots).
fn is_metric_name(name: &str) -> bool {
    let segs: Vec<&str> = name.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Is `toks[i]` followed by `::` (i.e. used as a path root)?
fn followed_by_path_sep(toks: &[SpannedTok], i: usize) -> bool {
    matches!(toks.get(i + 1), Some(t) if t.tok == Tok::Punct(':'))
        && matches!(toks.get(i + 2), Some(t) if t.tok == Tok::Punct(':'))
}

/// U1 resolution: a `SAFETY:` comment on the same line, or on the run of
/// comment-only / attribute lines immediately above it.
fn safety_comment_covers(lexed: &Lexed, line: usize) -> bool {
    let has_safety = |l: usize| -> bool {
        lexed.lines[l]
            .comments
            .iter()
            .any(|c| c.contains("SAFETY:"))
    };
    if has_safety(line) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let info = &lexed.lines[l];
        if info.has_code && !info.attr_start {
            return false;
        }
        if !info.has_code && info.comments.is_empty() {
            return false; // blank line breaks the comment run
        }
        if has_safety(l) {
            return true;
        }
    }
    false
}

/// Find `#[cfg(test)]`-gated items and return their inclusive line ranges.
fn test_regions(lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.toks;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let Some(end_attr) = cfg_test_attr(toks, i) else {
            i += 1;
            continue;
        };
        let start_line = toks[i].line;
        // Skip any further attributes on the same item.
        let mut j = end_attr;
        while matches!(toks.get(j), Some(t) if t.tok == Tok::Punct('#'))
            && matches!(toks.get(j + 1), Some(t) if t.tok == Tok::Punct('['))
        {
            match matching(toks, j + 1, '[', ']') {
                Some(k) => j = k + 1,
                None => break,
            }
        }
        // The gated item ends at its matching `}` or at a `;` before any `{`.
        let mut k = j;
        let mut end_line = start_line;
        while let Some(t) = toks.get(k) {
            match t.tok {
                Tok::Punct('{') => {
                    if let Some(close) = matching(toks, k, '{', '}') {
                        end_line = toks[close].line;
                        i = close;
                    }
                    break;
                }
                Tok::Punct(';') => {
                    end_line = t.line;
                    i = k;
                    break;
                }
                _ => k += 1,
            }
        }
        regions.push((start_line, end_line));
        i += 1;
    }
    regions
}

/// If `toks[i]` opens an attribute whose path is `cfg` and whose argument
/// list mentions `test`, return the index just past the closing `]`.
fn cfg_test_attr(toks: &[SpannedTok], i: usize) -> Option<usize> {
    if toks.get(i)?.tok != Tok::Punct('#') || toks.get(i + 1)?.tok != Tok::Punct('[') {
        return None;
    }
    if toks.get(i + 2)?.tok != Tok::Ident("cfg".into()) {
        return None;
    }
    let close = matching(toks, i + 1, '[', ']')?;
    let has_test = toks[i + 2..close]
        .iter()
        .any(|t| t.tok == Tok::Ident("test".into()));
    has_test.then_some(close + 1)
}

/// Index of the punct matching the opener at `open_idx`, counting nesting.
fn matching(toks: &[SpannedTok], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.tok == Tok::Punct(open) {
            depth += 1;
        } else if t.tok == Tok::Punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Parse every `lint:allow` comment; malformed ones become A0 findings.
fn parse_allows(file: &str, lexed: &Lexed, out: &mut FileOutcome) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (line, info) in lexed.lines.iter().enumerate() {
        for c in &info.comments {
            // Anchored at the start of the comment so prose that merely
            // *mentions* `lint:allow(...)` (like this line) never parses
            // as a suppression.
            let body = c.trim_start_matches(['/', '!', '*', ' ', '\t']);
            let Some(rest) = body.strip_prefix("lint:allow") else {
                continue;
            };
            let parsed = parse_allow_body(rest);
            match parsed {
                Ok((rules, reason)) => {
                    let target = if info.has_code {
                        line
                    } else {
                        // Comment-only line: covers the next code line.
                        (line + 1..lexed.lines.len())
                            .find(|&l| lexed.lines[l].has_code)
                            .unwrap_or(line)
                    };
                    allows.push(Allow {
                        line,
                        target,
                        rules,
                        reason,
                        used: false,
                    });
                }
                Err(why) => out.findings.push(Finding {
                    file: file.to_string(),
                    line,
                    rule: Rule::A0,
                    msg: format!("malformed suppression: {why} (A0)"),
                }),
            }
        }
    }
    allows
}

/// Parse `(RULE[,RULE...]): reason` after the `lint:allow` keyword.
fn parse_allow_body(rest: &str) -> Result<(Vec<Rule>, String), String> {
    let rest = rest.trim_start();
    let Some(inner_end) = rest.find(')') else {
        return Err("expected `(RULE): reason`".to_string());
    };
    let Some(stripped) = rest.strip_prefix('(') else {
        return Err("expected `(` after lint:allow".to_string());
    };
    let inner = &stripped[..inner_end - 1];
    let mut rules = Vec::new();
    for part in inner.split(',') {
        match Rule::parse(part) {
            Some(r) => rules.push(r),
            None => return Err(format!("unknown rule `{}`", part.trim())),
        }
    }
    let after = rest[inner_end + 1..].trim_start();
    let Some(reason) = after.strip_prefix(':') else {
        return Err("missing `: reason` — every suppression must say why".to_string());
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err("empty reason — every suppression must say why".to_string());
    }
    Ok((rules, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_class() -> FileClass {
        FileClass::from_rel_path("crates/core/src/lib.rs")
    }

    fn run(src: &str) -> FileOutcome {
        analyze("test.rs", &lib_class(), src)
    }

    #[test]
    fn d1_fires_on_hash_map() {
        let out = run("use std::collections::HashMap;\n");
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::D1);
    }

    #[test]
    fn d1_exempts_bench() {
        let class = FileClass::from_rel_path("crates/bench/src/lib.rs");
        let out = analyze("b.rs", &class, "use std::collections::HashMap;\n");
        assert!(out.findings.is_empty());
    }

    #[test]
    fn d2_fires_on_instant_and_spawn() {
        let out = run("let t = Instant::now();\nstd::thread::spawn(|| {});\n");
        assert_eq!(out.findings.len(), 2);
        assert!(out.findings.iter().all(|f| f.rule == Rule::D2));
    }

    #[test]
    fn d2_ignores_thread_scope() {
        let out = run("std::thread::scope(|s| { s.spawn(|| {}); });\n");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn d3_fires_on_rand_path_but_not_rand_variable() {
        let out = run("let x = rand::random::<u64>();\n");
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::D3);
        let out = run("let rand = 3; let y = rand + 1;\n");
        assert!(out.findings.is_empty());
    }

    #[test]
    fn u1_requires_safety_comment() {
        let out = run("unsafe { core::hint::unreachable_unchecked() }\n");
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::U1);
        let ok = run("// SAFETY: provably unreachable by the match above\nunsafe { op() }\n");
        assert!(ok.findings.is_empty());
    }

    #[test]
    fn u1_comment_run_skips_attributes() {
        let src = "// SAFETY: caller upholds alignment\n#[inline]\nunsafe fn f() {}\n";
        assert!(run(src).findings.is_empty());
    }

    #[test]
    fn p1_fires_and_suppression_works() {
        let out = run("let x = maybe().unwrap();\n");
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::P1);
        let ok = run(
            "// lint:allow(P1): value proven Some by the guard above\nlet x = maybe().unwrap();\n",
        );
        assert!(ok.findings.is_empty());
        assert_eq!(ok.suppressed.len(), 1);
        assert_eq!(ok.suppressed[0].rule, Rule::P1);
    }

    #[test]
    fn p1_skips_cfg_test_modules_but_d_rules_do_not() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x().unwrap(); }\n}\n";
        assert!(run(src).findings.is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let out = run(src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::D1);
    }

    #[test]
    fn a0_fires_on_missing_reason_and_unused_allow() {
        let out = run("// lint:allow(P1)\nlet x = maybe().unwrap();\n");
        // Malformed allow does not suppress: one A0 plus the P1 itself.
        assert_eq!(out.findings.len(), 2);
        assert!(out.findings.iter().any(|f| f.rule == Rule::A0));
        assert!(out.findings.iter().any(|f| f.rule == Rule::P1));

        let out = run("// lint:allow(D1): nothing here actually uses a map\nlet x = 1;\n");
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::A0);
    }

    #[test]
    fn d6_fires_on_env_reads_in_library_code_only() {
        for read in ["var(\"X\")", "var_os(\"X\")", "vars()", "vars_os()"] {
            let out = run(&format!("let v = std::env::{read};\n"));
            assert_eq!(out.findings.len(), 1, "{read}");
            assert_eq!(out.findings[0].rule, Rule::D6, "{read}");
        }
        // Other `env` items and a local that happens to be called `env`.
        assert!(
            run("let a = std::env::args(); let env = 1; let y = env + 1;\n")
                .findings
                .is_empty()
        );
        let read = "let v = std::env::var(\"X\");\n";
        for exempt in [
            "crates/util/src/env_cfg.rs",
            "crates/bench/src/bin/fig01.rs",
            "crates/core/tests/golden_train.rs",
        ] {
            let out = analyze(exempt, &FileClass::from_rel_path(exempt), read);
            assert!(out.findings.is_empty(), "{exempt}: {:?}", out.findings);
        }
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n    fn t() {{ {read} }}\n}}\n");
        assert!(run(&in_test_mod).findings.is_empty());
    }

    #[test]
    fn o1_enforces_snake_dot_case_metric_names() {
        for bad in [
            "obs_counter!(\"Serve.NnActions\").inc();\n",
            "obs_gauge!(\"serve\").set(1);\n",
            "obs_hist!(\"serve..latency\").observe(1);\n",
            "obs_counter!(\".leading.dot\").inc();\n",
            "obs_counter!(\"trailing.dot.\").inc();\n",
            "obs_counter!(\"lint.unsuppressed.D1\").inc();\n",
        ] {
            let out = run(bad);
            assert_eq!(out.findings.len(), 1, "{bad}");
            assert_eq!(out.findings[0].rule, Rule::O1, "{bad}");
        }
        for good in [
            "obs_counter!(\"serve.nn_actions\").inc();\n",
            "obs_gauge!(\"serve.tier_nn\").set(1);\n",
            "obs_hist!(\"netsim.queue_depth_pkts\").observe(1.0);\n",
            "obs_counter!(\"a.b2.c_d\").inc();\n",
        ] {
            assert!(run(good).findings.is_empty(), "{good}");
        }
        // Non-literal names and unrelated idents are invisible to O1.
        assert!(run("obs_counter!(name).inc();\n").findings.is_empty());
        assert!(run("let obs_counter = 3;\n").findings.is_empty());
        // O1 applies in bench and tests dirs too (shared namespace).
        let class = FileClass::from_rel_path("crates/bench/tests/t.rs");
        let out = analyze("b.rs", &class, "obs_counter!(\"Bad.Name\").inc();\n");
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::O1);
    }

    #[test]
    fn same_line_suppression_targets_its_own_line() {
        let out = run("let x = maybe().unwrap(); // lint:allow(P1): guarded above\n");
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressed.len(), 1);
    }
}
