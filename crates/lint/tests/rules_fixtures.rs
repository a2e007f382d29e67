//! Fixture corpus: one positive (rule fires) and one negative (clean or
//! properly suppressed) case per rule, consumed as text. The fixtures
//! live under `tests/fixtures/`, which the workspace walk skips, so the
//! intentional violations never pollute the self-lint.

use sage_lint::{analyze, FileClass, FileOutcome, Rule};

/// Analyse a fixture as if it were library code in a digest-covered crate.
fn lint_as_lib(src: &str) -> FileOutcome {
    let class = FileClass::from_rel_path("crates/netsim/src/fixture.rs");
    analyze("crates/netsim/src/fixture.rs", &class, src)
}

fn count(out: &FileOutcome, rule: Rule) -> usize {
    out.findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn d1_positive_flags_every_hash_map_mention() {
    let out = lint_as_lib(include_str!("fixtures/d1_pos.rs"));
    assert_eq!(count(&out, Rule::D1), 3, "{:?}", out.findings);
    assert_eq!(out.findings.len(), 3);
}

#[test]
fn d1_negative_btree_map_is_clean() {
    let out = lint_as_lib(include_str!("fixtures/d1_neg.rs"));
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn d2_positive_flags_clock_thread_and_channel() {
    let out = lint_as_lib(include_str!("fixtures/d2_pos.rs"));
    // Instant ×2, mpsc ×2, thread::spawn ×1.
    assert_eq!(count(&out, Rule::D2), 5, "{:?}", out.findings);
    assert_eq!(out.findings.len(), 5);
}

#[test]
fn d2_negative_sim_time_and_pool_are_clean() {
    let out = lint_as_lib(include_str!("fixtures/d2_neg.rs"));
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn d2_positive_is_exempt_in_bench() {
    let class = FileClass::from_rel_path("crates/bench/src/fixture.rs");
    let out = analyze(
        "crates/bench/src/fixture.rs",
        &class,
        include_str!("fixtures/d2_pos.rs"),
    );
    assert_eq!(count(&out, Rule::D2), 0, "{:?}", out.findings);
}

#[test]
fn d3_positive_flags_rand_path_and_thread_rng() {
    let out = lint_as_lib(include_str!("fixtures/d3_pos.rs"));
    assert_eq!(count(&out, Rule::D3), 2, "{:?}", out.findings);
    assert_eq!(out.findings.len(), 2);
}

#[test]
fn d3_negative_seeded_rng_is_clean() {
    let out = lint_as_lib(include_str!("fixtures/d3_neg.rs"));
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn d3_applies_even_in_bench() {
    let class = FileClass::from_rel_path("crates/bench/src/fixture.rs");
    let out = analyze(
        "crates/bench/src/fixture.rs",
        &class,
        include_str!("fixtures/d3_pos.rs"),
    );
    assert_eq!(count(&out, Rule::D3), 2, "{:?}", out.findings);
}

#[test]
fn u1_positive_flags_bare_unsafe() {
    let out = lint_as_lib(include_str!("fixtures/u1_pos.rs"));
    assert_eq!(count(&out, Rule::U1), 1, "{:?}", out.findings);
    assert_eq!(out.findings.len(), 1);
}

#[test]
fn u1_negative_accepts_both_safety_placements() {
    let out = lint_as_lib(include_str!("fixtures/u1_neg.rs"));
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn p1_positive_flags_unwrap_expect_panic_outside_tests() {
    let out = lint_as_lib(include_str!("fixtures/p1_pos.rs"));
    assert_eq!(count(&out, Rule::P1), 3, "{:?}", out.findings);
    assert_eq!(out.findings.len(), 3);
}

#[test]
fn p1_negative_result_and_justified_allow_are_clean() {
    let out = lint_as_lib(include_str!("fixtures/p1_neg.rs"));
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].rule, Rule::P1);
    assert!(!out.suppressed[0].reason.is_empty());
}

#[test]
fn p1_positive_is_exempt_in_tests_dir() {
    let class = FileClass::from_rel_path("crates/netsim/tests/fixture.rs");
    let out = analyze(
        "crates/netsim/tests/fixture.rs",
        &class,
        include_str!("fixtures/p1_pos.rs"),
    );
    assert_eq!(count(&out, Rule::P1), 0, "{:?}", out.findings);
}

#[test]
fn a0_positive_flags_missing_reason_unknown_rule_and_unused_allow() {
    let out = lint_as_lib(include_str!("fixtures/a0_pos.rs"));
    assert_eq!(count(&out, Rule::A0), 3, "{:?}", out.findings);
    // The two malformed allows suppress nothing, so their unwraps fire.
    assert_eq!(count(&out, Rule::P1), 2, "{:?}", out.findings);
    assert!(out.suppressed.is_empty());
}

#[test]
fn d6_positive_flags_ambient_env_read_at_the_call_line() {
    let out = lint_as_lib(include_str!("fixtures/d6_pos.rs"));
    assert_eq!(count(&out, Rule::D6), 1, "{:?}", out.findings);
    assert_eq!(out.findings.len(), 1);
    assert_eq!(out.findings[0].line, 5, "the `std::env::var` line");
}

#[test]
fn d6_negative_explicit_config_argument_is_clean() {
    let out = lint_as_lib(include_str!("fixtures/d6_neg.rs"));
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn d6_positive_is_sanctioned_inside_the_env_cfg_layer() {
    let class = FileClass::from_rel_path("crates/util/src/env_cfg.rs");
    let out = analyze(
        "crates/util/src/env_cfg.rs",
        &class,
        include_str!("fixtures/d6_pos.rs"),
    );
    assert_eq!(count(&out, Rule::D6), 0, "{:?}", out.findings);
}
