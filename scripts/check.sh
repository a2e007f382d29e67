#!/bin/bash
# Offline CI gate: formatting, lints, and the tier-1 build/test cycle.
# Everything here runs without network access.
set -eu
cd "$(dirname "$0")/.."

# Throwaway smoke outputs are removed on ANY exit — success or failure — so
# an aborted run never leaves half-written artifacts behind to confuse the
# next one (committed reports are never listed here).
cleanup() {
  rm -f artifacts/results/ADV_smoke_t1.json artifacts/results/ADV_smoke_t4.json \
        artifacts/results/EVAL_matrix_smoke_t1.json \
        artifacts/results/EVAL_matrix_smoke_t4.json \
        artifacts/results/DISTILL_smoke_t1.json \
        artifacts/results/DISTILL_smoke_t4.json \
        artifacts/results/OBS_slo_smoke_t1.json \
        artifacts/results/OBS_slo_smoke_t4.json \
        artifacts/results/FAIRNESS_smoke_t1.md \
        artifacts/results/FAIRNESS_smoke_t4.md \
        artifacts/sage_smoke_t1.tree artifacts/sage_smoke_t4.tree
}
trap cleanup EXIT

# Every `--bin <name>` a document or script tells the reader to run must
# still have a source file (or a [[bin]] entry in the benchmark package).
echo "== docs: every --bin named in the docs exists =="
for b in $(grep -oh -- '--bin [A-Za-z0-9_-]*' README.md EXPERIMENTS.md DESIGN.md \
             run_experiments.sh .claude/skills/verify/SKILL.md | cut -d' ' -f2 | sort -u); do
  [ -f "crates/bench/src/bin/$b.rs" ] || grep -q "^name = \"$b\"$" benchmark/Cargo.toml \
    || { echo "FAIL: --bin $b is documented but has no source file"; exit 1; }
done

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Workspace determinism & safety lint: token rules (seeded-hash iteration,
# ambient wall clocks/threads/entropy/environment reads, undocumented unsafe,
# unjustified panics, metric names) — see DESIGN.md "Static analysis". Exits
# non-zero on any unsuppressed finding. That the detector still fires is
# checked in-process by `crates/lint/tests/self_lint.rs` (a seeded violation
# injected into the real source set), inside both suite passes below.
echo "== sage-lint (determinism & safety rules) =="
cargo run --release -q -p sage-lint

echo "== tier-1: cargo build --release =="
cargo build --release

# The whole workspace's suite (root `default-members`) runs twice: debug at
# one worker, release at four. Every golden — fixed-seed train, 64-flow serve
# digest with metrics/recorder on and off, matrix rankings, Set IV — is
# therefore checked against the same file at both thread counts and both opt
# levels, and the release-only learning tests run in the gate. Regenerate a
# golden after an intentional change with SAGE_REGEN_GOLDEN=1.
echo "== tier-1: cargo test -q (debug, SAGE_THREADS=1) =="
SAGE_THREADS=1 cargo test -q

echo "== tier-1: cargo test -q --release (SAGE_THREADS=4) =="
SAGE_THREADS=4 cargo test -q --release

# The benchmark is a package of its own that no stage above builds, and a PR
# that claims a gain may not edit it: a `sage-core`/`sage-nn` signature change
# that breaks it would otherwise surface only in the driver. Its tests run
# every workload at smoke scale against this tree's crates (14 tests, ~40 s).
echo "== benchmark: cargo test --release (perf_ledger against this tree) =="
cargo test -q --offline --release --manifest-path benchmark/Cargo.toml

# Adversarial-search smoke: an 8-candidate search must produce byte-identical
# ranked reports at two thread counts (proposal is serial, evaluation is an
# ordered fan-out). The full committed report is artifacts/results/
# ADV_hardest.json; the smoke writes throwaway files and compares them.
echo "== adversarial search smoke: 8 candidates, digest at SAGE_THREADS=1 vs 4 =="
SAGE_ADV_BUDGET=8 SAGE_SECS=2 SAGE_ADV_OUT=ADV_smoke_t1.json SAGE_THREADS=1 \
  ./target/release/adv_search > /dev/null
SAGE_ADV_BUDGET=8 SAGE_SECS=2 SAGE_ADV_OUT=ADV_smoke_t4.json SAGE_THREADS=4 \
  ./target/release/adv_search > /dev/null
cmp artifacts/results/ADV_smoke_t1.json artifacts/results/ADV_smoke_t4.json \
  || { echo "FAIL: adversarial report differs across thread counts"; exit 1; }

# Evaluation-matrix smoke: a small scheme x scenario x seed sub-matrix must
# serialise byte-identically at two thread counts (cells are independent
# deterministic tasks, ordered reduction). The full committed report is
# artifacts/results/EVAL_matrix.json; the smoke writes throwaway files.
echo "== evaluation matrix smoke: sub-matrix digest at SAGE_THREADS=1 vs 4 =="
SAGE_MATRIX_SET1=2 SAGE_MATRIX_SET2=1 SAGE_MATRIX_SECS=3 SAGE_MATRIX_INET=1 \
  SAGE_MATRIX_FAULTS=clean,blackout SAGE_MATRIX_FAIR_FLOWS=3 \
  SAGE_MATRIX_FAIR_SECS=9 SAGE_MATRIX_FAIR64_FLOWS=8 SAGE_MATRIX_FAIR64_SECS=4 \
  SAGE_MATRIX_OUT=EVAL_matrix_smoke_t1.json \
  SAGE_THREADS=1 ./target/release/eval_matrix > /dev/null
SAGE_MATRIX_SET1=2 SAGE_MATRIX_SET2=1 SAGE_MATRIX_SECS=3 SAGE_MATRIX_INET=1 \
  SAGE_MATRIX_FAULTS=clean,blackout SAGE_MATRIX_FAIR_FLOWS=3 \
  SAGE_MATRIX_FAIR_SECS=9 SAGE_MATRIX_FAIR64_FLOWS=8 SAGE_MATRIX_FAIR64_SECS=4 \
  SAGE_MATRIX_OUT=EVAL_matrix_smoke_t4.json \
  SAGE_THREADS=4 ./target/release/eval_matrix > /dev/null
cmp artifacts/results/EVAL_matrix_smoke_t1.json \
    artifacts/results/EVAL_matrix_smoke_t4.json \
  || { echo "FAIL: evaluation matrix differs across thread counts"; exit 1; }

# SLO gate smoke: the declarative obs_report objectives (completion /
# survival / per-family drop ceilings / ramp-up series / serve latency &
# fallback) must hold on the smoke matrix, and the reports built from the
# t1 and t4 matrices must be byte-identical. The full-scale gate target is
# the committed EVAL_matrix.json (obs_report's default input).
echo "== SLO gate smoke: obs_report on the t1 vs t4 sub-matrix =="
SAGE_SLO_MATRIX=artifacts/results/EVAL_matrix_smoke_t1.json \
  SAGE_SLO_OUT=OBS_slo_smoke_t1.json SAGE_FAIRNESS_NOTE=FAIRNESS_smoke_t1.md \
  ./target/release/obs_report > /dev/null
SAGE_SLO_MATRIX=artifacts/results/EVAL_matrix_smoke_t4.json \
  SAGE_SLO_OUT=OBS_slo_smoke_t4.json SAGE_FAIRNESS_NOTE=FAIRNESS_smoke_t4.md \
  ./target/release/obs_report > /dev/null
cmp artifacts/results/OBS_slo_smoke_t1.json artifacts/results/OBS_slo_smoke_t4.json \
  || { echo "FAIL: SLO report differs across thread counts"; exit 1; }
cmp artifacts/results/FAIRNESS_smoke_t1.md artifacts/results/FAIRNESS_smoke_t4.md \
  || { echo "FAIL: fairness trace note differs across thread counts"; exit 1; }

# Full-scale SLO gate over the committed artifacts (EVAL_matrix.json +
# BENCH_serve.json): any breach fails the build.
echo "== SLO gate: committed EVAL_matrix.json + BENCH_serve.json =="
./target/release/obs_report

# Distillation smoke: harvest two Set I scenarios (plus the clean fault
# baseline) from the committed policy, fit a tiny tree, and enforce (a) the
# report and tree artifact are byte-identical at two thread counts and (b)
# the held-out clean-link agreement clears a fixed lower bound (the bin
# exits non-zero below SAGE_DISTILL_MIN_AGREE). The full-scale committed
# artifacts are artifacts/sage.tree + artifacts/results/DISTILL_report.json.
echo "== distill smoke: tiny tree, fidelity + digest at SAGE_THREADS=1 vs 4 =="
SAGE_DISTILL_SET1=2 SAGE_DISTILL_SET2=0 SAGE_DISTILL_INET=0 SAGE_DISTILL_SECS=3 \
  SAGE_DISTILL_DEPTH=6 SAGE_DISTILL_LEAGUE_SET1=0 SAGE_DISTILL_MIN_AGREE=80 \
  SAGE_DISTILL_TREE_OUT=artifacts/sage_smoke_t1.tree \
  SAGE_DISTILL_OUT=DISTILL_smoke_t1.json SAGE_THREADS=1 \
  ./target/release/distill_report > /dev/null
SAGE_DISTILL_SET1=2 SAGE_DISTILL_SET2=0 SAGE_DISTILL_INET=0 SAGE_DISTILL_SECS=3 \
  SAGE_DISTILL_DEPTH=6 SAGE_DISTILL_LEAGUE_SET1=0 SAGE_DISTILL_MIN_AGREE=80 \
  SAGE_DISTILL_TREE_OUT=artifacts/sage_smoke_t4.tree \
  SAGE_DISTILL_OUT=DISTILL_smoke_t4.json SAGE_THREADS=4 \
  ./target/release/distill_report > /dev/null
cmp artifacts/results/DISTILL_smoke_t1.json artifacts/results/DISTILL_smoke_t4.json \
  || { echo "FAIL: distill report differs across thread counts"; exit 1; }
cmp artifacts/sage_smoke_t1.tree artifacts/sage_smoke_t4.tree \
  || { echo "FAIL: distilled tree differs across thread counts"; exit 1; }

# Opt-in ThreadSanitizer lane over the parallel runtime (SAGE_TSAN=1).
# TSan needs a nightly toolchain with the rust-src component (the sanitizer
# runtime requires -Zbuild-std); the lane skips cleanly when either is
# missing so the default offline gate stays stable-toolchain-only. The
# compiler proves the pool's closures share no mutable state; TSan hunts
# the data races inside the pool itself.
if [ "${SAGE_TSAN:-0}" = "1" ]; then
  echo "== TSan lane: par pool + serve tier tests under -Zsanitizer=thread =="
  if command -v rustup > /dev/null 2>&1 \
     && rustup toolchain list 2>/dev/null | grep -q '^nightly' \
     && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src (installed)'; then
    TSAN_HOST=$(rustc -vV | sed -n 's/^host: //p')
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -q -p sage-util par \
        -Zbuild-std --target "$TSAN_HOST"
    RUSTFLAGS="-Zsanitizer=thread" SAGE_THREADS=4 \
      cargo +nightly test -q -p sage-serve tier \
        -Zbuild-std --target "$TSAN_HOST"
  else
    echo "skipping: no nightly toolchain with rust-src installed"
  fi
fi

echo "ALL CHECKS PASSED"
