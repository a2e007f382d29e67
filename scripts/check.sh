#!/bin/bash
# Offline CI gate: formatting, lints, and the tier-1 build/test cycle.
# Everything here runs without network access.
set -eu
cd "$(dirname "$0")/.."

# Every `--bin <name>` a document or script tells the reader to run must
# still have a source file (or a [[bin]] entry in the benchmark package).
echo "== docs: every --bin named in the docs exists =="
for b in $(grep -oh -- '--bin [A-Za-z0-9_-]*' README.md EXPERIMENTS.md DESIGN.md \
             run_experiments.sh .claude/skills/verify/SKILL.md | cut -d' ' -f2 | sort -u); do
  [ -f "crates/bench/src/bin/$b.rs" ] || grep -q "^name = \"$b\"$" benchmark/Cargo.toml \
    || { echo "FAIL: --bin $b is documented but has no source file"; exit 1; }
done

# Every SAGE_* name the bench bins read, plus the env_cfg.rs constants (the
# library crates' and tests' ambient surface), plus the one name only this
# script reads, is a row of README's knob table — and nothing else is.
echo "== docs: README's knob table is the set of SAGE_* names the code reads =="
knobs_in_code() {
  grep -rhoE 'SAGE_[A-Z0-9_]+' crates/bench/src
  grep -E '^pub const' crates/util/src/env_cfg.rs | grep -oE 'SAGE_[A-Z0-9_]+'
  echo SAGE_TSAN
}
STRAY=$(comm -3 <(knobs_in_code | sort -u) \
               <(grep -oE '^\| `SAGE_[A-Z0-9_]+`' README.md | grep -oE 'SAGE_[A-Z0-9_]+' | sort -u) \
          | tr -d '\t' | tr '\n' ' ')
[ -z "$STRAY" ] || { echo "FAIL: knobs in the code or README's table but not both: $STRAY"; exit 1; }

echo "== cargo fmt --check =="
cargo fmt --all --check

# The determinism contract (DESIGN.md "Static analysis"): clippy.toml's banned
# types and methods, SAFETY-documented unsafe, reasoned suppressions, no
# unjustified panic in library code. An `#[expect]` that stops firing fails
# here too — including the negative control at the end of
# crates/util/tests/props.rs, which goes unfulfilled if clippy.toml rots.
# D3 (no ambient entropy) needs no lint: `rand`, `getrandom` and their kin can
# only be named if an external package exists, and a lock file records every
# external package with a `source = ` line. Neither workspace has one.
echo "== determinism contract: cargo clippy (workspace, all targets, deny warnings), std-only lock files =="
# A clippy.toml path that names nothing is a warning `-D warnings` does not
# reach (it comes from the config loader, not a lint), so it is matched here.
CLIPPY_OUT=$(cargo clippy --workspace --all-targets -- -D warnings 2>&1) \
  || { echo "$CLIPPY_OUT"; exit 1; }
if echo "$CLIPPY_OUT" | grep -A3 'does not refer to'; then
  echo "FAIL: clippy.toml bans a path that does not exist"; exit 1
fi
if grep -n '^source = ' Cargo.lock benchmark/Cargo.lock; then
  echo "FAIL: an external package is locked; the workspace is std-only (D3)"; exit 1
fi

echo "== tier-1: cargo build --release =="
cargo build --release

# The whole workspace's suite (root `default-members`) runs twice: debug at
# one worker, release at four. Every golden — fixed-seed train, 64-flow serve
# digest with metrics/recorder on and off, matrix rankings, Set IV — is
# therefore checked against the same file at both thread counts and both opt
# levels, and the release-only learning tests run in the gate. Regenerate a
# golden after an intentional change by setting SAGE_REGEN_GOLDEN to 1.
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

# SLO gate over the committed EVAL_matrix.json: any breach fails the build.
# It rewrites OBS_slo.json and FAIRNESS_trace.md with the bytes that are
# committed.
echo "== SLO gate: committed EVAL_matrix.json =="
./target/release/obs_report

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
