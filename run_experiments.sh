#!/bin/bash
# Reproduce every committed result from the code, and move every pin with it.
# This is the one command that regenerates after an intentional change:
#   1. train_sage at its defaults collects the pool in process, trains, and
#      OVERWRITES artifacts/sage.model (its log goes to artifacts/train.log);
#   2. every row of the figure table (`figures --list` prints it; one row is
#      `cargo run --release -p sage-bench --bin figures -- <id>`) writes its
#      file under artifacts/results/ and its MANIFEST.json entry: the 18
#      figure outputs, the evaluation matrix reports (EVAL_matrix, OBS_slo,
#      FAIRNESS_trace, set3) and ADV_hardest;
#   3. the whole suite runs with SAGE_REGEN_GOLDEN=1, so sage_util::golden
#      rewrites every golden that differs (artifacts/pool.bin and
#      crates/*/tests/golden/); --no-fail-fast keeps a red behavioural test
#      from stopping the pins after it;
#   4. the whole suite runs again and compares: what is red now is behaviour,
#      not a pin;
#   5. it prints what moved: `git diff --stat` over artifacts/ and the golden
#      files, then the changed lines of league.txt and fig09.txt.
# Exits non-zero if training failed (at once), or if any row (an SLO breach
# among them) or the comparing suite failed.
set -u
cd "$(dirname "$0")"
if ! cargo run --release -q -p sage-bench --bin train_sage 2>artifacts/train.log; then
  echo "train_sage FAILED (see artifacts/train.log)"
  exit 1
fi
STATUS=0
cargo run --release -q -p sage-bench --bin figures || STATUS=1
SAGE_REGEN_GOLDEN=1 cargo test -q --release --no-fail-fast
cargo test -q --release || STATUS=1
echo "== what moved =="
git diff --stat -- artifacts/ 'crates/*/tests/golden/*'
git diff -U0 -- artifacts/results/league.txt artifacts/results/fig09.txt
if [ "$STATUS" = 0 ]; then
  echo "ALL EXPERIMENTS DONE"
else
  echo "ALL EXPERIMENTS DONE — a step FAILED"
fi
exit "$STATUS"
