#!/bin/bash
# Regenerate everything under artifacts/results/ that the committed model
# (artifacts/sage.model) and the in-process pool determine: every row of
# the figure table (`figures --list` prints it; one row is
# `cargo run --release -p sage-bench --bin figures -- <id>`) writes its file
# and its MANIFEST.json entry. The 18 figure outputs, the evaluation matrix
# reports (EVAL_matrix, OBS_slo, FAIRNESS_trace, set3) and ADV_hardest are all
# rows. Exits non-zero if any row failed, an SLO breach among them.
set -u
cd "$(dirname "$0")"
if cargo run --release -q -p sage-bench --bin figures; then
  echo "ALL EXPERIMENTS DONE"
else
  echo "ALL EXPERIMENTS DONE — a row FAILED"
  exit 1
fi
