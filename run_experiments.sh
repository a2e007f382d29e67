#!/bin/bash
# Reproduce every committed result from the code: train_sage at its defaults
# collects the pool in process, trains, and OVERWRITES artifacts/sage.model
# (its log goes to artifacts/train.log); then every row of the figure table
# (`figures --list` prints it; one row is
# `cargo run --release -p sage-bench --bin figures -- <id>`) writes its file
# under artifacts/results/ and its MANIFEST.json entry. The 18 figure
# outputs, the evaluation matrix reports (EVAL_matrix, OBS_slo,
# FAIRNESS_trace, set3) and ADV_hardest are all rows. Exits non-zero if
# training or any row failed, an SLO breach among them.
set -u
cd "$(dirname "$0")"
if ! cargo run --release -q -p sage-bench --bin train_sage 2>artifacts/train.log; then
  echo "train_sage FAILED (see artifacts/train.log)"
  exit 1
fi
if cargo run --release -q -p sage-bench --bin figures; then
  echo "ALL EXPERIMENTS DONE"
else
  echo "ALL EXPERIMENTS DONE — a row FAILED"
  exit 1
fi
