#!/bin/bash
# Regenerate everything under artifacts/results/ that the pipeline artifacts
# (artifacts/pool.bin, sage.model, sage_d1..7.model) determine: the 18 figure
# outputs and MANIFEST.json (`figures --list` prints the table; one figure is
# `cargo run --release -p sage-bench --bin figures -- <id>`), then the
# ADV_hardest report, and last `eval_matrix`: EVAL_matrix, OBS_slo and
# FAIRNESS_trace, failing on an SLO breach. Exits non-zero if any stage did.
set -u
cd "$(dirname "$0")"
run() { cargo run --release -q -p sage-bench --bin "$1"; }
FAILED=0
run figures || FAILED=1
ADV=$(run adv_search) || FAILED=1
run eval_matrix > /dev/null || FAILED=1
# The scenarios where the learned policy trails the heuristics most
# (ADV_hardest.json).
echo "=== hardest adversarial scenarios (top 3) ==="
grep '^HARD\[' <<< "$ADV" | sed 's/^/  /'
[ "$FAILED" -eq 0 ] || { echo "ALL EXPERIMENTS DONE — a stage FAILED"; exit 1; }
echo "ALL EXPERIMENTS DONE"
