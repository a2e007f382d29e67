#!/bin/bash
# The A/B protocol of a perf PR: the benchmark of <parent-ref> against the
# benchmark of this working tree, in alternating pairs (choosing-metrics §8).
#   scripts/ab_bench.sh <parent-ref> [pairs=10] [seed=2023] [workload/metric]
# Prints, per workload x end-to-end metric, both medians with quartiles, the
# pairs the change won, whether the medians are further apart than the
# parent's inter-quartile distance, every run's value, and whether
# `digest_parts` agree; then, from two traced pairs (`--trace 1`) per
# workload run in ABBA order (parent, change, change, parent), every
# per-layer metric that both pairs put outside 0.9-1.1 on the same side —
# where the difference sits (choosing-metrics §6.6). One traced run per side
# cannot resolve a probe: noise inside one probe's short timing window moves
# it past 0.9-1.1 on code a change leaves alone. The row shows each side's
# better run of the two and both pairs' ratios. Under
# the run table it names the contended pairs of each workload: both sides'
# `wall_s` more than 15 % above that side's median, i.e. the host was busy
# for the whole pair, which pulls both sides down alike. With
# the claimed <workload>/<metric> as fourth argument it ends with a verdict
# and exits 1 unless both lines are clean:
#   CLAIM       pairs won and medians-beyond-the-parent's-IQR -> met / not met
#               (choosing-metrics §8: at least nine tenths of the pairs, ties
#               for neither side, and the IQR distance), plus the median
#               gain next to the metric's `bound` and the margin between
#               them, and the pairs won over the uncontended pairs alone
#               (reported, not part of the verdict);
#   REGRESSIONS every other workload x end-to-end metric whose change median
#               is worse than the parent's by more than its `bound` in
#               BENCHMARK.json (read, like benchmark/, never edited).
# The parent is a `git archive` export under ${TMPDIR:-/tmp}, removed on a
# zero exit; on any other the directory, every run's rows included, is kept
# and its path printed.
# ~4 min per pair (2 workloads x 2 sides x 50 s), and twice that for the
# two traced pairs. Not a check.sh stage.
set -eu
cd "$(dirname "$0")/.."
REF=${1:?usage: scripts/ab_bench.sh <parent-ref> [pairs=10] [seed=2023] [workload/metric]}
PAIRS=${2:-10}
SEED=${3:-2023}
CLAIM=${4:-}
# "metric better bound" of every end-to-end metric the benchmark declares.
BOUNDS=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && /"(name|better|bound)"/ { gsub(/[",]/, ""); v[$1] = $2
    if ($1 == "bound:") print v["name:"], v["better:"], $2 }' BENCHMARK.json)
# "metric better" of every per-layer metric.
PER_LAYER=$(awk '/"per_layer"/ { on = 1 } on && /"(name|better)"/ { gsub(/[",]/, ""); v[$1] = $2
    if ($1 == "better:") print v["name:"], $2 }' BENCHMARK.json)
if [ -n "$CLAIM" ]; then
  case "${CLAIM%%/*}" in pipeline | layers) ;; *) CLAIM_OK=0 ;; esac
  echo "$BOUNDS" | grep -q "^${CLAIM#*/} " || CLAIM_OK=0
  if [ "${CLAIM_OK:-1}" = 0 ]; then
    echo "ab_bench: '$CLAIM' is not <pipeline|layers>/<an end_to_end metric of BENCHMARK.json>" >&2
    exit 2
  fi
fi
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ab_bench.XXXXXX")
trap 'st=$?; if [ $st = 0 ]; then rm -rf "$WORK"; else echo "ab_bench: exit $st, runs kept in $WORK" >&2; fi' EXIT
mkdir "$WORK/parent"
git archive "$REF" | tar -x -C "$WORK/parent"
for side in "$WORK/parent" .; do
  cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml" --bin perf_ledger
done

# run <side> <dir> <workload> <pair>: appends "pair side workload metric value"
# rows and one "digest side workload <digest_parts>" row.
run() {
  (cd "$2" && ./benchmark/target/release/perf_ledger \
      --workload "$3" --seed "$SEED" --seconds 50 --trace 0) > "$WORK/out"
  awk -v s="$1" -v w="$3" -v p="$4" '$1 == w && NF == 4 { print p, s, w, $2, $3 }' "$WORK/out" >> "$WORK/rows"
  echo "digest $1 $3 $(grep '^#detail' "$WORK/out" | grep -o '"digest_parts":{[^}]*}' | sort | tr -d '\n')" >> "$WORK/rows"
}
for pair in $(seq 1 "$PAIRS"); do
  for w in pipeline layers; do
    if [ $((pair % 2)) = 1 ]; then
      run parent "$WORK/parent" "$w" "$pair"; run change . "$w" "$pair"
    else
      run change . "$w" "$pair"; run parent "$WORK/parent" "$w" "$pair"
    fi
  done
  echo "pair $pair/$PAIRS done" >&2
done
# trace <round> <side> <workload>: "trace round side workload metric value"
# rows of the per-layer metrics (the names with a dot) and of wall_s. A
# traced run prints no wall_s; it is the sum of the parts' best passes, the
# `best_s` fields of the #detail line, as in an untraced run.
trace() {
  [ "$2" = parent ] && dir="$WORK/parent" || dir=.
  (cd "$dir" && ./benchmark/target/release/perf_ledger \
      --workload "$3" --seed "$SEED" --seconds 50 --trace 1) > "$WORK/out"
  awk -v r="$1" -v s="$2" -v w="$3" '$1 == w && NF == 4 && $2 ~ /\./ { print "trace", r, s, w, $2, $3 }' "$WORK/out" >> "$WORK/rows"
  grep '^#detail' "$WORK/out" | grep -o '"best_s":[^,}]*' \
    | awk -F: -v r="$1" -v s="$2" -v w="$3" '{ t += $2 } END { print "trace", r, s, w, "wall_s", t }' >> "$WORK/rows"
}
for w in pipeline layers; do
  trace 1 parent "$w"; trace 1 change "$w"; trace 2 change "$w"; trace 2 parent "$w"
done

echo "$BOUNDS" | sed 's/^/bound /' >> "$WORK/rows"
echo "$PER_LAYER" | sed 's/^/layer /' >> "$WORK/rows"
awk -v pairs="$PAIRS" -v claim="$CLAIM" '
function quantile(side, key, q,    i, j, t, v, r, lo) {
  for (i = 1; i <= pairs; i++) v[i] = val[i, side, key]
  for (i = 2; i <= pairs; i++) for (j = i; j > 1 && v[j] < v[j - 1]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
  r = q * (pairs - 1) + 1; lo = int(r)
  return lo >= pairs ? v[pairs] : v[lo] + (r - lo) * (v[lo + 1] - v[lo])
}
function summary(side, key) {
  return sprintf("%12.4f [%10.4f,%10.4f]", quantile(side, key, 0.5), quantile(side, key, 0.25), quantile(side, key, 0.75))
}
$1 == "bound" { better[$2] = $3; bound[$2] = $4 + 0; next }
$1 == "layer" { lbetter[$2] = $3; next }
$1 == "digest" { if (!(($2, $3) in dig)) dig[$2, $3] = $4; else if (dig[$2, $3] != $4) dig[$2, $3] = "unstable"; next }
$1 == "trace" {
  if ($5 == "wall_s") { twall[$2, $3, $4] = $6 + 0; next }
  key = $4 " " $5; tr[$2, $3, key] = $6 + 0; if (!(key in tseen)) { tseen[key] = 1; torder[++nt] = key }; next
}
{ key = $3 " " $4; val[$1 + 0, $2, key] = $5 + 0; if (!(key in seen)) { seen[key] = 1; order[++nk] = key } }
END {
  # Contended pairs: on both sides, wall_s above 1.15 x the median of that side.
  nw = split("pipeline layers", ws, " ")
  for (j = 1; j <= nw; j++) {
    wk = ws[j] " wall_s"; busy[ws[j]] = ""
    if (!(wk in seen)) continue
    pw = 1.15 * quantile("parent", wk, 0.5); cw = 1.15 * quantile("change", wk, 0.5)
    for (i = 1; i <= pairs; i++)
      if (val[i, "parent", wk] > pw && val[i, "change", wk] > cw) { contended[i, ws[j]] = 1; busy[ws[j]] = busy[ws[j]] " " i }
  }
  printf "%-9s %-20s %36s %36s %7s %5s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "won", "beyond parent IQR"
  for (k = 1; k <= nk; k++) {
    key = order[k]; split(key, wm, " ")
    lower = (better[wm[2]] == "lower")
    won = 0; wonu = 0; nu = 0
    for (i = 1; i <= pairs; i++) {
      w = (lower ? val[i, "change", key] < val[i, "parent", key] : val[i, "change", key] > val[i, "parent", key])
      won += w
      if (!((i, wm[1]) in contended)) { nu++; wonu += w }
    }
    pm = quantile("parent", key, 0.5); cm = quantile("change", key, 0.5)
    d = cm > pm ? cm - pm : pm - cm
    beyond = (d > quantile("parent", key, 0.75) - quantile("parent", key, 0.25) ? "yes" : "no")
    printf "%-9s %-20s %s %s %7.3f %2d/%-2d  %s\n", wm[1], wm[2], summary("parent", key), summary("change", key), (pm ? cm / pm : 0), won, pairs, beyond
    if (wm[1] "/" wm[2] == claim) {
      met = (won * 10 >= pairs * 9 && beyond == "yes" && (lower ? cm < pm : cm > pm))
      gain = pm ? (lower ? 1 - cm / pm : cm / pm - 1) : 0
      verdict = sprintf("CLAIM %s: won %d/%d (won %d/%d over uncontended pairs), medians %.4f -> %.4f (%.3fx) beyond the parent IQR %s; gain %.1f%% vs bound %g%%, margin %+.1f pts -> %s", claim, won, pairs, wonu, nu, pm, cm, (pm ? cm / pm : 0), beyond, 100 * gain, 100 * bound[wm[2]], 100 * (gain - bound[wm[2]]), (met ? "met" : "not met"))
    } else if (lower ? cm > pm * (1 + bound[wm[2]]) : cm < pm * (1 - bound[wm[2]]))
      regressions = regressions sprintf(" %s/%s %.4f -> %.4f (bound %g)", wm[1], wm[2], pm, cm, bound[wm[2]])
  }
  print "every run, pair order (parent | change):"
  for (k = 1; k <= nk; k++) {
    line = sprintf("%-30s", order[k])
    for (i = 1; i <= pairs; i++) line = line sprintf(" %.4g", val[i, "parent", order[k]])
    line = line " |"
    for (i = 1; i <= pairs; i++) line = line sprintf(" %.4g", val[i, "change", order[k]])
    print line
  }
  print "contended pairs (on both sides, wall_s > 1.15 x the median of that side):"
  for (i = 1; i <= nw; i++) printf "%-9s %s\n", ws[i], (busy[ws[i]] == "" ? "none" : substr(busy[ws[i]], 2))
  for (i = 1; i <= nw; i++)
    printf "%-9s digest_parts %s\n", ws[i], (dig["parent", ws[i]] == dig["change", ws[i]] && dig["parent", ws[i]] != "unstable" ? "match" : "DIFFER: parent " dig["parent", ws[i]] " change " dig["change", ws[i]])
  print "traced runs, wall_s against the untraced median of that side:"
  for (i = 1; i <= nw; i++) for (s = 1; s <= 2; s++) {
    side = (s == 1 ? "parent" : "change"); m = quantile(side, ws[i] " wall_s", 0.5); line = ""
    for (r = 1; r <= 2; r++) if ((r, side, ws[i]) in twall)
      line = line sprintf("  round %d %.4g (%.3f x)", r, twall[r, side, ws[i]], (m ? twall[r, side, ws[i]] / m : 0))
    printf "%-9s %-6s untraced median %.4g%s\n", ws[i], side, m, line
  }
  # Where each pair puts the ratio: -1 below 0.9, 1 above 1.1, 0 inside (or equal).
  print "traced pairs, per-layer metrics both pairs put outside 0.9-1.1 on the same side (the better run of each side, then the ratio of each pair):"
  for (k = 1; k <= nt; k++) {
    key = torder[k]; split(key, wm, " ")
    for (r = 1; r <= 2; r++) {
      p = tr[r, "parent", key]; c = tr[r, "change", key]
      dir[r] = (p == c ? 0 : p == 0 ? (c > 0 ? 1 : -1) : c / p < 0.9 ? -1 : c / p > 1.1 ? 1 : 0)
      ratio[r] = (p ? sprintf("%.3f", c / p) : "from 0")
    }
    if (dir[1] == 0 || dir[1] != dir[2]) continue
    lower = (lbetter[wm[2]] == "lower")
    p = tr[1, "parent", key]; q = tr[2, "parent", key]; p = (lower ? (q < p ? q : p) : (q > p ? q : p))
    c = tr[1, "change", key]; q = tr[2, "change", key]; c = (lower ? (q < c ? q : c) : (q > c ? q : c))
    printf "%-9s %-34s %14.4f -> %14.4f  %s  (pairs %s, %s)\n", wm[1], wm[2], p, c, (p ? sprintf("%.3f", c / p) : "from 0"), ratio[1], ratio[2]
  }
  if (claim != "") {
    print verdict
    print "REGRESSIONS" (regressions == "" ? " none" : regressions)
    exit !(met && regressions == "")
  }
}' "$WORK/rows"
