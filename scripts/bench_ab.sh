#!/usr/bin/env bash
# A/B the serving benchmark: a git revision against the working tree.
#
# Usage: scripts/bench_ab.sh REV WORKLOAD PAIRS SECONDS
#
# Exports REV (`git archive`) and a snapshot of the working tree (tracked
# and untracked, not ignored, files) into two directories under
# $BENCH_AB_DIR (default ${TMPDIR:-/tmp}/bench_ab), builds each into its
# own target directory, then runs `perfbench/run.py --workload WORKLOAD
# --seconds SECONDS` PAIRS times per side, alternating which side goes
# first. Pair i uses the i-th seed of $SEEDS (default: the held-out seed
# 424242, then 1, 2, ...). Every result line is appended to
# $BENCH_AB_DIR/results.jsonl.
#
# The summary gives, for every end-to-end metric in BENCHMARK.json, each
# side's median and quartiles, how many pairs the change won (direction
# from the metric's "better"), and whether the change's median beats the
# base's by more than the base's interquartile range. Failed requests
# are summed per side. The script only reads perfbench/ and
# BENCHMARK.json; it changes nothing in the checkout.
set -euo pipefail

if [ "$#" -ne 4 ]; then
  echo "usage: $0 REV WORKLOAD PAIRS SECONDS" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4
root=$(cd "$(dirname "$0")/.." && pwd)
work=${BENCH_AB_DIR:-${TMPDIR:-/tmp}/bench_ab}
read -r -a seeds <<< "${SEEDS:-424242 $(seq -s ' ' 1 "$pairs")}"
if [ "${#seeds[@]}" -lt "$pairs" ]; then
  echo "bench_ab: SEEDS names ${#seeds[@]} seeds for $pairs pairs" >&2
  exit 2
fi

mkdir -p "$work"
results=$work/results.jsonl
for side in base change; do
  rm -rf "${work:?}/$side"
  mkdir -p "$work/$side"
done
git -C "$root" archive "$rev" | tar -x -C "$work/base"
git -C "$root" ls-files -z --cached --others --exclude-standard |
  (cd "$root" && tar --null --ignore-failed-read -cf - -T - 2>/dev/null) |
  tar -x -C "$work/change"
echo "bench_ab: base $(git -C "$root" rev-parse --short "$rev"), change = working tree;" \
  "$workload, $pairs pairs x $seconds s; results in $results" >&2

# One warm-up build per side, so no measured run pays for compiling.
for side in base change; do
  for args in "-p pops-cli" "--manifest-path perfbench/Cargo.toml"; do
    # shellcheck disable=SC2086  # two words on purpose
    (cd "$work/$side" && CARGO_TARGET_DIR=$work/target-$side \
      cargo build --release --offline --quiet $args)
  done
done

run() { # side pair seed
  local line
  line=$(cd "$work/$1" && CARGO_TARGET_DIR=$work/target-$1 python3 perfbench/run.py \
    --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
  printf '{"side": "%s", "pair": %d, "seed": %s, "result": %s}\n' "$1" "$2" "$3" \
    "${line:-null}" >> "$results"
  echo "bench_ab: pair $2 seed $3 $1 done" >&2
}

: > "$results"
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then order="base change"; else order="change base"; fi
  for side in $order; do
    run "$side" "$i" "${seeds[$i]}"
  done
done

python3 - "$root/BENCHMARK.json" "$results" <<'EOF'
import json
import statistics
import sys

bench = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
by_pair = {}
for r in runs:
    by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
complete = [p for p in sorted(by_pair) if all(by_pair[p].get(s) for s in ("base", "change"))]
print(f"{len(complete)} complete pairs of {len(by_pair)}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{'metric':<20} {'base q1/med/q3':>28} {'change q1/med/q3':>28} {'wins':>6}  verdict")
for metric in bench["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    vals = {s: [by_pair[p][s]["metrics"][name]["value"] for p in complete] for s in ("base", "change")}
    if not complete:
        break
    wins = sum((c > b) if higher else (c < b) for b, c in zip(vals["base"], vals["change"]))
    bq, cq = quartiles(vals["base"]), quartiles(vals["change"])
    gain = (cq[1] - bq[1]) if higher else (bq[1] - cq[1])
    iqr = bq[2] - bq[0]
    rel = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
    verdict = "better by > base IQR" if gain > iqr else ("worse" if gain < 0 else "within base IQR")
    fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
    print(f"{name:<20} {fmt(bq):>28} {fmt(cq):>28} {wins:>3}/{len(complete):<2}  "
          f"{verdict} ({rel:+.1%})")
for side in ("base", "change"):
    failed = sum(by_pair[p][side]["failed"] for p in complete)
    wrong = sum(not by_pair[p][side]["correct"] for p in complete)
    print(f"{side}: failed requests {failed}, runs with check failures {wrong}")
EOF
