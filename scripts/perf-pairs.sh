#!/usr/bin/env bash
# Alternating perfbench pairs: this tree against another tree.
#
#   scripts/perf-pairs.sh <parent-tree> <workload> [pairs] [seed] [seconds] [metric]
#
# <parent-tree> is a plain copy of the commit to compare against (for
# example `git archive <rev> | tar -x -C /tmp/parent`). Both trees'
# perfbench is built with dune. Then [pairs] (default 10) pairs of
# untraced runs of <workload> at [seed] (default 7), [seconds] (default
# 30) each, alternate between the trees: the parent runs first in odd
# pairs and this tree in even ones, so a drift in host load falls on
# both sides alike.
#
# Prints, per end-to-end metric of BENCHMARK.json, each side's median
# and quartiles; how many pairs this tree won on [metric] (default
# host_us_per_op; any end-to-end metric of BENCHMARK.json, whose
# `better` field says which direction wins) and the median gap in that
# direction against the parent's inter-quartile range; and whether
# every modeled metric (all but host_* and setup_s), `attempted` and
# `failed` are bit-identical over every run.
# Each run's whole stdout and stderr, ending with an `exit <code>` line,
# stay in $PERF_PAIRS_OUT/<side>.<i>.log (default: a fresh temporary
# directory), and its JSON line in <side>.<i>.json; a failed run prints
# its log's last 20 lines. Exits non-zero if a run fails or the modeled
# metrics differ.
set -uo pipefail

if [ $# -lt 2 ] || [ ! -d "$1" ]; then
  echo "usage: $0 <parent-tree> <workload> [pairs] [seed] [seconds] [metric]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
here=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
pairs=${3:-10}
seed=${4:-7}
seconds=${5:-30}
metric=${6:-host_us_per_op}
if ! python3 - "$here/BENCHMARK.json" "$metric" <<'EOF'
import json, sys
names = [m["name"] for m in json.load(open(sys.argv[1]))["end_to_end"]]
if sys.argv[2] not in names:
    sys.exit(f"unknown metric {sys.argv[2]}; BENCHMARK.json's end-to-end metrics: "
             + ", ".join(names))
EOF
then
  exit 2
fi
out=${PERF_PAIRS_OUT:-$(mktemp -d)}
mkdir -p "$out"

for side in parent here; do
  tree=${!side}
  if ! dune build --root "$tree" ./perfbench/main.exe 2>"$out/$side.build.log"; then
    echo "build failed: $tree (see $out/$side.build.log)" >&2
    exit 2
  fi
done

run() {
  local side=$1 i=$2 tree=${!1} log="$out/$1.$2.log" code
  (cd "$tree" && ./_build/default/perfbench/main.exe --workload "$workload" \
     --seed "$seed" --seconds "$seconds" --trace 0) >"$log" 2>&1
  code=$?
  echo "exit $code" >>"$log"
  grep '^{' "$log" | tail -n 1 >"$out/$side.$i.json"
  if [ "$code" -ne 0 ] || [ ! -s "$out/$side.$i.json" ]; then
    echo "$side run $i failed with exit $code; last 20 lines of $log:" >&2
    tail -n 20 "$log" >&2
    exit 1
  fi
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then run parent "$i"; run here "$i"
  else run here "$i"; run parent "$i"; fi
  echo "pair $i/$pairs done" >&2
done

python3 - "$out" "$pairs" "$here/BENCHMARK.json" "$workload" "$seed" "$metric" <<'EOF'
import json, sys

out, pairs, bench, workload, seed, metric = (
    sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5], sys.argv[6])
runs = {side: [json.load(open(f"{out}/{side}.{i}.json")) for i in range(1, pairs + 1)]
        for side in ("parent", "here")}
end_to_end = {m["name"]: m for m in json.load(open(bench))["end_to_end"]}
names = list(end_to_end)

def quartiles(xs):
    xs = sorted(xs)
    def q(p):
        k = (len(xs) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return q(0.25), q(0.5), q(0.75)

def value(run, name):
    m = run["metrics"].get(name)
    return None if m is None else m["value"]

print(f"perf-pairs: {workload} seed {seed}, {pairs} alternating pairs")
for side in ("parent", "here"):
    codes = [open(f"{out}/{side}.{i}.log").read().split()[-1] for i in range(1, pairs + 1)]
    print(f"{side} exit codes: {' '.join(codes)}")
print(f"{'metric':<16} {'parent q1 / median / q3':>35}  {'here q1 / median / q3':>35} {'median':>8}")
for name in names:
    cols = []
    for side in ("parent", "here"):
        xs = [value(r, name) for r in runs[side]]
        if None in xs:
            cols.append(None)
        else:
            cols.append(quartiles(xs))
    if None in cols:
        print(f"{name:<16} (missing on one side)")
        continue
    (p1, pm, p3), (h1, hm, h3) = cols
    change = f"{100 * (hm - pm) / pm:+.1f}%" if pm else "-"
    print(f"{name:<16} {p1:11.5g} {pm:11.5g} {p3:11.5g}  {h1:11.5g} {hm:11.5g} {h3:11.5g} {change:>8}")

# signed so that a positive gap is a gain for this tree
sign = 1 if end_to_end[metric]["better"] == "lower" else -1
unit = end_to_end[metric]["unit"]
wins = sum(sign * (value(p, metric) - value(h, metric)) > 0
           for p, h in zip(runs["parent"], runs["here"]))
p1, pm, p3 = quartiles([value(r, metric) for r in runs["parent"]])
_, hm, _ = quartiles([value(r, metric) for r in runs["here"]])
print(f"{metric}: here {end_to_end[metric]['better']} in {wins}/{pairs} pairs; "
      f"median gap {sign * (pm - hm):.4g} {unit}, "
      f"parent inter-quartile range {p3 - p1:.4g} {unit}")

def modeled(run):
    return (run["correct"], run["attempted"], run["failed"],
            {k: v["value"] for k, v in run["metrics"].items()
             if not k.startswith("host_") and k != "setup_s"})

all_runs = runs["parent"] + runs["here"]
identical = all(modeled(r) == modeled(all_runs[0]) for r in all_runs)
print("modeled metrics, attempted and failed: "
      + ("bit-identical in every run" if identical else "DIFFER"))
sys.exit(0 if identical else 1)
EOF
