#!/usr/bin/env bash
# Alternating perfbench pairs: this tree against another tree.
#
#   scripts/perf-pairs.sh <parent-tree> <workload> [pairs] [seed] [seconds]
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
# and quartiles; how many pairs this tree won on host_us_per_op (lower
# is better); and whether every modeled metric (all but host_* and
# setup_s), `attempted` and `failed` are bit-identical over every run.
# Each run's JSON line stays in $PERF_PAIRS_OUT (default: a fresh
# temporary directory). Exits non-zero if a run fails or the modeled
# metrics differ.
set -uo pipefail

if [ $# -lt 2 ] || [ ! -d "$1" ]; then
  echo "usage: $0 <parent-tree> <workload> [pairs] [seed] [seconds]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
here=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
pairs=${3:-10}
seed=${4:-7}
seconds=${5:-30}
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
  local side=$1 i=$2 tree=${!1}
  if ! (cd "$tree" && ./_build/default/perfbench/main.exe --workload "$workload" \
          --seed "$seed" --seconds "$seconds" --trace 0) \
       | tail -n 1 >"$out/$side.$i.json"; then
    echo "$side run $i failed (see $out/$side.$i.json)" >&2
    exit 1
  fi
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then run parent "$i"; run here "$i"
  else run here "$i"; run parent "$i"; fi
  echo "pair $i/$pairs done" >&2
done

python3 - "$out" "$pairs" "$here/BENCHMARK.json" "$workload" "$seed" <<'EOF'
import json, sys

out, pairs, bench, workload, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
runs = {side: [json.load(open(f"{out}/{side}.{i}.json")) for i in range(1, pairs + 1)]
        for side in ("parent", "here")}
try:
    names = [m["name"] for m in json.load(open(bench))["end_to_end"]]
except (OSError, KeyError, ValueError):
    names = list(runs["here"][0]["metrics"])

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

host = "host_us_per_op"
wins = sum(value(h, host) < value(p, host) for p, h in zip(runs["parent"], runs["here"]))
p1, pm, p3 = quartiles([value(r, host) for r in runs["parent"]])
_, hm, _ = quartiles([value(r, host) for r in runs["here"]])
print(f"{host}: here lower in {wins}/{pairs} pairs; median gap {pm - hm:.4g} us, "
      f"parent inter-quartile range {p3 - p1:.4g} us")

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
