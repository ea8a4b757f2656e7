#!/usr/bin/env bash
# Byte-diff experiment runs of this tree against another tree.
#
#   scripts/smoke-diff.sh <parent-tree> [out-dir] [id...]
#
# <parent-tree> is a plain copy of the commit to compare against (for
# example `git archive <rev> | tar -x -C /tmp/parent`). Both trees are
# built with dune, then each given experiment id runs once in each, in
# its own output directory. With no ids, the script runs every id CI
# runs (this tree's `dufs_bench --list-ci`) except engine-smoke (its
# metrics are host wall-clock); full runs are diffed the same way, e.g.
# `scripts/smoke-diff.sh <parent-tree> <out-dir> chaos pipeline
# durability`. The script diffs each id's stdout and any JSON it
# writes, after stripping lines that carry host wall time, and exits
# non-zero if anything differs or either side's run fails. Outputs stay
# in [out-dir] (default: a fresh temporary directory; pass an empty
# string for one when naming ids) for inspection.
set -u

if [ $# -lt 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 <parent-tree> [out-dir] [id...]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
here=$(cd "$(dirname "$0")/.." && pwd)
out=${2:-$(mktemp -d)}
mkdir -p "$out"
shift $(( $# < 2 ? $# : 2 ))

for side in parent here; do
  tree=${!side}
  echo "building $side ($tree)"
  if ! dune build --root "$tree" bin/dufs_bench.exe 2>"$out/$side.build.log"; then
    echo "build failed: $tree (see $out/$side.build.log)" >&2
    exit 2
  fi
done
if [ $# -gt 0 ]; then
  ids="$*"
else
  ids=$("$here/_build/default/bin/dufs_bench.exe" --list-ci | grep -v -x engine-smoke)
fi
[ -n "$ids" ] || { echo "no experiment ids listed" >&2; exit 2; }

status=0
for side in parent here; do
  tree=${!side}
  for id in $ids; do
    dir="$out/$side/$id"
    rm -rf "$dir" && mkdir -p "$dir"
    (cd "$dir" && "$tree/_build/default/bin/dufs_bench.exe" "$id" >stdout.txt 2>stderr.txt)
    code=$?
    echo "$code" >"$dir/exit"
    [ "$code" -eq 0 ] || { echo "$side $id exited $code" >&2; status=1; }
  done
done

# Host wall time, the only thing two correct builds may disagree on.
strip() { grep -v -i -E 'wall|host_' "$1"; }

for id in $ids; do
  while read -r f; do
    a="$out/parent/$id/$f" b="$out/here/$id/$f"
    if [ ! -e "$a" ] || [ ! -e "$b" ]; then
      echo "DIFF $id: $f exists on one side only"
      status=1
    elif ! diff <(strip "$a") <(strip "$b") >"$out/$id.$f.diff"; then
      echo "DIFF $id: $f (see $out/$id.$f.diff)"
      status=1
    else
      rm -f "$out/$id.$f.diff"
    fi
  done < <( (ls "$out/parent/$id"; ls "$out/here/$id") | sort -u)
done

if [ "$status" -eq 0 ]; then
  echo "smoke-diff: every run identical ($(echo $ids))"
else
  echo "smoke-diff: differences found; outputs in $out" >&2
fi
exit "$status"
