#!/usr/bin/env bash
# Mutant suite: each checked-in mutant breaks one thing an oracle must
# catch, and its named killer must fail on it.
#
#   scripts/mutants.sh [mutant-file...]   (default: test/mutants/*.mutant)
#   scripts/mutants.sh --self-test
#
# A mutant file is a header, then the anchor text and its replacement:
#
#   target: lib/zk/ensemble.ml
#   killer: test test_chaos
#   breaks: one line on what the mutant breaks
#   @@ anchor
#   <exact text, one or more lines, that occurs once in the target>
#   @@ replacement
#   <text that replaces it>
#
# The killer is "test <name> [args...]" (runs test/<name>.exe from
# test/), "bench <id>" (runs dufs_bench <id> in a scratch directory) or
# "script <path> [args...]" (runs a script of the tree from its root).
#
# For each mutant the script copies the tree, _build included so the
# build is incremental, applies that one mutant, builds only what its
# killer needs (the whole tree for a script) and runs the killer. The
# verdict is "killed" when the killer exits non-zero, "survived" when it
# passes, and "stale" when the anchor does not occur exactly once in the
# target or the mutated tree does not build. The script exits non-zero
# if any mutant survived or is stale.
#
# --self-test runs the two fixtures under test/mutants/self-test/: a
# no-op mutant (replacement = anchor) must survive and a mutant whose
# anchor is missing must be stale, each making the script exit non-zero.
#
# Copies go under ${TMPDIR:-/tmp} and are removed after each mutant.
set -u

root=$(cd "$(dirname "$0")/.." && pwd)

if [ "${1:-}" = "--self-test" ]; then
  status=0
  for case in noop:survived stale:stale; do
    file="$root/test/mutants/self-test/${case%%:*}.mutant"
    want=${case##*:}
    out=$("$0" "$file")
    code=$?
    echo "$out"
    if [ "$code" -eq 0 ] || ! grep -q "^$want " <<<"$out"; then
      echo "self-test: $(basename "$file") should be $want with a non-zero exit (exit $code)"
      status=1
    fi
  done
  [ "$status" -eq 0 ] && echo "self-test: no-op survived, missing anchor stale, both failed the run"
  exit "$status"
fi

if [ $# -gt 0 ]; then mutants=("$@"); else mutants=("$root"/test/mutants/*.mutant); fi

# header field [name] of mutant file [1]
field() { sed -n "s/^$2: *//p" "$1" | head -n 1; }

# Print the target file [2] with the anchor of mutant [1] replaced;
# exit 3 when the anchor does not occur exactly once.
apply() {
  awk -v target="$2" '
    BEGIN { section = "" }
    /^@@ anchor$/ { section = "a"; next }
    /^@@ replacement$/ { section = "r"; next }
    section == "a" { anchor = anchor (na++ ? "\n" : "") $0 }
    section == "r" { repl = repl (nr++ ? "\n" : "") $0 }
    END {
      while ((getline line < target) > 0) text = text line "\n"
      n = 0; rest = text
      while (na > 0 && (i = index(rest, anchor)) > 0) {
        n++; rest = substr(rest, i + length(anchor))
      }
      if (n != 1) exit 3
      i = index(text, anchor)
      printf "%s", substr(text, 1, i - 1) repl substr(text, i + length(anchor))
    }' "$1"
}

killed=0 survived=0 stale=0
start=$SECONDS
for m in "${mutants[@]}"; do
  name=$(basename "$m" .mutant)
  target=$(field "$m" target)
  read -r kind what args <<<"$(field "$m" killer)"
  t0=$SECONDS
  work=$(mktemp -d "${TMPDIR:-/tmp}/mutant-$name.XXXXXX")
  log="$work/log"
  tree="$work/tree"
  verdict=""
  if [ -z "$target" ] || [ -z "$kind" ] || [ ! -f "$root/$target" ]; then
    verdict="stale (no such target: $target)"
  elif ! apply "$m" "$root/$target" >"$work/mutated"; then
    verdict="stale (anchor does not occur exactly once in $target)"
  else
    mkdir "$tree"
    tar -C "$root" --exclude=./.git -cf - . | tar -C "$tree" -xf -
    cp "$work/mutated" "$tree/$target"
    case $kind in
      test) build=(dune build --root . "test/$what.exe")
            run=(sh -c 'cd _build/default/test && exec "./$0.exe" "$@"' "$what" $args) ;;
      bench) build=(dune build --root . bin/dufs_bench.exe)
             run=(sh -c 'mkdir -p bench-out && cd bench-out && exec ../_build/default/bin/dufs_bench.exe "$0"' "$what") ;;
      script) build=(dune build --root .)
              run=("./$what" $args) ;;
      *) verdict="stale (unknown killer kind: $kind)" ;;
    esac
    if [ -z "$verdict" ]; then
      if ! (cd "$tree" && "${build[@]}") >"$log" 2>&1; then
        verdict="stale (the mutated tree does not build)"
      elif (cd "$tree" && "${run[@]}") >>"$log" 2>&1; then
        verdict="survived"
      else
        verdict="killed"
      fi
    fi
  fi
  case $verdict in
    killed) killed=$((killed + 1)) ;;
    survived) survived=$((survived + 1)) ;;
    *) stale=$((stale + 1)) ;;
  esac
  echo "$verdict $name ($kind $what, $((SECONDS - t0))s): $(field "$m" breaks)"
  # what caught a killed mutant, or why another one was not killed
  if [ "$verdict" = killed ]; then grep -m 3 -E 'FAIL|^unlisted' "$log" | sed 's/^/    /'
  elif [ -f "$log" ]; then tail -n 15 "$log" | sed 's/^/    /'; fi
  rm -rf "$work"
done
echo "mutants: $killed killed, $survived survived, $stale stale ($((SECONDS - start))s)"
[ "$survived" -eq 0 ] && [ "$stale" -eq 0 ]
