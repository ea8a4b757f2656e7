#!/usr/bin/env bash
# Export audit: every value and record field that a lib/**/*.mli
# exports must have a caller outside its own module and test/, or an
# entry with a reason in scripts/unused-exports.allow.
#
#   scripts/unused-exports.sh
#
# Builds the typed trees (dune build @check), then runs
# scripts/unused_exports.ml over them: references from lib/, bin/,
# examples/ and perfbench/ count as callers; references from the
# defining module and from test/ do not. Each finding prints as
# "<file>:<line> <key> <value|field> <test|none>" ("test" when only
# tests refer to it). The script exits non-zero on any finding missing
# from the allowlist, on any allowlist entry that names no finding (so
# the list cannot go stale) and on any entry without a reason.
#
# Allowlist lines are "<key> <reason>"; <key> is Module.name for a value
# and Module.type.field for a field, or Module.type.* for every field
# of one record type. Blank lines and lines starting with # are ignored.
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
allow="$root/scripts/unused-exports.allow"
cd "$root" || exit 2

if ! dune build @check scripts/unused_exports.exe 2>&1; then
  echo "unused-exports: build failed" >&2
  exit 2
fi
findings=$(./_build/default/scripts/unused_exports.exe _build/default) || exit 2

status=0
# entries: key and reason, comments and blank lines dropped
entries=$(grep -v -E '^[[:space:]]*(#|$)' "$allow")
while read -r key reason; do
  if [ -z "$reason" ]; then
    echo "allowlist entry without a reason: $key"
    status=1
  fi
done <<<"$entries"

allowed() {
  local key=$1 k
  while read -r k _; do
    case $k in
      *.\*) [ "${key%.*}" = "${k%.\*}" ] && return 0 ;;
      *) [ "$key" = "$k" ] && return 0 ;;
    esac
  done <<<"$entries"
  return 1
}

shown=0
while read -r loc key kind users; do
  [ -n "$loc" ] || continue
  shown=$((shown + 1))
  if ! allowed "$key"; then
    echo "unlisted: $loc $key ($kind, referenced by: $users)"
    status=1
  fi
done <<<"$findings"

while read -r k _; do
  case $k in
    *.\*) prefix=${k%.\*}
      grep -q -F " $prefix." <<<"$findings" || { echo "stale allowlist entry: $k"; status=1; } ;;
    *) grep -q -E " ${k//./\\.} " <<<"$findings" || { echo "stale allowlist entry: $k"; status=1; } ;;
  esac
done <<<"$entries"

echo "unused-exports: $shown findings, $(wc -l <<<"$entries") allowlist entries"
[ "$status" -eq 0 ] && echo "unused-exports: every finding is allowlisted"
exit "$status"
