#!/bin/sh
# `dpgreedy convert` onto its own path.  The trace writers replace the
# target by rename, so the source sequence, still mapped from that path,
# keeps its pages.  Each conversion must exit 0 and leave a file equal to
# the same conversion to a fresh path, with no temporary file left behind:
# a `.dpt` onto itself, a `.dpt` onto itself as CSV (`--format csv`), and a
# CSV onto itself.
#
#   sh tests/convert_onto_itself.sh build/tools/dpgreedy
set -u
dpgreedy=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# check LABEL SOURCE [FLAG...]: convert a copy of SOURCE onto itself and
# compare it with SOURCE converted to a fresh path under the same flags.
check() {
  label=$1
  source=$2
  shift 2
  case "$source" in
    *.dpt) self="$dir/self.dpt" ;;
    *) self="$dir/self.csv" ;;
  esac
  case "$*" in
    *csv*) fresh="$dir/fresh.csv" ;;
    *) fresh="$dir/fresh.${self##*.}" ;;
  esac
  cp "$source" "$self"
  if ! "$dpgreedy" convert "$source" "$fresh" "$@" > /dev/null; then
    fail "$label: convert to a fresh path failed"
    return
  fi
  "$dpgreedy" convert "$self" "$self" "$@" > /dev/null 2> "$dir/err"
  status=$?
  [ "$status" -eq 0 ] || fail "$label: exit $status, want 0: $(cat "$dir/err")"
  cmp -s "$self" "$fresh" || fail "$label: differs from the fresh conversion"
  leftovers=$(find "$dir" -mindepth 1 -name '*.tmp.*')
  [ -z "$leftovers" ] || fail "$label: temporary left behind: $leftovers"
  rm -f "$self" "$fresh"
}

"$dpgreedy" generate --kind taxi --items 20 --duration 20 --seed 3 \
  --out "$dir/small.dpt" > /dev/null || { echo "FAIL: generate" >&2; exit 1; }
"$dpgreedy" convert "$dir/small.dpt" "$dir/small.csv" > /dev/null ||
  { echo "FAIL: convert to csv" >&2; exit 1; }

check ".dpt onto itself" "$dir/small.dpt"
check ".dpt onto itself as CSV" "$dir/small.dpt" --format csv
check "CSV onto itself" "$dir/small.csv"

[ "$failures" -eq 0 ] || exit 1
echo "convert onto its own path: all 3 conversions ok"
