#!/bin/sh
# `dpgreedy serve` rejects the rows `dpgreedy solve` rejects.  Each bad row
# must make serve exit 1, name `<stdin>: row N` on stderr, and still print
# the final line of the valid prefix before it (compared with serve over
# that prefix alone) — on one thread at several block sizes (so the bad row
# lands mid-block), and with two decode shards over one engine partition,
# whose reports must count the rows the engine served before the bad one.
# solve must exit 1 on an infinite time.
#
#   sh tests/serve_rejects_invalid_rows.sh build/tools/dpgreedy
set -u
dpgreedy=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# check LABEL N ROW...: the data rows, of which row N (the last) is bad.
check() {
  label=$1
  row=$2
  shift 2
  echo server,time,items > "$dir/in.csv"
  printf '%s\n' "$@" >> "$dir/in.csv"
  head -n "$row" "$dir/in.csv" > "$dir/prefix.csv"  # header + rows before N
  if ! "$dpgreedy" serve --trace - < "$dir/prefix.csv" > "$dir/prefix.out"; then
    fail "$label: serve over the valid prefix failed"
    return
  fi
  expected=$(grep '^final ' "$dir/prefix.out")
  for mode in "" "--batch 2" "--shards 2" "--shards 2 --batch 2" \
      "--shards 2 --batch 64"; do
    # shellcheck disable=SC2086  # $mode is a flag list
    "$dpgreedy" serve --trace - $mode < "$dir/in.csv" > "$dir/out" 2> "$dir/err"
    status=$?
    [ "$status" -eq 1 ] || fail "$label ($mode): exit $status, want 1"
    if ! grep -q "<stdin>: row $row: " "$dir/err"; then
      fail "$label ($mode): stderr does not name <stdin>: row $row:" \
        "$(cat "$dir/err")"
    fi
    actual=$(grep '^final ' "$dir/out")
    [ "$actual" = "$expected" ] ||
      fail "$label ($mode): '$actual', want '$expected'"
  done
}

check "first time below zero" 1 '1,-5,3'
check "NaN first time" 1 '1,nan,3'
check "infinite first time" 1 '1,inf,3'
check "empty item list" 2 '1,1,3' '2,2,'
check "reserved item id" 1 '1,1,4294967295'
check "out-of-order time" 3 '1,1,3' '1,2,3' '1,1.5,3'
check "out-of-order time before a good row" 3 '0,1.0,1' '1,2.0,2' \
  '2,1.5,3' '3,3.0,1'

printf 'server,time,items\n1,inf,3\n' > "$dir/inf.csv"
"$dpgreedy" solve --trace "$dir/inf.csv" > /dev/null 2>&1
status=$?
[ "$status" -eq 1 ] || fail "solve on an infinite time: exit $status, want 1"

[ "$failures" -eq 0 ] || exit 1
echo "serve rejects every invalid row with provenance"
