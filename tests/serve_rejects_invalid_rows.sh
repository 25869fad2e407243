#!/bin/sh
# `dpgreedy serve` rejects the rows `dpgreedy solve` rejects.  Each bad row
# must make serve exit 1, name `<stdin>: row N` on stderr, and still print
# the final line of the valid prefix before it (compared with serve over
# that prefix alone) — on one thread at several block sizes (so the bad row
# lands mid-block), and with two decode shards over one engine partition,
# whose reports must count the rows the engine served before the bad one.
# A row out of time order, an empty item list and the reserved item id get
# the same handling over two engine partitions, which see only their own
# rows (compared with the prefix served over the same partitions), whether
# the bad row sits mid-block or opens one.  solve must exit 1 on an
# infinite time.
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
    expect_rejected "$label" "$row" "$mode" "$expected"
  done
}

# expect_rejected LABEL N MODE FINAL: serve in.csv under MODE exits 1,
# names row N and prints FINAL.
expect_rejected() {
  # shellcheck disable=SC2086  # $3 is a flag list
  "$dpgreedy" serve --trace - $3 < "$dir/in.csv" > "$dir/out" 2> "$dir/err"
  status=$?
  [ "$status" -eq 1 ] || fail "$1 ($3): exit $status, want 1"
  if ! grep -q "<stdin>: row $2: " "$dir/err"; then
    fail "$1 ($3): stderr does not name <stdin>: row $2:" "$(cat "$dir/err")"
  fi
  actual=$(grep '^final ' "$dir/out")
  [ "$actual" = "$4" ] || fail "$1 ($3): '$actual', want '$4'"
}

# check_partitioned LABEL N ROW...: as check, over two engine partitions.
check_partitioned() {
  label=$1
  row=$2
  shift 2
  echo server,time,items > "$dir/in.csv"
  printf '%s\n' "$@" >> "$dir/in.csv"
  head -n "$row" "$dir/in.csv" > "$dir/prefix.csv"
  for mode in "--partitions 2" "--shards 2 --partitions 2" \
      "--partitions 2 --batch 2" "--shards 2 --partitions 2 --batch 2" \
      "--shards 2 --partitions 2 --batch 64"; do
    # shellcheck disable=SC2086  # $mode is a flag list
    if ! "$dpgreedy" serve --trace - $mode < "$dir/prefix.csv" \
        > "$dir/prefix.out"; then
      fail "$label ($mode): serve over the valid prefix failed"
      continue
    fi
    expect_rejected "$label" "$row" "$mode" \
      "$(grep '^final ' "$dir/prefix.out")"
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
check_partitioned "out-of-order time before a good row" 3 '0,1.0,1' \
  '1,2.0,2' '2,1.5,3' '3,3.0,1'
check_partitioned "infinite time mid-stream" 2 '0,1.0,1' '1,inf,2' \
  '2,3.0,3'
check_partitioned "empty item list mid-stream" 3 '0,1.0,1' '1,2.0,2' \
  '2,3.0,' '3,4.0,1'
check_partitioned "reserved item id mid-stream" 3 '0,1.0,1' '1,2.0,2' \
  '2,3.0,4294967295' '3,4.0,1'
# 3000 good rows, an empty item list, 3000 more (rows hold no spaces, so
# the unquoted expansions split into one argument per row).
before=$(awk 'BEGIN { for (i = 1; i <= 3000; i++) printf "%d,%d.0,%d\n", i % 5, i, i % 7 }')
after=$(awk 'BEGIN { for (i = 1; i <= 3000; i++) printf "%d,%d.0,%d\n", i % 5, 4000 + i, i % 7 }')
# shellcheck disable=SC2086
check_partitioned "empty item list after 3000 rows" 3001 $before '2,3500.0,' \
  $after

printf 'server,time,items\n1,inf,3\n' > "$dir/inf.csv"
"$dpgreedy" solve --trace "$dir/inf.csv" > /dev/null 2>&1
status=$?
[ "$status" -eq 1 ] || fail "solve on an infinite time: exit $status, want 1"

[ "$failures" -eq 0 ] || exit 1
echo "serve rejects every invalid row with provenance"
