#!/bin/sh
# `dpgreedy solve`, `compare` and `serve` reject a cost rate that is not
# finite as they reject a negative one: `--mu inf` or `--lambda inf` must
# exit 1, name the rate on stderr and print nothing on stdout (an infinite
# rate would otherwise print totals of inf and NaN that no JSON parser
# reads).
#
#   sh tests/cli_rejects_infinite_rates.sh build/tools/dpgreedy
set -u
dpgreedy=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

"$dpgreedy" generate --kind taxi --items 20 --duration 20 --seed 3 \
  --out "$dir/trace.csv" > /dev/null || fail "generate failed"

# expect_rejected COMMAND FLAG VALUE MESSAGE
expect_rejected() {
  "$dpgreedy" "$1" --trace "$dir/trace.csv" "$2" "$3" \
    > "$dir/out" 2> "$dir/err"
  status=$?
  [ "$status" -eq 1 ] || fail "$1 $2 $3: exit $status, want 1"
  if [ -s "$dir/out" ]; then
    fail "$1 $2 $3: printed on stdout: $(head -c 200 "$dir/out")"
  fi
  grep -q "$4" "$dir/err" ||
    fail "$1 $2 $3: stderr lacks '$4': $(cat "$dir/err")"
}

for command in solve compare serve; do
  for value in inf -inf; do
    expect_rejected "$command" --mu "$value" \
      "CostModel: mu must be finite and non-negative"
    expect_rejected "$command" --lambda "$value" \
      "CostModel: lambda must be finite and non-negative"
  done
  expect_rejected "$command" --mu -1 \
    "CostModel: mu must be finite and non-negative"
done

[ "$failures" -eq 0 ] || exit 1
echo "solve, compare and serve reject rates that are not finite"
