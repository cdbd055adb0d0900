#!/usr/bin/env bash
# Runs one GoogleTest binary with faults armed through DPV_FAULT (the CI
# chaos passes), after checking that every ':'-separated pattern of the
# filter selects at least one test. GoogleTest exits 0 on a filter that
# matches nothing ("0 tests ran"), so without the check a renamed suite
# would turn a chaos step into a silent no-op.
#
# Afterwards every probe named in the spec must have fired at least once:
# fault::should_fire writes one "fault: <probe> fired" line to stderr per
# fire, and a probe armed past the last evaluation a run makes injects
# nothing.
#
# Usage: bash tools/run_chaos.sh <DPV_FAULT spec> <test binary> [gtest filter]
set -u
if [ $# -lt 2 ]; then
  echo "usage: $0 <DPV_FAULT spec> <test binary> [gtest filter]" >&2
  exit 2
fi
spec="$1"
binary="$2"
filter="${3:-*}"

fail=0
IFS=':' read -r -a patterns <<< "$filter"
for pattern in "${patterns[@]}"; do
  count=$("$binary" --gtest_list_tests --gtest_filter="$pattern" | grep -c '^  ')
  echo "$binary: '$pattern' selects $count test(s)"
  [ "$count" -gt 0 ] || fail=1
done
if [ "$fail" -ne 0 ]; then
  echo "FAIL: a filter pattern selects no test of $binary"
  exit 1
fi

log=$(mktemp)
trap 'rm -f "$log"' EXIT
DPV_FAULT="$spec" "$binary" --gtest_filter="$filter" 2>"$log"
status=$?
cat "$log" >&2

IFS=',' read -r -a entries <<< "$spec"
for entry in "${entries[@]}"; do
  [ -n "$entry" ] || continue
  probe="${entry%%:*}"
  fired=$(grep -cF "fault: $probe fired" "$log")
  echo "$binary: probe '$probe' fired $fired time(s)"
  if [ "$fired" -eq 0 ]; then
    echo "FAIL: probe '$probe' is armed by '$spec' but never fired in $binary"
    status=1
  fi
done
exit "$status"
