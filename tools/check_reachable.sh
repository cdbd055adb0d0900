#!/usr/bin/env bash
# Link-reachability gate (the CI reachability job): every dpv:: function
# that libdpv.a defines must be kept by at least one program that runs the
# library -- a bench, an example, dpv_perfbench or dpv_perfbench_model --
# or be named in tools/reachable_allowlist.txt with a reason. Tests do not
# count: code that only a test calls belongs in tests/.
#
# The programs are linked with --gc-sections from objects compiled with
# one section per function, so the linker drops every function that no
# entry point reaches and `nm` of a program lists exactly what it keeps.
# The build is -O0: with optimization a function that is only ever
# inlined leaves no symbol behind and would look dead.
#
# Usage (from anywhere): bash tools/check_reachable.sh [build dir]
# The build dir defaults to build-reach/ at the repository root.
set -u
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build-reach}"
allowlist="$root/tools/reachable_allowlist.txt"
jobs="$(nproc 2>/dev/null || echo 2)"

configure() {  # <source dir> <build dir> [extra cmake args...]
  local src="$1" dir="$2"
  shift 2
  cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG= \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" "$@" >/dev/null || exit 2
}

configure "$root" "$build" -DDPV_BUILD_TESTS=OFF -DDPV_BUILD_BENCH=ON -DDPV_BUILD_EXAMPLES=ON
cmake --build "$build" -j "$jobs" >/dev/null || exit 2
configure "$root/perfbench" "$build/perfbench"
cmake --build "$build/perfbench" -j "$jobs" --target dpv_perfbench dpv_perfbench_model \
  >/dev/null || exit 2

programs=$(find "$build" -maxdepth 1 -type f -perm -u+x \( -name 'bench_*' -o -name 'example_*' \) | sort)
programs="$programs $build/perfbench/dpv_perfbench $build/perfbench/dpv_perfbench_model"
count=0
for p in $programs; do
  [ -x "$p" ] || { echo "FAIL: program not built: $p"; exit 2; }
  count=$((count + 1))
done

# Demangled names of the text symbols of the given types whose name starts
# in namespace dpv, one per line. The library's roots are its global and
# weak functions: a file-local helper is dead exactly when its callers are.
functions() {  # <nm symbol types> <files...>
  local types="$1"
  shift
  nm -C --defined-only "$@" 2>/dev/null |
    sed -n "s/^[0-9a-f]* [$types] \(dpv::.*\)\$/\1/p" | sort -u
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
functions TW "$build/libdpv.a" >"$tmp/defined"
# shellcheck disable=SC2086
functions TtWw $programs >"$tmp/kept"
comm -23 "$tmp/defined" "$tmp/kept" >"$tmp/unkept"

# Allowlist lines: "<qualified name>  # <reason>"; the name covers every
# overload. A line without a reason is an error.
fail=0
: >"$tmp/allowed"
while IFS= read -r line; do
  case "$line" in '' | '#'*) continue ;; esac
  name="${line%%#*}"
  name="${name%"${name##*[![:space:]]}"}"
  reason="${line#*#}"
  if [ "$name" = "$line" ] || [ -z "${reason// /}" ]; then
    echo "FAIL: allowlist entry without a reason: $line"
    fail=1
  fi
  echo "$name" >>"$tmp/allowed"
done <"$allowlist"

unreachable=0
allowed_hits=0
while IFS= read -r fn; do
  if grep -qxF -- "${fn%%(*}" "$tmp/allowed"; then
    echo "allowlisted: $fn"
    allowed_hits=$((allowed_hits + 1))
    continue
  fi
  echo "unreachable: $fn"
  unreachable=$((unreachable + 1))
done <"$tmp/unkept"

echo "$(wc -l <"$tmp/defined") dpv:: functions in libdpv.a; $count programs keep" \
  "$(comm -12 "$tmp/defined" "$tmp/kept" | wc -l); $allowed_hits allowlisted;" \
  "$unreachable unreachable"
if [ "$unreachable" -ne 0 ]; then
  echo "FAIL: $unreachable dpv:: function(s) no bench, example or perfbench program keeps:" \
    "delete them, move them to tests/, or allowlist them with a reason"
  fail=1
fi
[ "$fail" -eq 0 ] && echo "reachability check OK"
exit "$fail"
