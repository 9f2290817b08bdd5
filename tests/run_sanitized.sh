#!/usr/bin/env sh
# Builds the test suite under a sanitizer and runs it.
# Usage: tests/run_sanitized.sh [thread] [ctest args...]
#   (default)  AddressSanitizer + UBSan in build-sanitize/
#   thread     ThreadSanitizer in build-tsan/ (the shard pool race
#              tier)
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

preset=asan-ubsan
if [ "${1:-}" = "thread" ]; then
  preset=tsan
  shift
fi

# --preset resolves against the CURRENT directory's CMakePresets.json, so
# pin the cwd before any preset call — the script must work from anywhere.
cd "$repo"

cmake --preset "$preset" -S "$repo"
cmake --build --preset "$preset" -j "$(nproc)"

if [ "$preset" = "tsan" ]; then
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
else
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
fi

ctest --preset "$preset" "$@"
