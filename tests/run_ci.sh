#!/usr/bin/env sh
# The tier-1 gate, as one command: configure + build + ctest in build/,
# then the sanitized preset (tests/run_sanitized.sh). Any failure stops
# the script with a nonzero exit.
#
# Usage: tests/run_ci.sh [ctest args...]   (extra args go to BOTH ctest runs)
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

# A hung recovery (torture harness, fault injection) must never wedge CI:
# every ctest invocation gets a hard per-test timeout.
timeout=300

echo "== tier 1: build + ctest (build/) =="
cmake -B "$repo/build" -S "$repo"
cmake --build "$repo/build" -j "$(nproc)"
ctest --test-dir "$repo/build" --output-on-failure -j "$(nproc)" \
  --timeout "$timeout" "$@"

echo "== tier 1b: robustness label (fault injection + crash torture) =="
ctest --test-dir "$repo/build" --output-on-failure -L robustness \
  --timeout "$timeout" "$@"

echo "== tier 1c: server label (HTTP daemon over live sockets) =="
ctest --test-dir "$repo/build" --output-on-failure -L server \
  --timeout "$timeout" "$@"

echo "== tier 1d: cache label (cross-request result cache) =="
ctest --test-dir "$repo/build" --output-on-failure -L cache \
  --timeout "$timeout" "$@"

echo "== tier 1e: bench_server repeated-query smoke (cache on vs off) =="
"$repo/build/bench/bench_server" repeat 4 50 50

echo "== tier 1e2: subscribe label (standing-query differential suite) =="
ctest --test-dir "$repo/build" --output-on-failure -L subscribe \
  --timeout "$timeout" "$@"

echo "== tier 1e3: standing-query smoke (wfqd + /subscribe over HTTP) =="
"$repo/tests/smoke_subscribe.sh" "$repo/build/examples/wfqd"

echo "== tier 1e4: bench_server standing-query smoke (push vs re-query) =="
"$repo/build/bench/bench_server" subscribe 4 20 50

echo "== tier 1f: shard label (scatter/gather differential harness) =="
ctest --test-dir "$repo/build" --output-on-failure -L shard \
  --timeout "$timeout" "$@"

echo "== tier 1g: observability smoke (wfqd + access log + /debug/slow) =="
"$repo/tests/smoke_observability.sh" "$repo/build/examples/wfqd"

echo "== tier 1h: torture label (socket + store chaos harness) =="
ctest --test-dir "$repo/build" --output-on-failure -L torture \
  --timeout "$timeout" "$@"

echo "== tier 1i: segfmt label (v2 segments, zone maps, compaction) =="
ctest --test-dir "$repo/build" --output-on-failure -L segfmt \
  --timeout "$timeout" "$@"

echo "== tier 1j: bench_store v1-vs-v2 smoke (compression + pruned scan) =="
"$repo/build/bench/bench_store" \
  --benchmark_filter='BM_StoreClinic.*/1000$' \
  --benchmark_min_time=0.01

echo "== tier 2: AddressSanitizer + UBSan (build-sanitize/) =="
"$repo/tests/run_sanitized.sh" --timeout "$timeout" "$@"

echo "== tier 2b: robustness label under ASan/UBSan =="
(cd "$repo" && ctest --preset asan-ubsan -L robustness --timeout "$timeout" "$@")

echo "== tier 2c: server label under ASan/UBSan =="
(cd "$repo" && ctest --preset asan-ubsan -L server --timeout "$timeout" "$@")

echo "== tier 2d: cache label under ASan/UBSan =="
(cd "$repo" && ctest --preset asan-ubsan -L cache --timeout "$timeout" "$@")

echo "== tier 2e: bench_server repeated-query smoke under ASan/UBSan =="
# The sanitize preset builds tests only; flip the bench tree on for the
# one binary this smoke needs.
cmake --preset asan-ubsan -S "$repo" -DWFLOG_BUILD_BENCH=ON
cmake --build --preset asan-ubsan -j "$(nproc)" --target bench_server
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
  "$repo/build-sanitize/bench/bench_server" repeat 2 20 20

echo "== tier 2e2: subscribe label under ASan/UBSan =="
(cd "$repo" && ctest --preset asan-ubsan -L subscribe --timeout "$timeout" "$@")

echo "== tier 2f: shard label under ASan/UBSan =="
(cd "$repo" && ctest --preset asan-ubsan -L shard --timeout "$timeout" "$@")

echo "== tier 2g: segfmt label under ASan/UBSan =="
(cd "$repo" && ctest --preset asan-ubsan -L segfmt --timeout "$timeout" "$@")

echo "== tier 3: ThreadSanitizer — shard pool (queries + batches), server, eval =="
"$repo/tests/run_sanitized.sh" thread -L 'shard|server|eval' \
  --timeout "$timeout" "$@"

echo "== tier 3a2: ThreadSanitizer — subscribe (standing-query delivery) =="
"$repo/tests/run_sanitized.sh" thread -L subscribe --timeout "$timeout" "$@"

echo "== tier 3b: ThreadSanitizer — chaos torture harness =="
"$repo/tests/run_sanitized.sh" thread -L torture --timeout "$timeout" "$@"

echo "== tier 3c: ThreadSanitizer — segfmt (store counters under readers) =="
"$repo/tests/run_sanitized.sh" thread -L segfmt --timeout "$timeout" "$@"

echo "== CI green =="
