#!/usr/bin/env sh
# CLI flag regression test for wfq and wfqd (examples/engine_flags.h):
#
#   * --shards rejects negative and non-numeric values with a usage error
#     (exit 2) in both binaries, before any log is read or server started
#   * valid --shards values (0 = hardware concurrency, K) still work
#   * the retired batch thread knobs (wfq batch --threads N, wfqd
#     --batch-threads N) are accepted, ignored, and print a note
#   * wfq reads a store with no records as the empty log, whatever the
#     pattern (a required-activity set or none): no match (exit 1), not
#     an I/O error (exit 3)
#
# Usage: tests/cli_flags_test.sh path/to/wfq path/to/wfqd
set -eu

wfq=${1:?usage: cli_flags_test.sh path/to/wfq path/to/wfqd}
wfqd=${2:?usage: cli_flags_test.sh path/to/wfq path/to/wfqd}
tmp=$(mktemp -d)
pid=
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "cli_flags_test: FAIL: $*" >&2
  cat "$tmp/stderr" >&2 2>/dev/null || true
  exit 1
}

# expect_exit CODE CMD... : runs CMD (10 s cap) and checks its exit code.
expect_exit() {
  want=$1
  shift
  set +e
  timeout 10 "$@" >"$tmp/stdout" 2>"$tmp/stderr"
  got=$?
  set -e
  [ "$got" -eq "$want" ] || fail "exit $got (want $want): $*"
}

"$wfq" gen clinic 20 1 "$tmp/log.jsonl" >/dev/null

for bad in -1 abc 4x ""; do
  expect_exit 2 "$wfq" --shards "$bad" count "$tmp/log.jsonl" GetRefer
  grep -q -- "--shards" "$tmp/stderr" ||
    fail "wfq --shards '$bad': no usage error"
  expect_exit 2 "$wfqd" --log "$tmp/log.jsonl" --port 0 --shards "$bad"
  grep -q -- "--shards" "$tmp/stderr" ||
    fail "wfqd --shards '$bad': no usage error"
done

for good in 0 1 3; do
  expect_exit 0 "$wfq" --shards "$good" count "$tmp/log.jsonl" GetRefer
done

printf 'GetRefer -> SeeDoctor\nGetRefer\n' >"$tmp/queries.txt"
expect_exit 0 "$wfq" --shards 2 batch "$tmp/log.jsonl" "$tmp/queries.txt" \
  --threads 4 --compare
grep -q "note: --threads is ignored" "$tmp/stderr" ||
  fail "wfq: no --threads note"
grep -q "on 2 shard(s)" "$tmp/stdout" ||
  fail "wfq batch: shard count not reported"
grep -q "results identical" "$tmp/stdout" || fail "wfq batch --compare differs"

"$wfqd" --log "$tmp/log.jsonl" --port 0 --shards 1 --batch-threads 4 \
  >"$tmp/stdout" 2>"$tmp/stderr" &
pid=$!
i=0
until grep -q "listening" "$tmp/stdout"; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || fail "wfqd --batch-threads did not start"
  sleep 0.1
done
grep -q "note: --batch-threads is ignored" "$tmp/stderr" ||
  fail "wfqd: no --batch-threads note"

kill "$pid"
wait "$pid" || true
pid=

# An empty store: wfqd creates it; no ingest ever lands.
"$wfqd" --store "$tmp/empty" --port 0 >"$tmp/stdout" 2>"$tmp/stderr" &
pid=$!
i=0
until grep -q "listening" "$tmp/stdout"; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || fail "wfqd --store did not start"
  sleep 0.1
done
kill "$pid"
wait "$pid" || true
pid=
for pattern in 'GetRefer | SeeDoctor' 'GetRefer'; do
  expect_exit 1 "$wfq" query "$tmp/empty/" "$pattern"
  grep -q "^0 incident(s)" "$tmp/stdout" ||
    fail "wfq query emptystore/ '$pattern': no empty answer"
done

echo "cli_flags_test: OK"
