#!/usr/bin/env sh
# Observability smoke: boots a real wfqd with a forced slow path
# (--slow-ms 0) and an access log, drives it over HTTP with curl, and
# asserts the request-observability surfaces end to end:
#
#   * X-Request-Id is echoed back verbatim
#   * the access log holds one valid JSON line per request, with the
#     request's id and a complete latency breakdown
#   * /debug/slow captured the query with its optimized plan
#   * /healthz readiness JSON, /version, /stats observability block
#
# Usage: tests/smoke_observability.sh path/to/wfqd   (needs curl + jq)
set -eu

wfqd=${1:?usage: smoke_observability.sh path/to/wfqd}
tmp=$(mktemp -d)
pid=
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "smoke_observability: FAIL: $*" >&2
  echo "--- wfqd stderr ---" >&2
  cat "$tmp/stderr" >&2 || true
  exit 1
}

"$wfqd" --store "$tmp/store" --port 0 --slow-ms 0 \
  --access-log "$tmp/access.jsonl" \
  >"$tmp/stdout" 2>"$tmp/stderr" &
pid=$!

# The daemon prints "wfqd listening on PORT (...)" once bound; --port 0
# means the OS picked it, so parse it out.
port=
i=0
while [ "$i" -lt 100 ]; do
  # The backgrounded redirect may not have created the file yet.
  port=$(sed -n 's/^wfqd listening on \([0-9][0-9]*\).*/\1/p' \
    "$tmp/stdout" 2>/dev/null || true)
  [ -n "$port" ] && break
  kill -0 "$pid" 2>/dev/null || fail "wfqd exited before listening"
  sleep 0.1
  i=$((i + 1))
done
[ -n "$port" ] || fail "never saw the listening line"
base="http://127.0.0.1:$port"

# Ingest one instance so the query below has something to find.
curl -fsS -X POST "$base/ingest" --data '{"events": [
  {"op": "begin"},
  {"op": "record", "wid": 1, "activity": "a"},
  {"op": "record", "wid": 1, "activity": "b"},
  {"op": "end", "wid": 1}
]}' >/dev/null || fail "/ingest"

# The probe request: caller-chosen id, must be echoed byte-for-byte.
echo_id=$(curl -fsS -D - -o "$tmp/query.json" \
  -H 'X-Request-Id: smoke-probe-1' \
  -X POST "$base/query" --data '{"query": "a -> b"}' |
  tr -d '\r' | sed -n 's/^x-request-id: //p')
[ "$echo_id" = "smoke-probe-1" ] ||
  fail "X-Request-Id not echoed (got '$echo_id')"
[ "$(jq -r '.total' "$tmp/query.json")" = "1" ] ||
  fail "query answer wrong: $(cat "$tmp/query.json")"

# The access log line for the probe: valid JSON, complete breakdown.
line=$(grep '"smoke-probe-1"' "$tmp/access.jsonl" | head -n 1)
[ -n "$line" ] || fail "no access-log line for the probe id"
echo "$line" | jq -e '
  .id == "smoke-probe-1" and .path == "/query" and .status == 200
  and .slow == true and (.breakdown | has("queue_us") and has("parse_us")
  and has("cache_us") and has("eval_us") and has("serialize_us")
  and has("wall_us") and .wall_us > 0)' >/dev/null ||
  fail "access-log line malformed: $line"

# Forced slow path (--slow-ms 0): the probe must sit in /debug/slow with
# its query text and optimized plan, and the entry must be valid JSON.
curl -fsS "$base/debug/slow" |
  jq -e '.slow | map(select(.id == "smoke-probe-1")) | length == 1
         and (.[0].query == "a -> b") and (.[0].plan | length > 0)' \
  >/dev/null || fail "/debug/slow misses the probe capture"

curl -fsS "$base/debug/requests" |
  jq -e '.requests | map(select(.id == "smoke-probe-1")) | length == 1' \
  >/dev/null || fail "/debug/requests misses the probe"

# Readiness + build info + aggregate counters.
curl -fsS -H 'Accept: application/json' "$base/healthz" |
  jq -e '.status == "ok" and .ready == true' >/dev/null ||
  fail "/healthz readiness JSON"
curl -fsS "$base/version" |
  jq -e '.server == "wfqd" and (.version | length > 0)' >/dev/null ||
  fail "/version"
curl -fsS "$base/stats" |
  jq -e '.observability.requests >= 2
         and .observability.access_log == true' >/dev/null ||
  fail "/stats observability block"
curl -fsS "$base/metrics" |
  grep -q '^wflog_server_endpoint_seconds_bucket{endpoint="/query"' ||
  fail "/metrics misses the per-endpoint histogram"

# SIGHUP reopens the access log (logrotate contract): move the live log
# aside, signal, and the next request must land in a fresh file at the
# original path while the rotated file keeps the old lines.
mv "$tmp/access.jsonl" "$tmp/access.jsonl.1"
kill -HUP "$pid"
curl -fsS -H 'X-Request-Id: smoke-after-rotate' "$base/healthz" >/dev/null ||
  fail "/healthz after SIGHUP"
i=0
while [ "$i" -lt 50 ]; do
  [ -f "$tmp/access.jsonl" ] &&
    grep -q '"smoke-after-rotate"' "$tmp/access.jsonl" && break
  sleep 0.1
  i=$((i + 1))
done
grep -q '"smoke-after-rotate"' "$tmp/access.jsonl" ||
  fail "post-rotate request missing from the reopened access log"
grep -q '"smoke-probe-1"' "$tmp/access.jsonl.1" ||
  fail "rotated access log lost the pre-rotate lines"
grep -q '"smoke-after-rotate"' "$tmp/access.jsonl.1" &&
  fail "post-rotate request leaked into the rotated file"

# Graceful TERM: drains and exits 0.
kill "$pid"
rc=0
wait "$pid" || rc=$?
pid=
[ "$rc" = "0" ] || fail "wfqd exit code $rc on SIGTERM"

echo "smoke_observability: OK (port $port)"
