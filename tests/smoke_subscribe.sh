#!/usr/bin/env sh
# Standing-query smoke: boots a real wfqd, registers a subscription over
# HTTP, ingests a matching instance, and asserts the delivery surfaces
# end to end:
#
#   * POST /subscribe answers 201 with an id and the replayed match count
#   * a chunked ?stream=1 attach delivers the new incident as one valid
#     NDJSON object with the envelope ({"type":"incident","seq":...})
#   * long-poll with ?after= acknowledges and releases the event
#   * DELETE /subscribe/{id} tears the subscription down (then 404)
#   * /stats exposes the subscriptions block
#
# Usage: tests/smoke_subscribe.sh path/to/wfqd   (needs curl + jq)
set -eu

wfqd=${1:?usage: smoke_subscribe.sh path/to/wfqd}
tmp=$(mktemp -d)
pid=
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "smoke_subscribe: FAIL: $*" >&2
  echo "--- wfqd stderr ---" >&2
  cat "$tmp/stderr" >&2 || true
  exit 1
}

"$wfqd" --store "$tmp/store" --port 0 --subscribe-heartbeat-ms 200 \
  >"$tmp/stdout" 2>"$tmp/stderr" &
pid=$!

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

# History first: one matching instance the registration must replay.
curl -fsS -X POST "$base/ingest" --data '{"events": [
  {"op": "begin"},
  {"op": "record", "wid": 1, "activity": "a"},
  {"op": "record", "wid": 1, "activity": "b"},
  {"op": "end", "wid": 1}
]}' >/dev/null || fail "/ingest (history)"

# Register. 201, an id, and matched == 1 (the replayed incident).
curl -fsS -o "$tmp/sub.json" -w '%{http_code}' -X POST "$base/subscribe" \
  --data '{"query": "a -> b"}' | grep -q '^201$' ||
  fail "/subscribe did not answer 201: $(cat "$tmp/sub.json")"
sub=$(jq -r '.id' "$tmp/sub.json")
[ -n "$sub" ] && [ "$sub" != "null" ] || fail "no subscription id"
[ "$(jq -r '.matched' "$tmp/sub.json")" = "1" ] ||
  fail "replay matched != 1: $(cat "$tmp/sub.json")"

# Attach a stream in the background, then ingest a second matching
# instance; the streamed chunk for it must be a valid enveloped incident.
curl -fsS -N --max-time 10 "$base/subscribe/$sub?stream=1" \
  >"$tmp/stream.ndjson" 2>/dev/null &
curl_pid=$!
sleep 0.3
curl -fsS -X POST "$base/ingest" --data '{"events": [
  {"op": "begin"},
  {"op": "record", "wid": 2, "activity": "a"},
  {"op": "record", "wid": 2, "activity": "b"},
  {"op": "end", "wid": 2}
]}' >/dev/null || fail "/ingest (live)"

# Wait for both incidents (seq 1 replay + seq 2 live) to land on disk.
i=0
while [ "$i" -lt 100 ]; do
  n=$(grep -c '"type":"incident"' "$tmp/stream.ndjson" 2>/dev/null || true)
  [ "$n" -ge 2 ] && break
  sleep 0.1
  i=$((i + 1))
done
kill "$curl_pid" 2>/dev/null || true
wait "$curl_pid" 2>/dev/null || true

grep '"type":"incident"' "$tmp/stream.ndjson" | head -n 2 |
  jq -e -s 'length == 2
    and (.[0].seq == 1) and (.[1].seq == 2)
    and all(.[]; .wid >= 1 and (.positions | length > 0))' >/dev/null ||
  fail "streamed incidents malformed: $(cat "$tmp/stream.ndjson")"

# The stream never acked, so a long-poll re-delivers both; ?after=
# releases them (exactly-once cursor).
curl -fsS "$base/subscribe/$sub" >"$tmp/poll.json" || fail "poll"
jq -e '.events | length == 2' "$tmp/poll.json" >/dev/null ||
  fail "poll did not re-deliver unacked events: $(cat "$tmp/poll.json")"
after=$(jq -r '.next_after' "$tmp/poll.json")
curl -fsS "$base/subscribe/$sub?after=$after" |
  jq -e '.events == [] and .pending == 0' >/dev/null ||
  fail "ack did not release the events"

# Observability: the subscriptions block counts this consumer.
curl -fsS "$base/stats" |
  jq -e '.subscriptions.active == 1 and .subscriptions.acked == 2' \
  >/dev/null || fail "/stats subscriptions block"

# Teardown: DELETE closes it; further attaches 404.
curl -fsS -X DELETE "$base/subscribe/$sub" |
  jq -e '.closed == true' >/dev/null || fail "DELETE /subscribe/$sub"
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/subscribe/$sub")
[ "$code" = "404" ] || fail "closed subscription still answers $code"

kill "$pid"
rc=0
wait "$pid" || rc=$?
pid=
[ "$rc" = "0" ] || fail "wfqd exit code $rc on SIGTERM"

echo "smoke_subscribe: OK (port $port)"
