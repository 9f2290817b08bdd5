// Standing-query differential suite (ISSUE: /subscribe tentpole).
//
// The contract under test is "streamed == batch": the union of a
// subscription's replayed history and its incrementally delivered events
// must equal — byte for byte, incident for incident — what a batch /query
// of the same text reports against the final snapshot. The suite drives
// that equivalence across long-poll acks, chunked streams, where clauses,
// client disconnects, unsubscription, slow-consumer overflow, and the
// incremental cache repair that keeps cached /query entries fresh across
// /ingest.
//
// Registered under the `subscribe` ctest label (run_ci.sh runs it plain
// and under ASan/UBSan + TSan).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/monitor.h"
#include "log/builder.h"
#include "server/client.h"
#include "server/handlers.h"
#include "server/json.h"
#include "server/server.h"
#include "test_util.h"

namespace wflog {
namespace {

using namespace std::chrono_literals;

// ----- fixture ------------------------------------------------------------

/// A QueryService + HttpServer on an ephemeral port (server_test.cpp's
/// TestServer, minus the observer plumbing this suite doesn't use).
struct TestServer {
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::HttpServer> http;

  explicit TestServer(std::optional<Log> log,
                      server::ServiceOptions svc = {},
                      server::ServerOptions opts = {}) {
    opts.port = 0;
    service = std::make_unique<server::QueryService>(
        std::move(log), std::move(svc), opts.drain_cancel, std::nullopt);
    server::Router router;
    service->bind(router);
    http = std::make_unique<server::HttpServer>(std::move(router),
                                                std::move(opts));
    service->attach_server(http.get());
    http->start();
  }

  ~TestServer() {
    if (http != nullptr) http->shutdown();
  }

  server::HttpClient client() const {
    return server::HttpClient("127.0.0.1", http->port());
  }
};

Log small_log() { return testing::make_log("a b c ; c b a ; a c b"); }

// ----- helpers ------------------------------------------------------------

/// POST /ingest of one fresh instance running `activities` in order.
/// Returns the assigned wid.
std::int64_t ingest_instance(server::HttpClient& c,
                             const std::vector<std::string>& activities,
                             bool end = true) {
  std::string body = R"({"events": [{"op": "begin"})";
  const server::ClientResponse begin_probe =
      c.post("/ingest", body + "]}");
  EXPECT_EQ(begin_probe.status, 200) << begin_probe.body;
  const server::JsonValue v = server::parse_json(begin_probe.body);
  const auto& wids = v.find("wids")->as_array();
  EXPECT_EQ(wids.size(), 1u);
  const std::int64_t wid = wids[0].as_int();

  std::string rest = R"({"events": [)";
  bool first = true;
  for (const std::string& a : activities) {
    if (!first) rest += ',';
    first = false;
    rest += R"({"op": "record", "wid": )" + std::to_string(wid) +
            R"(, "activity": ")" + a + "\"}";
  }
  if (end) {
    if (!first) rest += ',';
    rest += R"({"op": "end", "wid": )" + std::to_string(wid) + "}";
  }
  rest += "]}";
  const server::ClientResponse r = c.post("/ingest", rest);
  EXPECT_EQ(r.status, 200) << r.body;
  return wid;
}

/// Canonical incident fragment — the exact bytes render_sub_event emits
/// and the /subscribe delivery paths forward.
std::string fragment(std::int64_t wid,
                     const std::vector<std::int64_t>& positions) {
  std::string s = "\"wid\":" + std::to_string(wid) + ",\"positions\":[";
  bool first = true;
  for (const std::int64_t p : positions) {
    if (!first) s += ',';
    first = false;
    s += std::to_string(p);
  }
  s += ']';
  return s;
}

/// Re-renders one parsed subscribe event ({"seq":N,"wid":W,...}) back to
/// its canonical fragment.
std::string fragment_of_event(const server::JsonValue& e) {
  std::vector<std::int64_t> positions;
  for (const server::JsonValue& p : e.find("positions")->as_array()) {
    positions.push_back(p.as_int());
  }
  return fragment(e.find("wid")->as_int(), positions);
}

/// Every incident a batch /query reports, as canonical fragments — the
/// multiset a subscription's full delivery history must equal.
std::multiset<std::string> batch_fragments(server::HttpClient& c,
                                           const std::string& query) {
  const server::ClientResponse r =
      c.post("/query", R"({"query": ")" + query + R"("})");
  EXPECT_EQ(r.status, 200) << r.body;
  const server::JsonValue v = server::parse_json(r.body);
  EXPECT_TRUE(v.find("complete")->as_bool()) << r.body;
  std::multiset<std::string> out;
  for (const server::JsonValue& g : v.find("incidents")->as_array()) {
    const std::int64_t wid = g.find("wid")->as_int();
    for (const server::JsonValue& o : g.find("incidents")->as_array()) {
      std::vector<std::int64_t> positions;
      for (const server::JsonValue& p : o.as_array()) {
        positions.push_back(p.as_int());
      }
      out.insert(fragment(wid, positions));
    }
  }
  return out;
}

/// POST /subscribe; returns {id, matched}.
std::pair<std::string, std::int64_t> subscribe(server::HttpClient& c,
                                               const std::string& query) {
  const server::ClientResponse r =
      c.post("/subscribe", R"({"query": ")" + query + R"("})");
  EXPECT_EQ(r.status, 201) << r.body;
  const server::JsonValue v = server::parse_json(r.body);
  return {v.find("id")->as_string(), v.find("matched")->as_int()};
}

struct Drained {
  std::multiset<std::string> fragments;
  std::vector<std::string> ordered;  // fragments in delivery order
  std::vector<std::uint64_t> seqs;   // delivery order
  std::uint64_t next_after = 0;
};

/// Long-polls with acks until the pending queue is empty, accumulating
/// every event exactly once (the consumer half of the delivery contract).
Drained drain_all(server::HttpClient& c, const std::string& id,
                  std::uint64_t after = 0) {
  Drained d;
  d.next_after = after;
  for (;;) {
    const server::ClientResponse r = c.get(
        "/subscribe/" + id + "?after=" + std::to_string(d.next_after));
    EXPECT_EQ(r.status, 200) << r.body;
    const server::JsonValue v = server::parse_json(r.body);
    for (const server::JsonValue& e : v.find("events")->as_array()) {
      d.fragments.insert(fragment_of_event(e));
      d.ordered.push_back(fragment_of_event(e));
      d.seqs.push_back(static_cast<std::uint64_t>(e.find("seq")->as_int()));
    }
    d.next_after =
        static_cast<std::uint64_t>(v.find("next_after")->as_int());
    if (v.find("pending")->as_int() == 0 &&
        v.find("events")->as_array().empty()) {
      return d;
    }
  }
}

server::JsonValue stats_subscriptions(server::HttpClient& c) {
  const server::ClientResponse r = c.get("/stats");
  EXPECT_EQ(r.status, 200);
  const server::JsonValue v = server::parse_json(r.body);
  const server::JsonValue* s = v.find("subscriptions");
  EXPECT_NE(s, nullptr);
  return *s;
}

// ----- registration & replay ----------------------------------------------

TEST(SubscribeTest, RegistrationReplaysHistory) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  const auto [id, matched] = subscribe(c, "a -> b");

  // "matched" equals what batch /query reports right now, and the queued
  // events are those exact incidents.
  const std::multiset<std::string> expect = batch_fragments(c, "a -> b");
  EXPECT_EQ(static_cast<std::size_t>(matched), expect.size());
  const Drained d = drain_all(c, id);
  EXPECT_EQ(d.fragments, expect);

  // Replay seqs start at 1 and are dense.
  ASSERT_EQ(d.seqs.size(), expect.size());
  for (std::size_t i = 0; i < d.seqs.size(); ++i) {
    EXPECT_EQ(d.seqs[i], i + 1);
  }

  // History is replayed in log order — by the record that completed each
  // incident — not in instance order: here wid 2 completes an incident
  // before wid 1 does.
  LogBuilder b;
  const Wid w1 = b.begin_instance();
  const Wid w2 = b.begin_instance();
  b.append(w2, "a");
  b.append(w1, "a");
  b.append(w2, "b");  // completes w2 [2,3]
  b.append(w1, "b");  // completes w1 [2,3]
  b.append(w2, "b");  // completes w2 [2,4]
  b.end_instance(w1);
  b.end_instance(w2);
  TestServer interleaved(b.build());
  server::HttpClient ci = interleaved.client();
  const auto [iid, imatched] = subscribe(ci, "a -> b");
  EXPECT_EQ(imatched, 3);
  EXPECT_EQ(drain_all(ci, iid).ordered,
            (std::vector<std::string>{fragment(2, {2, 3}), fragment(1, {2, 3}),
                                      fragment(2, {2, 4})}));
}

TEST(SubscribeTest, RejectsBadRequests) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  EXPECT_EQ(c.post("/subscribe", "{not json").status, 400);
  EXPECT_EQ(c.post("/subscribe", R"({"nope": 1})").status, 400);
  EXPECT_EQ(c.post("/subscribe", R"({"query": "((broken"})").status, 400);
  EXPECT_EQ(c.get("/subscribe/sub-999").status, 404);
  EXPECT_EQ(c.get("/subscribe/").status, 404);
  const auto [id, matched] = subscribe(c, "a");
  EXPECT_EQ(c.get("/subscribe/" + id + "?after=junk").status, 400);
  EXPECT_EQ(c.get("/subscribe/" + id + "?wait_ms=-1").status, 400);
}

TEST(SubscribeTest, CapacityRefusedWith503) {
  server::ServiceOptions svc;
  svc.subscribe.max_subscriptions = 1;
  TestServer ts(small_log(), svc);
  server::HttpClient c = ts.client();
  subscribe(c, "a");
  const server::ClientResponse r =
      c.post("/subscribe", R"({"query": "b"})");
  EXPECT_EQ(r.status, 503) << r.body;
}

// ----- incremental delivery -----------------------------------------------

TEST(SubscribeTest, IngestDeliversOnlyNewIncidents) {
  TestServer ts(std::nullopt);
  server::HttpClient c = ts.client();
  ingest_instance(c, {"a", "b"});
  const auto [id, matched] = subscribe(c, "a -> b");
  EXPECT_EQ(matched, 1);  // history
  const Drained history = drain_all(c, id);

  // New instance: exactly its incident arrives — no re-delivery of history.
  const std::int64_t w2 = ingest_instance(c, {"a", "x", "b"});
  const Drained fresh = drain_all(c, id, history.next_after);
  ASSERT_EQ(fresh.fragments.size(), 1u);
  EXPECT_NE(fresh.fragments.begin()->find("\"wid\":" + std::to_string(w2)),
            std::string::npos);

  // Grand total equals batch.
  std::multiset<std::string> all = history.fragments;
  all.insert(fresh.fragments.begin(), fresh.fragments.end());
  EXPECT_EQ(all, batch_fragments(c, "a -> b"));
}

TEST(SubscribeTest, UnackedEventsAreRedelivered) {
  TestServer ts(std::nullopt);
  server::HttpClient c = ts.client();
  const auto [id, matched] = subscribe(c, "a");
  ingest_instance(c, {"a"});
  ingest_instance(c, {"a"});

  // Two polls without an ack see the SAME events with the SAME seqs —
  // nothing is released until ?after= says so.
  const server::ClientResponse p1 = c.get("/subscribe/" + id);
  const server::ClientResponse p2 = c.get("/subscribe/" + id);
  ASSERT_EQ(p1.status, 200);
  const server::JsonValue v1 = server::parse_json(p1.body);
  const server::JsonValue v2 = server::parse_json(p2.body);
  ASSERT_EQ(v1.find("events")->as_array().size(), 2u);
  EXPECT_EQ(v1.find("events")->dump(), v2.find("events")->dump());

  // Acking releases them; a fresh cursor-bearing poll is empty.
  const std::string cursor =
      std::to_string(v1.find("next_after")->as_int());
  const server::ClientResponse p3 =
      c.get("/subscribe/" + id + "?after=" + cursor);
  const server::JsonValue v3 = server::parse_json(p3.body);
  EXPECT_TRUE(v3.find("events")->as_array().empty());
  EXPECT_EQ(v3.find("pending")->as_int(), 0);

  const server::JsonValue s = stats_subscriptions(c);
  EXPECT_EQ(s.find("acked")->as_int(), 2);
}

TEST(SubscribeTest, WhereClauseFiltersDeliveries) {
  const std::string q = "x:a -> y:b where x.out.k = y.in.k";
  TestServer ts(std::nullopt);
  server::HttpClient c = ts.client();
  const auto [id, matched] = subscribe(c, q);
  EXPECT_EQ(matched, 0);

  // One joining instance, one non-joining: the where clause must gate
  // streamed delivery exactly as it gates batch evaluation.
  ASSERT_EQ(c.post("/ingest", R"({"events": [
    {"op": "begin"},
    {"op": "record", "wid": 1, "activity": "a", "out": {"k": 7}},
    {"op": "record", "wid": 1, "activity": "b", "in": {"k": 7}},
    {"op": "end", "wid": 1},
    {"op": "begin"},
    {"op": "record", "wid": 2, "activity": "a", "out": {"k": 7}},
    {"op": "record", "wid": 2, "activity": "b", "in": {"k": 9}},
    {"op": "end", "wid": 2}
  ]})").status, 200);

  const Drained d = drain_all(c, id);
  EXPECT_EQ(d.fragments, batch_fragments(c, q));
  ASSERT_EQ(d.fragments.size(), 1u);
  EXPECT_NE(d.fragments.begin()->find("\"wid\":1"), std::string::npos);
}

// One scripted /ingest event: op "begin" | "record" | "end". `k_in` /
// `k_out` (when >= 0) set attribute k of the record's input / output map.
struct ScriptEvent {
  ScriptEvent(std::string op_, Wid wid_, std::string activity_ = {},
              std::int64_t k_in_ = -1, std::int64_t k_out_ = -1)
      : op(std::move(op_)),
        wid(wid_),
        activity(std::move(activity_)),
        k_in(k_in_),
        k_out(k_out_) {}

  std::string op;
  Wid wid;
  std::string activity;
  std::int64_t k_in;
  std::int64_t k_out;
};

std::string ingest_body(const std::vector<ScriptEvent>& events) {
  std::string body = R"({"events": [)";
  bool first = true;
  for (const ScriptEvent& e : events) {
    if (!first) body += ',';
    first = false;
    body += R"({"op": ")" + e.op + "\"";
    if (e.op != "begin") body += R"(, "wid": )" + std::to_string(e.wid);
    if (e.op == "record") {
      body += R"(, "activity": ")" + e.activity + "\"";
      if (e.k_in >= 0) {
        body += R"(, "in": {"k": )" + std::to_string(e.k_in) + "}";
      }
      if (e.k_out >= 0) {
        body += R"(, "out": {"k": )" + std::to_string(e.k_out) + "}";
      }
    }
    body += '}';
  }
  return body + "]}";
}

/// Feeds the same events to an in-process LogMonitor: the record-at-a-time
/// oracle whose emission order is the delivery order a subscription owes.
void feed(LogMonitor& m, const std::vector<ScriptEvent>& events) {
  for (const ScriptEvent& e : events) {
    if (e.op == "begin") {
      ASSERT_EQ(m.begin_instance(), e.wid);
    } else if (e.op == "end") {
      m.end_instance(e.wid);
    } else {
      NamedAttrs in;
      NamedAttrs out;
      if (e.k_in >= 0) in.emplace_back("k", Value(e.k_in));
      if (e.k_out >= 0) out.emplace_back("k", Value(e.k_out));
      m.record(e.wid, e.activity, in, out);
    }
  }
}

// The headline differential: many interleaved ingests, consumed through
// the ack cursor, must reproduce the batch result EXACTLY, and deliver it
// in the order a record-at-a-time feed completes the incidents — across
// shard counts, both negation semantics, where clauses, instances left
// open over several requests and several events of one instance in one
// request.
TEST(SubscribeTest, DifferentialStreamedEqualsBatch) {
  const std::vector<std::string> queries = {
      "a -> b", "!a -> b", "a . !c", "(a | c) & b", "b -> END",
      "x:a -> y:b where x.out.k = y.in.k"};
  // Whole instances, one request to begin and one to run each.
  const std::vector<std::vector<std::string>> instances = {
      {"a", "b"},
      {"b", "b"},            // no "a -> b" match
      {"a", "x", "b", "b"},  // two incidents
      {"c"},                 // no "a -> b" match
      {"a", "a", "b"},       // three incidents
  };
  // Then interleaved requests: wids 7.. stay open across requests, and
  // one request carries several events of one instance.
  const std::vector<std::vector<ScriptEvent>> interleaved = {
      {{"begin", 7},
       {"record", 7, "a", -1, 7},
       {"begin", 8},
       {"record", 8, "b"},
       {"record", 7, "b", 7}},
      {{"record", 8, "a", -1, 1},
       {"record", 7, "a"},
       {"begin", 9},
       {"record", 9, "c"}},
      {{"record", 8, "b", 1},
       {"end", 7},
       {"record", 9, "a", -1, 2},
       {"record", 9, "b", 3}},
      {{"begin", 10},
       {"record", 10, "a"},
       {"record", 10, "c"},
       {"record", 10, "b"},
       {"end", 10},
       {"record", 8, "c"}},
      {{"record", 9, "b", 2}, {"end", 9}, {"end", 8}},
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const bool sentinels : {true, false}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " negation_matches_sentinels=" + std::to_string(sentinels));
      server::ServiceOptions svc;
      svc.engine.shards = shards;
      svc.engine.eval.negation_matches_sentinels = sentinels;
      TestServer ts(std::nullopt, svc);
      server::HttpClient c = ts.client();
      MonitorOptions mo;
      mo.negation_matches_sentinels = sentinels;
      LogMonitor oracle(mo);
      std::vector<LogMonitor::QueryId> oracle_ids;
      for (const std::string& q : queries) {
        oracle_ids.push_back(
            oracle.add_query(Query::parse(q).pattern, nullptr));
      }

      // Pre-subscription history.
      const std::int64_t w1 = ingest_instance(c, {"a", "b", "a"});
      feed(oracle, {{"begin", 1}, {"record", 1, "a"}, {"record", 1, "b"},
                    {"record", 1, "a"}, {"end", 1}});
      ASSERT_EQ(w1, 1);

      std::vector<std::string> ids;
      for (const std::string& q : queries) ids.push_back(subscribe(c, q).first);
      std::vector<Drained> streamed(queries.size());
      std::vector<std::uint64_t> cursor(queries.size(), 0);
      const auto drain_every = [&] {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const Drained d = drain_all(c, ids[i], cursor[i]);
          Drained& acc = streamed[i];
          acc.fragments.insert(d.fragments.begin(), d.fragments.end());
          acc.ordered.insert(acc.ordered.end(), d.ordered.begin(),
                             d.ordered.end());
          acc.seqs.insert(acc.seqs.end(), d.seqs.begin(), d.seqs.end());
          cursor[i] = d.next_after;
        }
      };
      drain_every();

      Wid next = 2;
      for (const auto& acts : instances) {
        ingest_instance(c, acts);
        std::vector<ScriptEvent> evs = {{"begin", next}};
        for (const std::string& a : acts) evs.push_back({"record", next, a});
        evs.push_back({"end", next});
        feed(oracle, evs);
        ++next;
        drain_every();
      }
      for (const auto& request : interleaved) {
        const server::ClientResponse r =
            c.post("/ingest", ingest_body(request));
        ASSERT_EQ(r.status, 200) << r.body;
        feed(oracle, request);
        drain_every();
      }

      for (std::size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE(queries[i]);
        const std::multiset<std::string> batch = batch_fragments(c, queries[i]);
        // Byte-identical multiset equality against the final batch
        // snapshot.
        EXPECT_EQ(streamed[i].fragments, batch);
        // Delivery order: the oracle's emission order, restricted to what
        // the where clause (which the monitor does not evaluate) keeps.
        std::vector<std::string> expect_order;
        for (const LogMonitor::Match& m : oracle.matches()) {
          if (m.query != oracle_ids[i]) continue;
          std::vector<std::int64_t> positions(m.incident.positions().begin(),
                                              m.incident.positions().end());
          std::string f = fragment(static_cast<std::int64_t>(m.incident.wid()),
                                   positions);
          if (batch.contains(f)) expect_order.push_back(std::move(f));
        }
        EXPECT_EQ(streamed[i].ordered, expect_order);
        // Exactly-once: seqs are dense 1..N with no gap or repeat.
        ASSERT_EQ(streamed[i].seqs.size(), streamed[i].fragments.size());
        for (std::size_t j = 0; j < streamed[i].seqs.size(); ++j) {
          EXPECT_EQ(streamed[i].seqs[j], j + 1);
        }
      }
      // The where-less queries: the oracle finds exactly the batch set.
      for (std::size_t i = 0; i + 1 < queries.size(); ++i) {
        EXPECT_EQ(oracle.total_matches(oracle_ids[i]),
                  streamed[i].fragments.size())
            << queries[i];
      }
    }
  }
}

// ----- lifecycle ----------------------------------------------------------

TEST(SubscribeTest, UnsubscribeReleasesEverything) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  const auto [id, matched] = subscribe(c, "a");
  EXPECT_EQ(stats_subscriptions(c).find("active")->as_int(), 1);

  const server::ClientResponse del =
      c.request("DELETE", "/subscribe/" + id, "", "application/json");
  ASSERT_EQ(del.status, 200) << del.body;
  EXPECT_TRUE(server::parse_json(del.body).find("closed")->as_bool());

  // A closed subscription answers its terminal state once, then 404s.
  const server::ClientResponse after = c.get("/subscribe/" + id);
  if (after.status == 200) {
    const server::JsonValue v = server::parse_json(after.body);
    EXPECT_TRUE(v.find("closed")->as_bool());
    EXPECT_EQ(v.find("reason")->as_string(), "unsubscribed");
  } else {
    EXPECT_EQ(after.status, 404);
  }
  EXPECT_EQ(stats_subscriptions(c).find("active")->as_int(), 0);
  EXPECT_EQ(
      c.request("DELETE", "/subscribe/" + id, "", "application/json").status,
      404);
}

TEST(SubscribeTest, SlowConsumerIsDroppedAtPendingCap) {
  server::ServiceOptions svc;
  svc.subscribe.pending_cap = 2;
  TestServer ts(std::nullopt, svc);
  server::HttpClient c = ts.client();
  const auto [id, matched] = subscribe(c, "a");

  // Three matches, zero acks: the third breaches the cap and the
  // subscription is dropped rather than growing without bound.
  ingest_instance(c, {"a", "a", "a"});

  const server::ClientResponse r = c.get("/subscribe/" + id);
  if (r.status == 200) {
    const server::JsonValue v = server::parse_json(r.body);
    EXPECT_TRUE(v.find("closed")->as_bool()) << r.body;
    EXPECT_EQ(v.find("reason")->as_string(), "overflow");
  } else {
    EXPECT_EQ(r.status, 404);
  }
  const server::JsonValue s = stats_subscriptions(c);
  EXPECT_EQ(s.find("overflow_dropped")->as_int(), 1);
  EXPECT_EQ(s.find("active")->as_int(), 0);

  // The monitor query was released with it: new ingests don't accumulate
  // matches for a dead consumer, and the server keeps serving.
  ingest_instance(c, {"a"});
  EXPECT_EQ(c.post("/query", R"({"query": "a"})").status, 200);
}

// ----- chunked streams ----------------------------------------------------

TEST(SubscribeTest, StreamDeliversEnvelopedEvents) {
  TestServer ts(std::nullopt);
  server::HttpClient c = ts.client();
  ingest_instance(c, {"a"});
  const auto [id, matched] = subscribe(c, "a");
  ASSERT_EQ(matched, 1);

  // The replayed event arrives as one NDJSON chunk with the envelope;
  // returning false after it closes the stream from the client side.
  std::vector<std::string> chunks;
  server::HttpClient sc = ts.client();
  const server::ClientResponse head =
      // A fast heartbeat so the server notices the disconnect on its next
      // write promptly (a dead peer is only visible when writing to it).
      sc.stream("GET", "/subscribe/" + id + "?stream=1&heartbeat_ms=100", "",
                [&](std::string_view chunk) {
                  chunks.emplace_back(chunk);
                  return false;  // disconnect after the first chunk
                });
  EXPECT_EQ(head.status, 200);
  EXPECT_NE(head.header("content-type"), nullptr);
  EXPECT_EQ(*head.header("content-type"), "application/x-ndjson");
  ASSERT_EQ(chunks.size(), 1u);
  const server::JsonValue e = server::parse_json(chunks[0]);
  EXPECT_EQ(e.find("type")->as_string(), "incident");
  EXPECT_EQ(e.find("seq")->as_int(), 1);
  EXPECT_NE(e.find("positions"), nullptr);

  // The server survived the mid-stream disconnect; the subscription is
  // intact and the event — never acked — is re-deliverable.
  const auto wait_streams_zero = [&] {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (stats_subscriptions(c).find("streams")->as_int() == 0) return true;
      std::this_thread::sleep_for(5ms);
    }
    return false;
  };
  EXPECT_TRUE(wait_streams_zero());
  const Drained d = drain_all(c, id);
  EXPECT_EQ(d.fragments.size(), 1u);
}

TEST(SubscribeTest, StreamHeartbeatsWhenIdle) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  const auto [id, matched] = subscribe(c, "zzz");
  ASSERT_EQ(matched, 0);

  // An idle stream must emit keep-alive chunks at the requested cadence
  // (clamped to >= 100ms) so proxies and clients see a live connection.
  std::vector<std::string> chunks;
  server::HttpClient sc = ts.client();
  sc.stream("GET", "/subscribe/" + id + "?stream=1&heartbeat_ms=1", "",
            [&](std::string_view chunk) {
              chunks.emplace_back(chunk);
              return chunks.size() < 2;
            });
  ASSERT_GE(chunks.size(), 2u);
  for (const std::string& chunk : chunks) {
    EXPECT_EQ(server::parse_json(chunk).find("type")->as_string(),
              "heartbeat");
  }
}

TEST(SubscribeTest, StreamCapAnswersBusy) {
  server::ServiceOptions svc;
  svc.subscribe.max_streams = 0;
  TestServer ts(small_log(), svc);
  server::HttpClient c = ts.client();
  const auto [id, matched] = subscribe(c, "a");

  std::vector<std::string> chunks;
  server::HttpClient sc = ts.client();
  sc.stream("GET", "/subscribe/" + id + "?stream=1", "",
            [&](std::string_view chunk) {
              chunks.emplace_back(chunk);
              return true;
            });
  ASSERT_EQ(chunks.size(), 1u);
  const server::JsonValue e = server::parse_json(chunks[0]);
  EXPECT_EQ(e.find("type")->as_string(), "end");
  EXPECT_EQ(e.find("reason")->as_string(), "busy");

  // Long-poll remains available — it is the scalable consumption path.
  EXPECT_EQ(c.get("/subscribe/" + id).status, 200);
}

TEST(SubscribeTest, StreamSeesLiveIngestAcrossThreads) {
  TestServer ts(std::nullopt);
  server::HttpClient c = ts.client();
  const auto [id, matched] = subscribe(c, "a -> b");

  std::vector<std::string> incident_chunks;
  std::thread consumer([&] {
    server::HttpClient sc = ts.client();
    sc.stream("GET", "/subscribe/" + id + "?stream=1&heartbeat_ms=100", "",
              [&](std::string_view chunk) {
                const server::JsonValue e = server::parse_json(
                    std::string(chunk));
                if (e.find("type")->as_string() != "incident") return true;
                incident_chunks.emplace_back(chunk);
                return incident_chunks.size() < 2;
              });
  });
  ingest_instance(c, {"a", "b"});
  ingest_instance(c, {"a", "q", "b"});
  consumer.join();

  ASSERT_EQ(incident_chunks.size(), 2u);
  std::multiset<std::string> streamed;
  std::uint64_t prev_seq = 0;
  for (const std::string& chunk : incident_chunks) {
    const server::JsonValue e = server::parse_json(chunk);
    const auto seq = static_cast<std::uint64_t>(e.find("seq")->as_int());
    EXPECT_GT(seq, prev_seq);  // in-order, no repeats
    prev_seq = seq;
    streamed.insert(fragment_of_event(e));
  }
  EXPECT_EQ(streamed, batch_fragments(c, "a -> b"));
}

// ----- streamed /query ----------------------------------------------------

TEST(SubscribeTest, StreamedQueryEqualsBatchQuery) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();

  // Batch, then the same query streamed: head/groups/tail chunks must
  // reassemble to the identical incident set.
  const std::multiset<std::string> expect = batch_fragments(c, "a -> b");

  std::vector<std::string> chunks;
  server::HttpClient sc = ts.client();
  const server::ClientResponse head = sc.stream(
      "POST", "/query", R"({"query": "a -> b", "stream": true})",
      [&](std::string_view chunk) {
        chunks.emplace_back(chunk);
        return true;
      });
  EXPECT_EQ(head.status, 200);
  ASSERT_GE(chunks.size(), 2u);  // head + tail at minimum

  const server::JsonValue h = server::parse_json(chunks.front());
  EXPECT_EQ(h.find("query")->as_string(), "a -> b");
  EXPECT_TRUE(h.find("complete")->as_bool());
  const server::JsonValue t = server::parse_json(chunks.back());
  EXPECT_EQ(static_cast<std::size_t>(t.find("rendered")->as_int()),
            expect.size());
  EXPECT_FALSE(t.find("render_truncated")->as_bool());

  std::multiset<std::string> streamed;
  for (std::size_t i = 1; i + 1 < chunks.size(); ++i) {
    const server::JsonValue g = server::parse_json(chunks[i]);
    const std::int64_t wid = g.find("wid")->as_int();
    for (const server::JsonValue& o : g.find("incidents")->as_array()) {
      std::vector<std::int64_t> positions;
      for (const server::JsonValue& p : o.as_array()) {
        positions.push_back(p.as_int());
      }
      streamed.insert(fragment(wid, positions));
    }
  }
  EXPECT_EQ(streamed, expect);
  EXPECT_EQ(static_cast<std::size_t>(h.find("total")->as_int()),
            expect.size());
}

TEST(SubscribeTest, StreamedQueryRejectsNonBoolStreamFlag) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  EXPECT_EQ(
      c.post("/query", R"({"query": "a", "stream": "yes"})").status, 400);
}

// ----- incremental cache repair -------------------------------------------

TEST(SubscribeTest, CacheRepairServesByteIdenticalHits) {
  // Server A: cache on, with a subscription driving incremental repair.
  server::ServiceOptions cached;
  cached.cache_bytes = 1 << 20;
  TestServer a(std::nullopt, cached);
  server::HttpClient ca = a.client();
  // Server B: cache off — every /query is a fresh evaluation, the oracle.
  TestServer b(std::nullopt);
  server::HttpClient cb = b.client();

  const std::string q = R"({"query": "a -> b"})";
  ingest_instance(ca, {"a", "b"});
  ingest_instance(cb, {"a", "b"});
  ASSERT_EQ(ca.post("/query", q).status, 200);  // populate the cache
  subscribe(ca, "a -> b");

  // The ingest repaired the cached entry in place: the next /query is a
  // HIT whose body is byte-identical to the oracle's fresh evaluation.
  const auto expect_repaired_hit = [&] {
    const server::ClientResponse hit = ca.post("/query", q);
    ASSERT_EQ(hit.status, 200) << hit.body;
    ASSERT_NE(hit.header("x-wfq-cache"), nullptr);
    EXPECT_EQ(*hit.header("x-wfq-cache"), "hit") << hit.body;
    const server::ClientResponse fresh = cb.post("/query", q);
    ASSERT_EQ(fresh.status, 200) << fresh.body;
    const server::JsonValue vh = server::parse_json(hit.body);
    const server::JsonValue vf = server::parse_json(fresh.body);
    EXPECT_EQ(vh.find("incidents")->dump(), vf.find("incidents")->dump());
    EXPECT_EQ(vh.find("total")->as_int(), vf.find("total")->as_int());
    EXPECT_EQ(vh.find("complete")->as_bool(), vf.find("complete")->as_bool());
  };
  for (const auto& acts : std::vector<std::vector<std::string>>{
           {"a", "x", "b"}, {"b"}, {"a", "b", "b"}}) {
    ingest_instance(ca, acts);
    ingest_instance(cb, acts);
    expect_repaired_hit();
  }
  // An instance that already has a cached group gains incidents in a
  // later request: its group is replaced, not kept.
  for (const std::string& request : {
           std::string(R"({"events": [{"op": "begin"},
             {"op": "record", "wid": 5, "activity": "a"},
             {"op": "record", "wid": 5, "activity": "b"}]})"),
           std::string(R"({"events": [
             {"op": "record", "wid": 5, "activity": "b"},
             {"op": "end", "wid": 5}]})")}) {
    ASSERT_EQ(ca.post("/ingest", request).status, 200);
    ASSERT_EQ(cb.post("/ingest", request).status, 200);
    expect_repaired_hit();
  }
  EXPECT_GE(stats_subscriptions(ca).find("cache_repairs")->as_int(), 5);
}

}  // namespace
}  // namespace wflog
