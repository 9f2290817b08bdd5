// wfqd's server stack (src/server/): JSON codec, HTTP parsing, bounded
// queue, routing — and real-socket integration tests driving a live
// HttpServer + QueryService through the blocking HttpClient:
// query/batch/ingest round-trips, error statuses (400/404/405/413),
// admission-control 503s under overload, and graceful drain.
//
// The integration tests bind 127.0.0.1:0 (ephemeral) so they are
// collision-free under parallel ctest.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/engine.h"
#include "log/builder.h"
#include "log/store.h"
#include "obs/telemetry.h"
#include "server/client.h"
#include "server/handlers.h"
#include "server/http.h"
#include "server/json.h"
#include "server/pool.h"
#include "server/server.h"
#include "test_util.h"
#include "workflow/workload.h"

namespace wflog {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ----- JSON codec ---------------------------------------------------------

TEST(JsonTest, ParsesScalarsArraysObjects) {
  const server::JsonValue v = server::parse_json(
      R"({"a": [1, 2.5, "x", true, null], "b": {"c": -3}})");
  ASSERT_TRUE(v.is_object());
  const server::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 5u);
  EXPECT_EQ(a->as_array()[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_double(), 2.5);
  EXPECT_EQ(a->as_array()[2].as_string(), "x");
  EXPECT_TRUE(a->as_array()[3].as_bool());
  EXPECT_TRUE(a->as_array()[4].is_null());
  EXPECT_EQ(v.find("b")->find("c")->as_int(), -3);
}

TEST(JsonTest, DumpParseRoundTripIsStable) {
  server::JsonValue v;
  v.set("text", "line1\nline2\t\"quoted\"");
  v.set("n", std::int64_t{-42});
  v.set("list", server::JsonArray{server::JsonValue(true),
                                  server::JsonValue(nullptr)});
  const std::string once = v.dump();
  const std::string twice = server::parse_json(once).dump();
  EXPECT_EQ(once, twice);
}

TEST(JsonTest, DecodesEscapesAndUnicode) {
  const server::JsonValue v =
      server::parse_json(R"({"s": "A\n\\ 😀"})");
  const std::string& s = v.find("s")->as_string();
  EXPECT_EQ(s.substr(0, 4), "A\n\\ ");
  EXPECT_EQ(s.size(), 8u);  // 4 ASCII + 4-byte UTF-8 emoji
}

TEST(JsonTest, RejectsTrailingGarbageAndBadSyntax) {
  EXPECT_THROW(server::parse_json("{} trailing"), ParseError);
  EXPECT_THROW(server::parse_json("{\"a\": }"), ParseError);
  EXPECT_THROW(server::parse_json("[1, 2"), ParseError);
  EXPECT_THROW(server::parse_json(""), ParseError);
}

// ----- HTTP request parsing -----------------------------------------------

server::ParseState feed(std::string& buf, server::HttpRequest& req,
                        const server::HttpLimits& limits = {}) {
  std::string error;
  return server::parse_request(buf, req, limits, error);
}

TEST(HttpParseTest, IncrementalThenComplete) {
  std::string buf = "POST /query?x=1 HTTP/1.1\r\ncontent-le";
  server::HttpRequest req;
  EXPECT_EQ(feed(buf, req), server::ParseState::kNeedMore);
  buf += "ngth: 4\r\nX-Custom: Val\r\n\r\nbo";
  EXPECT_EQ(feed(buf, req), server::ParseState::kNeedMore);
  buf += "dyNEXT";
  EXPECT_EQ(feed(buf, req), server::ParseState::kDone);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/query");  // query string stripped
  EXPECT_EQ(req.body, "body");
  EXPECT_EQ(req.header("x-custom"), "Val");  // names lowercased
  EXPECT_EQ(buf, "NEXT");  // pipelined bytes stay for the next request
}

TEST(HttpParseTest, BadRequestAndLimits) {
  server::HttpRequest req;
  std::string buf = "NOT-HTTP\r\n\r\n";
  EXPECT_EQ(feed(buf, req), server::ParseState::kBadRequest);

  server::HttpLimits small;
  small.max_body_bytes = 8;
  buf = "POST / HTTP/1.1\r\ncontent-length: 100\r\n\r\n";
  EXPECT_EQ(feed(buf, req, small), server::ParseState::kBodyTooLarge);

  small.max_header_bytes = 16;
  buf = "GET /a/very/long/target/path HTTP/1.1\r\nheader: value\r\n\r\n";
  EXPECT_EQ(feed(buf, req, small), server::ParseState::kHeaderTooLarge);
}

TEST(HttpParseTest, KeepAliveSemantics) {
  server::HttpRequest req;
  std::string buf = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(feed(buf, req), server::ParseState::kDone);
  EXPECT_TRUE(req.keep_alive());  // 1.1 default

  req = {};
  buf = "GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(feed(buf, req), server::ParseState::kDone);
  EXPECT_FALSE(req.keep_alive());

  req = {};
  buf = "GET / HTTP/1.0\r\n\r\n";
  ASSERT_EQ(feed(buf, req), server::ParseState::kDone);
  EXPECT_FALSE(req.keep_alive());  // 1.0 default
}

// ----- bounded queue ------------------------------------------------------

TEST(BoundedQueueTest, ShedsWhenFullDrainsWhenClosed) {
  server::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full -> caller sheds
  EXPECT_EQ(q.size(), 2u);

  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed
  // Workers drain what was admitted, then see nullopt.
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

// ----- router -------------------------------------------------------------

TEST(RouterTest, ExactMatch404And405) {
  server::Router router;
  router.add("GET", "/x",
             [](const server::HttpRequest&, server::RequestContext&) {
               return server::HttpResponse::text(200, "hit");
             });
  server::HttpRequest req;
  server::RequestContext ctx;
  req.method = "GET";
  req.target = "/x";
  EXPECT_EQ(router.dispatch(req, ctx).status, 200);
  req.method = "POST";
  EXPECT_EQ(router.dispatch(req, ctx).status, 405);
  req.target = "/nope";
  EXPECT_EQ(router.dispatch(req, ctx).status, 404);
}

// ----- live-server fixture ------------------------------------------------

/// A QueryService + HttpServer on an ephemeral port.
struct TestServer {
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::HttpServer> http;

  explicit TestServer(std::optional<Log> log,
                      server::ServiceOptions svc = {},
                      server::ServerOptions opts = {},
                      std::optional<LogStore> store = std::nullopt,
                      server::RequestObserver* observer = nullptr) {
    opts.port = 0;
    opts.observer = observer;
    service = std::make_unique<server::QueryService>(
        std::move(log), std::move(svc), opts.drain_cancel, std::move(store));
    server::Router router;
    service->bind(router);
    if (observer != nullptr) service->attach_observer(observer);
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

/// The /query incidents array rebuilt from an engine-side QueryResult, for
/// bit-identical comparisons against the server's JSON.
server::JsonValue incidents_json(const QueryResult& r) {
  server::JsonArray groups;
  for (const IncidentSet::Group& g : r.incidents.groups()) {
    server::JsonArray incidents;
    for (const Incident& o : g.incidents) {
      server::JsonArray positions;
      for (const IsLsn n : o.positions()) {
        positions.emplace_back(static_cast<std::int64_t>(n));
      }
      incidents.emplace_back(std::move(positions));
    }
    server::JsonValue group;
    group.set("wid", static_cast<std::int64_t>(g.wid));
    group.set("incidents", std::move(incidents));
    groups.emplace_back(std::move(group));
  }
  return server::JsonValue(std::move(groups));
}

TEST(ServerTest, HealthzAndStats) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  const server::ClientResponse health = c.get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const server::ClientResponse stats = c.get("/stats");
  ASSERT_EQ(stats.status, 200);
  const server::JsonValue v = server::parse_json(stats.body);
  EXPECT_EQ(v.find("records")->as_int(), 15);  // 9 + START/END sentinels
  EXPECT_EQ(v.find("instances")->as_int(), 3);
  EXPECT_TRUE(v.find("ingest_enabled")->as_bool());
  ASSERT_NE(v.find("server"), nullptr);
  EXPECT_GE(v.find("server")->find("accepted")->as_int(), 1);
}

TEST(ServerTest, QueryMatchesEngineBitIdentical) {
  const Log log = small_log();
  const QueryEngine engine(log);
  TestServer ts(small_log());
  server::HttpClient c = ts.client();

  for (const std::string text :
       {"a -> b", "a . c", "(a | b) -> c", "!b", "a & c"}) {
    const QueryResult expected = engine.run(text);
    const server::ClientResponse resp = c.post(
        "/query", server::JsonValue{server::JsonMembers{
                      {"query", server::JsonValue(text)},
                      {"limit", server::JsonValue(std::int64_t{100000})}}}
                      .dump());
    ASSERT_EQ(resp.status, 200) << text << ": " << resp.body;
    const server::JsonValue v = server::parse_json(resp.body);
    EXPECT_EQ(v.find("total")->as_int(),
              static_cast<std::int64_t>(expected.total()))
        << text;
    EXPECT_TRUE(v.find("complete")->as_bool()) << text;
    EXPECT_EQ(v.find("incidents")->dump(), incidents_json(expected).dump())
        << text;
  }
}

TEST(ServerTest, QueryWithWhereClauseMatchesEngine) {
  const auto build_log = [] {
    LogBuilder b;
    for (int i = 0; i < 4; ++i) {
      const Wid wid = b.begin_instance();
      b.append(wid, "a", {}, {{"k", Value(std::int64_t(i % 2))}});
      b.append(wid, "b", {{"k", Value(std::int64_t{1})}}, {});
      b.end_instance(wid);
    }
    return b.build();
  };
  const Log log = build_log();
  const QueryEngine engine(log);
  const std::string text = "x:a -> y:b where x.out.k = y.in.k";
  const QueryResult expected = engine.run(text);
  ASSERT_GT(expected.total(), 0u);
  ASSERT_LT(expected.total(), 4u);  // the where clause really filtered

  TestServer ts(build_log());
  server::HttpClient c = ts.client();
  const server::ClientResponse resp = c.post(
      "/query",
      server::JsonValue{
          server::JsonMembers{{"query", server::JsonValue(text)}}}
          .dump());
  ASSERT_EQ(resp.status, 200) << resp.body;
  const server::JsonValue v = server::parse_json(resp.body);
  EXPECT_EQ(v.find("total")->as_int(),
            static_cast<std::int64_t>(expected.total()));
  EXPECT_EQ(v.find("incidents")->dump(), incidents_json(expected).dump());
}

TEST(ServerTest, EightConcurrentClientsGetIdenticalAnswers) {
  TestServer ts(small_log());
  const std::string body =
      R"({"query": "a -> b", "limit": 100000})";
  // The answer fields must be bit-identical across clients; "timings" is
  // per-request wall clock and legitimately varies, so compare everything
  // but it.
  const auto answer_fields = [](const std::string& response_body) {
    const server::JsonValue v = server::parse_json(response_body);
    return v.find("incidents")->dump() + "|" +
           std::to_string(v.find("total")->as_int()) + "|" +
           (v.find("complete")->as_bool() ? "1" : "0");
  };
  const std::string reference = [&] {
    server::HttpClient c = ts.client();
    return answer_fields(c.post("/query", body).body);
  }();

  constexpr int kClients = 8;
  constexpr int kRequests = 5;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      server::HttpClient c = ts.client();
      for (int i = 0; i < kRequests; ++i) {
        try {
          const server::ClientResponse resp = c.post("/query", body);
          if (resp.status != 200 || answer_fields(resp.body) != reference) {
            mismatches.fetch_add(1);
          }
        } catch (const std::exception&) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServerTest, BatchSharesAndIsolatesErrors) {
  const Log log = small_log();
  const QueryEngine engine(log);
  TestServer ts(small_log());
  server::HttpClient c = ts.client();

  const server::ClientResponse resp = c.post(
      "/batch",
      R"({"queries": ["a -> b", "a -> b", "((broken"], "limit": 100000})");
  ASSERT_EQ(resp.status, 200) << resp.body;
  const server::JsonValue v = server::parse_json(resp.body);
  const server::JsonArray& results = v.find("results")->as_array();
  ASSERT_EQ(results.size(), 3u);

  // Slots 0 and 1 are the same query: identical answers, both matching a
  // standalone engine run.
  const QueryResult expected = engine.run("a -> b");
  for (int q : {0, 1}) {
    EXPECT_EQ(results[q].find("total")->as_int(),
              static_cast<std::int64_t>(expected.total()));
    EXPECT_EQ(results[q].find("incidents")->dump(),
              incidents_json(expected).dump());
  }
  // Slot 2 failed to parse; isolation means it carries an error, not a 4xx
  // for the whole batch.
  ASSERT_NE(results[2].find("error"), nullptr);

  const server::JsonValue* stats = v.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->find("queries")->as_int(), 2);
  EXPECT_GT(stats->find("distinct_slots")->as_int(), 0);
  // The duplicate query must share subplans: fewer distinct slots than
  // total pattern nodes.
  EXPECT_LT(stats->find("distinct_slots")->as_int(),
            stats->find("total_nodes")->as_int());
}

TEST(ServerTest, ErrorStatuses) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  EXPECT_EQ(c.post("/query", "{not json").status, 400);
  EXPECT_EQ(c.post("/query", R"({"nope": 1})").status, 400);
  EXPECT_EQ(c.post("/query", R"({"query": "((broken"})").status, 400);
  EXPECT_EQ(c.post("/batch", R"({"queries": []})").status, 400);
  EXPECT_EQ(c.get("/no-such-endpoint").status, 404);
  EXPECT_EQ(c.get("/query").status, 405);  // POST-only
  EXPECT_EQ(c.post("/healthz", "").status, 405);

  // Deliberately malformed wire bytes -> parse-level 400.
  server::HttpClient raw = ts.client();
  EXPECT_EQ(raw.raw("GARBAGE REQUEST\r\n\r\n").status, 400);
}

TEST(ServerTest, OversizedBodyGets413) {
  server::ServerOptions opts;
  opts.limits.max_body_bytes = 256;
  TestServer ts(small_log(), {}, std::move(opts));
  server::HttpClient c = ts.client();
  const std::string big(1024, 'x');
  const server::ClientResponse resp =
      c.post("/query", R"({"query": ")" + big + R"("})");
  EXPECT_EQ(resp.status, 413);
}

TEST(ServerTest, KeepAliveServesSequentialRequests) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.get("/healthz").status, 200);
    // HTTP/1.1 default keep-alive: the connection survives the response.
    EXPECT_TRUE(c.connected());
  }
}

TEST(ServerTest, TwoEphemeralServersGetDistinctPorts) {
  TestServer a(small_log());
  TestServer b(small_log());
  EXPECT_NE(a.http->port(), b.http->port());
  EXPECT_EQ(a.client().get("/healthz").status, 200);
  EXPECT_EQ(b.client().get("/healthz").status, 200);
}

/// Member names of a JSON object, in order.
std::vector<std::string> keys_of(const server::JsonValue& v) {
  std::vector<std::string> keys;
  for (const auto& [k, unused] : v.members()) keys.push_back(k);
  return keys;
}

/// The NDJSON chunks of one streamed request.
std::vector<std::string> stream_chunks(const TestServer& ts,
                                       const std::string& target,
                                       const std::string& body) {
  std::vector<std::string> chunks;
  server::HttpClient c = ts.client();
  const server::ClientResponse head =
      c.stream("POST", target, body, [&](std::string_view chunk) {
        chunks.emplace_back(chunk);
        return true;
      });
  EXPECT_EQ(head.status, 200) << head.body;
  return chunks;
}

TEST(ServerTest, EmptyLogStillAnswersAndValidates) {
  // An empty service answers through the same flow as a loaded one: each
  // response has exactly the shape of a zero-match answer, in both cache
  // modes, buffered and streamed.
  for (const std::size_t cache_bytes : {std::size_t{0}, std::size_t{1} << 20}) {
    SCOPED_TRACE("cache_bytes=" + std::to_string(cache_bytes));
    server::ServiceOptions svc;
    svc.cache_bytes = cache_bytes;
    TestServer empty(std::nullopt, svc);
    TestServer loaded(small_log(), svc);
    server::HttpClient ce = empty.client();
    server::HttpClient cl = loaded.client();

    const std::string query = R"({"query": "zzz"})";  // no match in either
    const server::ClientResponse eq = ce.post("/query", query);
    const server::ClientResponse lq = cl.post("/query", query);
    ASSERT_EQ(eq.status, 200) << eq.body;
    ASSERT_EQ(lq.status, 200) << lq.body;
    const server::JsonValue ev = server::parse_json(eq.body);
    EXPECT_EQ(ev.find("total")->as_int(), 0);
    EXPECT_EQ(keys_of(ev), keys_of(server::parse_json(lq.body)));
    EXPECT_EQ(eq.header("x-wfq-cache") != nullptr,
              lq.header("x-wfq-cache") != nullptr);

    const std::string streamed = R"({"query": "zzz", "stream": true})";
    const std::vector<std::string> es =
        stream_chunks(empty, "/query", streamed);
    const std::vector<std::string> ls =
        stream_chunks(loaded, "/query", streamed);
    ASSERT_EQ(es.size(), 2u);  // head + tail, no groups
    ASSERT_EQ(ls.size(), es.size());
    for (std::size_t i = 0; i < es.size(); ++i) {
      EXPECT_EQ(keys_of(server::parse_json(es[i])),
                keys_of(server::parse_json(ls[i])));
    }

    const std::string batch = R"({"queries": ["zzz", "((broken"]})";
    const server::ClientResponse eb = ce.post("/batch", batch);
    const server::ClientResponse lb = cl.post("/batch", batch);
    ASSERT_EQ(eb.status, 200) << eb.body;
    ASSERT_EQ(lb.status, 200) << lb.body;
    const server::JsonValue ebv = server::parse_json(eb.body);
    const server::JsonValue lbv = server::parse_json(lb.body);
    EXPECT_EQ(keys_of(ebv), keys_of(lbv));
    EXPECT_EQ(keys_of(*ebv.find("stats")), keys_of(*lbv.find("stats")));
    const server::JsonArray& er = ebv.find("results")->as_array();
    const server::JsonArray& lr = lbv.find("results")->as_array();
    ASSERT_EQ(er.size(), 2u);
    ASSERT_EQ(lr.size(), 2u);
    for (std::size_t i = 0; i < er.size(); ++i) {
      EXPECT_EQ(keys_of(er[i]), keys_of(lr[i]));
    }
    // Parse errors stay isolated in their slot, with the same message...
    ASSERT_NE(er[1].find("error"), nullptr);
    EXPECT_EQ(er[1].find("error")->as_string(),
              lr[1].find("error")->as_string());
    // ...and a bad /query text is still a 400, buffered or streamed.
    EXPECT_EQ(ce.post("/query", R"({"query": "((broken"})").status, 400);
    EXPECT_EQ(
        ce.post("/query", R"({"query": "((broken", "stream": true})").status,
        400);
  }
}

TEST(ServerTest, UncachedBatchStatsCountParseErrorSlots) {
  // With the cache off, "stats" describes one run_batch pass over every
  // slot — parse-error slots included in "queries" — and carries no
  // result_cache_* fields. The values are pinned from the server as it
  // was before the cache-off and cache-on /batch flows were merged.
  TestServer ts(small_log());  // ServiceOptions default: cache off
  server::HttpClient c = ts.client();
  const server::ClientResponse resp = c.post(
      "/batch", R"({"queries": ["a -> b", "b . c", "a -> b", "((broken"]})");
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(resp.header("x-wfq-cache"), nullptr);
  const server::JsonValue v = server::parse_json(resp.body);
  const server::JsonValue* stats = v.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(keys_of(*stats),
            (std::vector<std::string>{"queries", "total_nodes",
                                      "distinct_slots", "shared_nodes",
                                      "cache_hits", "cache_misses",
                                      "threads_used", "eval_us"}));
  EXPECT_EQ(stats->find("queries")->as_int(), 4);
  EXPECT_EQ(stats->find("total_nodes")->as_int(), 9);
  EXPECT_EQ(stats->find("distinct_slots")->as_int(), 5);
  EXPECT_EQ(stats->find("shared_nodes")->as_int(), 4);
  EXPECT_EQ(stats->find("cache_hits")->as_int(), 6);
  EXPECT_EQ(stats->find("cache_misses")->as_int(), 15);
  EXPECT_EQ(stats->find("threads_used")->as_int(), 1);
  ASSERT_NE(v.find("results")->as_array()[3].find("error"), nullptr);
}

TEST(ServerTest, IntegerFieldsRejectFractionsAndOutOfRange) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  // A truncating read made -0.5 and -0.9 "0" (no deadline / unlimited),
  // 0.7 "0", and 1e300 an out-of-range float-to-int cast.
  for (const char* body : {
           R"({"query": "a -> b", "deadline_ms": -0.5})",
           R"({"query": "a -> b", "limit": -0.9})",
           R"({"query": "a -> b", "max_incidents": 0.7})",
           R"({"query": "a -> b", "deadline_ms": 1e300})",
           R"({"query": "a -> b", "limit": 9.3e18})",
       }) {
    EXPECT_EQ(c.post("/query", body).status, 400) << body;
  }
  EXPECT_EQ(
      c.post("/batch", R"({"queries": ["a -> b"], "max_incidents": 2.5})")
          .status,
      400);
  EXPECT_EQ(
      c.post("/subscribe", R"({"query": "a -> b", "deadline_ms": 0.5})")
          .status,
      400);

  // Integral values stay valid whatever their JSON spelling.
  for (const char* body : {
           R"({"query": "a -> b", "limit": 2.0})",
           R"({"query": "a -> b", "deadline_ms": 1e3})",
           R"({"query": "a -> b", "max_incidents": -0.0})",
       }) {
    EXPECT_EQ(c.post("/query", body).status, 200) << body;
  }
  // The largest deadline never expires (adding it to the clock used to
  // overflow into a deadline in the past).
  const server::ClientResponse far = c.post(
      "/query", R"({"query": "a -> b", "deadline_ms": 9223372036854775807})");
  ASSERT_EQ(far.status, 200) << far.body;
  EXPECT_TRUE(server::parse_json(far.body).find("complete")->as_bool());

  TestServer live(std::nullopt);
  server::HttpClient ci = live.client();
  const server::ClientResponse bad = ci.post("/ingest", R"({"events": [
    {"op": "begin"},
    {"op": "record", "wid": 1.5, "activity": "a"}
  ]})");
  ASSERT_EQ(bad.status, 400) << bad.body;
  EXPECT_EQ(server::parse_json(bad.body).find("applied")->as_int(), 1);
  const server::ClientResponse ok = ci.post("/ingest", R"({"events": [
    {"op": "record", "wid": 1.0, "activity": "a"}
  ]})");
  EXPECT_EQ(ok.status, 200) << ok.body;
}

// ----- request observability ----------------------------------------------

const server::JsonValue* find_record(const server::JsonArray& records,
                                     const std::string& id) {
  for (const server::JsonValue& r : records) {
    if (r.find("id") != nullptr && r.find("id")->as_string() == id) return &r;
  }
  return nullptr;
}

TEST(ObservabilityTest, RequestIdEchoedGeneratedAndSanitized) {
  server::RequestObserver observer({});
  TestServer ts(small_log(), {}, {}, std::nullopt, &observer);
  server::HttpClient c = ts.client();
  const std::string body = R"({"query": "a -> b"})";

  const server::ClientResponse echoed = c.post(
      "/query", body, "application/json", {{"x-request-id", "abc-123"}});
  ASSERT_EQ(echoed.status, 200);
  ASSERT_NE(echoed.header("x-request-id"), nullptr);
  EXPECT_EQ(*echoed.header("x-request-id"), "abc-123");

  const server::ClientResponse generated = c.post("/query", body);
  ASSERT_NE(generated.header("x-request-id"), nullptr);
  EXPECT_EQ(generated.header("x-request-id")->substr(0, 4), "wfq-");

  // Whitespace is stripped out of a client id before it is echoed or
  // logged (no header/log-injection via the id).
  const server::ClientResponse weird = c.post(
      "/query", body, "application/json", {{"x-request-id", "a b\tc"}});
  ASSERT_NE(weird.header("x-request-id"), nullptr);
  EXPECT_EQ(*weird.header("x-request-id"), "abc");

  // The ids land in /debug/requests along with errors (a bad query is
  // still a request).
  const server::ClientResponse bad = c.post(
      "/query", "{}", "application/json", {{"x-request-id", "bad-req"}});
  EXPECT_EQ(bad.status, 400);
  const server::ClientResponse dbg = c.get("/debug/requests");
  ASSERT_EQ(dbg.status, 200);
  const server::JsonValue v = server::parse_json(dbg.body);
  const server::JsonArray& records = v.find("requests")->as_array();
  ASSERT_NE(find_record(records, "abc-123"), nullptr);
  const server::JsonValue* bad_rec = find_record(records, "bad-req");
  ASSERT_NE(bad_rec, nullptr);
  EXPECT_EQ(bad_rec->find("status")->as_int(), 400);
}

TEST(ObservabilityTest, BreakdownComponentsSumToWall) {
  server::RequestObserver observer({});
  TestServer ts(workload::procurement(400), {}, {}, std::nullopt, &observer);
  server::HttpClient c = ts.client();

  const server::ClientResponse resp = c.post(
      "/query",
      R"({"query": "CreatePO -> ReceiveGoods -> Pay", "limit": 100000})",
      "application/json", {{"x-request-id", "breakdown-probe"}});
  ASSERT_EQ(resp.status, 200) << resp.body;

  const server::ClientResponse dbg = c.get("/debug/requests");
  ASSERT_EQ(dbg.status, 200);
  const server::JsonValue v = server::parse_json(dbg.body);
  const server::JsonValue* probe =
      find_record(v.find("requests")->as_array(), "breakdown-probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->find("method")->as_string(), "POST");
  EXPECT_EQ(probe->find("path")->as_string(), "/query");
  EXPECT_EQ(probe->find("status")->as_int(), 200);
  EXPECT_GT(probe->find("bytes")->as_int(), 0);
  EXPECT_FALSE(probe->find("key")->as_string().empty());
  EXPECT_FALSE(probe->find("stop_reason")->as_string().empty());

  // The acceptance bar: the pipeline slices account for the request's
  // wall time to within 5% (queue wait is measured before the wall clock
  // starts, so it is not part of the sum).
  const server::JsonValue* b = probe->find("breakdown");
  ASSERT_NE(b, nullptr);
  const double wall = b->find("wall_us")->as_double();
  const double sum =
      b->find("parse_us")->as_double() + b->find("cache_us")->as_double() +
      b->find("eval_us")->as_double() + b->find("serialize_us")->as_double();
  EXPECT_GT(wall, 0.0);
  EXPECT_GT(b->find("eval_us")->as_double(), 0.0);
  EXPECT_GE(b->find("queue_us")->as_double(), 0.0);
  EXPECT_LE(sum, wall * 1.05) << "slices exceed the wall clock";
  EXPECT_GE(sum, wall * 0.95) << "untimed gap > 5%: wall=" << wall
                              << " sum=" << sum;
}

TEST(ObservabilityTest, CacheAttributionInRecords) {
  server::RequestObserver observer({});
  server::ServiceOptions svc;
  svc.cache_bytes = 1 << 20;
  TestServer ts(small_log(), std::move(svc), {}, std::nullopt, &observer);
  server::HttpClient c = ts.client();
  const std::string body = R"({"query": "a -> c"})";

  ASSERT_EQ(c.post("/query", body, "application/json",
                   {{"x-request-id", "первый"}})
                .status,
            200);  // non-ASCII id: fully stripped, so generated
  ASSERT_EQ(c.post("/query", body, "application/json",
                   {{"x-request-id", "warm"}})
                .status,
            200);
  ASSERT_EQ(c.post("/query", body, "application/json",
                   {{"x-request-id", "served"}})
                .status,
            200);

  const server::JsonValue v =
      server::parse_json(c.get("/debug/requests").body);
  const server::JsonArray& records = v.find("requests")->as_array();
  const server::JsonValue* warm = find_record(records, "warm");
  const server::JsonValue* served = find_record(records, "served");
  ASSERT_NE(warm, nullptr);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->find("cache")->as_string(), "hit");
  EXPECT_DOUBLE_EQ(
      served->find("breakdown")->find("eval_us")->as_double(), 0.0);
  // "warm" ran after the generated-id request primed the cache, so it is
  // a hit too; the very first request was the miss.
  EXPECT_EQ(warm->find("cache")->as_string(), "hit");
  EXPECT_EQ(find_record(records, "первый"), nullptr);  // id was stripped
}

TEST(ObservabilityTest, SlowRingCapturesPlanAndEvicts) {
  server::ObserverOptions oopts;
  oopts.slow_us = 0;  // capture every request
  oopts.slow_capacity = 2;
  server::RequestObserver observer(oopts);
  TestServer ts(small_log(), {}, {}, std::nullopt, &observer);
  server::HttpClient c = ts.client();

  for (const char* q : {"a -> b", "b -> c", "a -> c"}) {
    server::JsonValue body;
    body.set("query", q);
    ASSERT_EQ(c.post("/query", body.dump()).status, 200);
  }

  const server::ClientResponse dbg = c.get("/debug/slow");
  ASSERT_EQ(dbg.status, 200);
  const server::JsonValue v = server::parse_json(dbg.body);
  EXPECT_DOUBLE_EQ(v.find("threshold_ms")->as_double(), 0.0);
  EXPECT_GE(v.find("evicted")->as_int(), 1);
  const server::JsonArray& slow = v.find("slow")->as_array();
  ASSERT_EQ(slow.size(), 2u);  // capacity bound held
  // Oldest-first: the first query fell off the ring.
  EXPECT_EQ(slow[0].find("query")->as_string(), "b -> c");
  EXPECT_EQ(slow[1].find("query")->as_string(), "a -> c");
  for (const server::JsonValue& cap : slow) {
    EXPECT_FALSE(cap.find("plan")->as_string().empty());
    EXPECT_TRUE(cap.find("spans")->is_array());
    EXPECT_GT(cap.find("breakdown")->find("wall_us")->as_double(), 0.0);
  }
}

#if WFLOG_OBS_ENABLED
TEST(ObservabilityTest, SlowCaptureSummarizesRequestSpans) {
  // With an ambient Telemetry installed (as wfqd always does), a slow
  // capture carries the per-operator span summary of exactly its own
  // request.
  obs::Telemetry telemetry;
  obs::ScopedTelemetry installed(telemetry);
  server::ObserverOptions oopts;
  oopts.slow_us = 0;
  server::RequestObserver observer(oopts);
  TestServer ts(small_log(), {}, {}, std::nullopt, &observer);
  server::HttpClient c = ts.client();
  ASSERT_EQ(c.post("/query", R"({"query": "a -> b"})").status, 200);

  const server::JsonValue v =
      server::parse_json(c.get("/debug/slow").body);
  const server::JsonArray& slow = v.find("slow")->as_array();
  ASSERT_EQ(slow.size(), 1u);
  const server::JsonArray& spans = slow[0].find("spans")->as_array();
  ASSERT_FALSE(spans.empty());
  bool saw_eval = false;
  for (const server::JsonValue& s : spans) {
    EXPECT_GE(s.find("count")->as_int(), 1);
    EXPECT_GE(s.find("total_us")->as_double(),
              s.find("max_us")->as_double());
    if (s.find("span")->as_string() == "query.eval") saw_eval = true;
  }
  EXPECT_TRUE(saw_eval) << c.get("/debug/slow").body;
}
#endif  // WFLOG_OBS_ENABLED

TEST(ObservabilityTest, DebugEndpointsAre404WithoutObserver) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  EXPECT_EQ(c.get("/debug/requests").status, 404);
  EXPECT_EQ(c.get("/debug/slow").status, 404);
}

TEST(ObservabilityTest, AccessLogWritesOneJsonLinePerRequest) {
  const fs::path path =
      fs::temp_directory_path() /
      ("wflog-access-log-" + std::to_string(::getpid()) + ".jsonl");
  fs::remove(path);
  {
    server::ObserverOptions oopts;
    oopts.access_log_path = path.string();
    server::RequestObserver observer(oopts);
    ASSERT_TRUE(observer.access_log_enabled());
    TestServer ts(small_log(), {}, {}, std::nullopt, &observer);
    server::HttpClient c = ts.client();
    ASSERT_EQ(c.post("/query", R"({"query": "a -> b"})", "application/json",
                     {{"x-request-id", "logged-1"}})
                  .status,
              200);
    // record() runs on the worker thread just after the response bytes go
    // out; wait for it before reading the file.
    for (int i = 0; i < 200 && observer.requests_seen() < 1; ++i) {
      std::this_thread::sleep_for(5ms);
    }
    ASSERT_GE(observer.requests_seen(), 1u);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const server::JsonValue entry = server::parse_json(line);
  EXPECT_EQ(entry.find("id")->as_string(), "logged-1");
  EXPECT_EQ(entry.find("path")->as_string(), "/query");
  EXPECT_EQ(entry.find("status")->as_int(), 200);
  EXPECT_FALSE(entry.find("dropped")->as_bool());
  ASSERT_NE(entry.find("breakdown"), nullptr);
  EXPECT_GT(entry.find("breakdown")->find("wall_us")->as_double(), 0.0);
  fs::remove(path);
}

TEST(ObservabilityTest, UnopenableAccessLogFailsAtStartup) {
  server::ObserverOptions oopts;
  oopts.access_log_path = "/nonexistent-dir/access.jsonl";
  EXPECT_THROW(server::RequestObserver observer(std::move(oopts)), Error);
}

#if WFLOG_OBS_ENABLED
TEST(ObservabilityTest, MetricsScrapeMatchesExpositionGrammar) {
  obs::Telemetry telemetry;  // /metrics needs the ambient registry
  obs::ScopedTelemetry installed(telemetry);
  server::RequestObserver observer({});
  TestServer ts(small_log(), {}, {}, std::nullopt, &observer);
  server::HttpClient c = ts.client();
  ASSERT_EQ(c.post("/query", R"({"query": "a -> b"})").status, 200);
  ASSERT_EQ(c.post("/query", R"({"query": "b -> c"})").status, 200);

  const server::ClientResponse scrape = c.get("/metrics");
  ASSERT_EQ(scrape.status, 200);
  // Full exposition grammar including label sets: every non-comment line
  // is `name{label="value",...} value` with escaped label values.
  const std::regex comment(R"(^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$)");
  const std::regex sample(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")"
      R"((,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? )"
      R"(([0-9eE.+-]+|\+Inf|NaN)$)");
  std::istringstream in(scrape.body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, comment)) << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample)) << line;
    }
  }
  // The observer's labeled families made it into the scrape.
  EXPECT_NE(scrape.body.find(
                "wflog_server_endpoint_seconds_bucket{endpoint=\"/query\""),
            std::string::npos);
  EXPECT_NE(scrape.body.find("wflog_server_pattern_seconds_count"),
            std::string::npos);
}
#endif  // WFLOG_OBS_ENABLED

TEST(ObservabilityTest, StatsCarriesObservabilityBlock) {
  server::RequestObserver observer({});
  TestServer ts(small_log(), {}, {}, std::nullopt, &observer);
  server::HttpClient c = ts.client();
  ASSERT_EQ(c.post("/query", R"({"query": "a -> b"})").status, 200);
  ASSERT_EQ(c.post("/query", R"({"query": "b -> c"})").status, 200);

  const server::JsonValue stats =
      server::parse_json(c.get("/stats").body);
  const server::JsonValue* obs_block = stats.find("observability");
  ASSERT_NE(obs_block, nullptr);
  EXPECT_GE(obs_block->find("requests")->as_int(), 2);
  EXPECT_FALSE(obs_block->find("access_log")->as_bool());
  EXPECT_EQ(obs_block->find("dropped_responses")->as_int(), 0);
  ASSERT_NE(obs_block->find("endpoints")->find("/query"), nullptr);
  EXPECT_GE(
      obs_block->find("endpoints")->find("/query")->find("count")->as_int(),
      2);
}

TEST(ObservabilityTest, SlowClientReadTimeoutCountedAndRecorded) {
  server::RequestObserver observer({});
  server::ServerOptions opts;
  opts.io_timeout_ms = 100;
  TestServer ts(small_log(), {}, std::move(opts), std::nullopt, &observer);

  // A half request that never completes: the read times out, the server
  // hangs up without a response — that MUST NOT vanish silently.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.http->port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string partial =
      "POST /query HTTP/1.1\r\ncontent-length: 64\r\n\r\n{\"que";
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));

  for (int i = 0; i < 400 && observer.requests_seen() < 1; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ::close(fd);
  ASSERT_GE(observer.requests_seen(), 1u);

  server::HttpClient c = ts.client();
  const server::JsonValue stats = server::parse_json(c.get("/stats").body);
  EXPECT_GE(stats.find("server")->find("dropped_responses")->as_int(), 1);
  EXPECT_GE(
      stats.find("observability")->find("dropped_responses")->as_int(), 1);

  const server::JsonValue v =
      server::parse_json(c.get("/debug/requests").body);
  bool found = false;
  for (const server::JsonValue& r : v.find("requests")->as_array()) {
    if (r.find("status")->as_int() != 408) continue;
    found = true;
    EXPECT_TRUE(r.find("dropped")->as_bool());
    EXPECT_FALSE(r.find("id")->as_string().empty());
  }
  EXPECT_TRUE(found) << "no 408 dropped-response record";
}

TEST(ObservabilityTest, DebugEndpointsUnderEightConcurrentClients) {
  server::ObserverOptions oopts;
  oopts.slow_us = 0;
  oopts.requests_capacity = 64;
  oopts.slow_capacity = 16;
  server::RequestObserver observer(oopts);
  TestServer ts(small_log(), {}, {}, std::nullopt, &observer);

  constexpr int kClients = 8;
  constexpr int kRounds = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&ts, &failures] {
      try {
        server::HttpClient c = ts.client();
        for (int i = 0; i < kRounds; ++i) {
          if (c.post("/query", R"({"query": "a -> b"})").status != 200 ||
              c.get("/debug/requests").status != 200 ||
              c.get("/debug/slow").status != 200 ||
              c.get("/stats").status != 200) {
            failures.fetch_add(1);
            continue;
          }
          // Every /debug payload must be valid JSON mid-churn.
          server::parse_json(c.get("/debug/requests").body);
          server::parse_json(c.get("/debug/slow").body);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(observer.requests_seen(),
            static_cast<std::uint64_t>(kClients * kRounds));
}

TEST(ObservabilityTest, HealthzJsonReadinessDetail) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();

  // The plain fast path is untouched.
  EXPECT_EQ(c.get("/healthz").body, "ok\n");

  const server::ClientResponse resp =
      c.get("/healthz", {{"accept", "application/json"}});
  ASSERT_EQ(resp.status, 200);
  const server::JsonValue v = server::parse_json(resp.body);
  EXPECT_EQ(v.find("status")->as_string(), "ok");
  EXPECT_TRUE(v.find("ready")->as_bool());
  EXPECT_FALSE(v.find("draining")->as_bool());
  EXPECT_GE(v.find("snapshot_version")->as_int(), 1);
  EXPECT_EQ(v.find("records")->as_int(), 15);
  EXPECT_TRUE(v.find("ingest_enabled")->as_bool());
  ASSERT_NE(v.find("queue_depth"), nullptr);
}

TEST(ObservabilityTest, VersionReportsBuildInfo) {
  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  const server::ClientResponse resp = c.get("/version");
  ASSERT_EQ(resp.status, 200);
  const server::JsonValue v = server::parse_json(resp.body);
  EXPECT_EQ(v.find("server")->as_string(), "wfqd");
  EXPECT_FALSE(v.find("version")->as_string().empty());
  ASSERT_NE(v.find("obs_enabled"), nullptr);
#if WFLOG_OBS_ENABLED
  EXPECT_TRUE(v.find("obs_enabled")->as_bool());
#else
  EXPECT_FALSE(v.find("obs_enabled")->as_bool());
#endif
  EXPECT_FALSE(v.find("compiler")->as_string().empty());
  EXPECT_GE(v.find("cxx_standard")->as_int(), 202002);
}

// ----- overload + drain ---------------------------------------------------

/// A transport-only server (no engine) whose one route blocks until
/// released — the deterministic way to saturate a 1-worker/1-slot queue.
struct SlowServer {
  std::atomic<bool> release{false};
  std::unique_ptr<server::HttpServer> http;

  SlowServer() {
    server::Router router;
    router.add("GET", "/slow",
               [this](const server::HttpRequest&, server::RequestContext&) {
                 while (!release.load()) std::this_thread::sleep_for(1ms);
                 return server::HttpResponse::text(200, "done");
               });
    server::ServerOptions opts;
    opts.port = 0;
    opts.threads = 1;
    opts.queue_capacity = 1;
    http = std::make_unique<server::HttpServer>(std::move(router),
                                                std::move(opts));
    http->start();
  }

  ~SlowServer() {
    release.store(true);
    http->shutdown();
  }
};

TEST(ServerTest, OverloadSheds503WithRetryAfter) {
  SlowServer ss;
  const std::uint16_t port = ss.http->port();

  // First request occupies the single worker...
  std::thread first([&] {
    server::HttpClient c("127.0.0.1", port);
    EXPECT_EQ(c.get("/slow").status, 200);
  });
  std::this_thread::sleep_for(200ms);  // worker popped it, queue now empty
  // ...second sits in the queue's one slot...
  std::thread second([&] {
    server::HttpClient c("127.0.0.1", port);
    EXPECT_EQ(c.get("/slow").status, 200);
  });
  std::this_thread::sleep_for(200ms);
  // ...so the third is shed at the door.
  server::HttpClient c("127.0.0.1", port);
  const server::ClientResponse rejected = c.get("/slow");
  EXPECT_EQ(rejected.status, 503);
  const std::string* retry = rejected.header("retry-after");
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(*retry, "1");

  ss.release.store(true);
  first.join();
  second.join();

  const server::ServerStats stats = ss.http->stats();
  EXPECT_GE(stats.rejected, 1u);
  EXPECT_GE(stats.served, 2u);  // the two releases' 200s
}

TEST(ServerTest, GracefulDrainCancelsInFlightEvaluation) {
  // A query with Θ(m³) incidents takes far longer than the 100ms drain
  // budget, so shutdown must (a) let the request finish with a flagged
  // partial result, not kill the connection, and (b) refuse new ones.
  std::string spec;
  for (int i = 0; i < 600; ++i) spec += "a ";
  server::ServerOptions opts;
  opts.drain_timeout_ms = 100;
  TestServer ts(testing::make_log(spec), {}, std::move(opts));
  const std::uint16_t port = ts.http->port();

  std::string body;
  int status = 0;
  std::thread slow([&] {
    server::HttpClient c("127.0.0.1", port);
    const server::ClientResponse resp = c.post(
        "/query", R"({"query": "a -> a -> a", "limit": 0})");
    status = resp.status;
    body = resp.body;
  });
  std::this_thread::sleep_for(300ms);  // the evaluation is now running
  ts.http->request_shutdown();
  slow.join();

  ASSERT_EQ(status, 200) << body;
  const server::JsonValue v = server::parse_json(body);
  // Either the drain cancel tripped mid-evaluation (the expected path on
  // any real machine — 600³/6 ≈ 36M incidents) or the box somehow
  // finished first; both are contract-clean, silence or a 5xx is not.
  if (!v.find("complete")->as_bool()) {
    EXPECT_EQ(v.find("stop_reason")->as_string(), "cancelled");
  }

  ts.http->wait();
  EXPECT_THROW(server::HttpClient("127.0.0.1", port).get("/healthz"),
               IoError);
}

TEST(ServerTest, ShutdownRequestedBeforeStartIsHonoured) {
  // A SIGTERM that reaches wfqd while it boots calls request_shutdown()
  // before start(): the server must still drain and wait() must return.
  server::Router router;
  router.add("GET", "/ping",
             [](const server::HttpRequest&, server::RequestContext&) {
               return server::HttpResponse::text(200, "pong");
             });
  server::ServerOptions opts;
  opts.port = 0;
  server::HttpServer http(std::move(router), std::move(opts));
  http.request_shutdown();
  http.start();

  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    http.wait();
    returned = true;
  });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!returned && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(returned) << "wait() ignored a shutdown requested before start()";
  if (!returned) http.request_shutdown();  // unblock, so the test ends
  waiter.join();
  EXPECT_THROW(server::HttpClient("127.0.0.1", http.port()).get("/ping"),
               IoError);
}

// ----- ingest -------------------------------------------------------------

std::string ingest_events() {
  return R"({"events": [
    {"op": "begin"},
    {"op": "record", "wid": 1, "activity": "a",
     "out": {"k": 7, "tag": "hello"}},
    {"op": "record", "wid": 1, "activity": "b", "in": {"k": 7}},
    {"op": "end", "wid": 1}
  ]})";
}

TEST(ServerTest, IngestThenQuerySeesNewRecords) {
  TestServer ts(std::nullopt);
  server::HttpClient c = ts.client();

  const server::ClientResponse resp = c.post("/ingest", ingest_events());
  ASSERT_EQ(resp.status, 200) << resp.body;
  const server::JsonValue v = server::parse_json(resp.body);
  EXPECT_EQ(v.find("applied")->as_int(), 4);
  ASSERT_EQ(v.find("wids")->as_array().size(), 1u);
  EXPECT_EQ(v.find("wids")->as_array()[0].as_int(), 1);
  EXPECT_TRUE(v.find("bad_events")->as_array().empty());

  // The fresh snapshot serves the ingested instance, where clause and all.
  const server::ClientResponse q = c.post(
      "/query",
      R"({"query": "x:a -> y:b where x.out.k = y.in.k"})");
  ASSERT_EQ(q.status, 200) << q.body;
  EXPECT_EQ(server::parse_json(q.body).find("total")->as_int(), 1);
}

TEST(ServerTest, IngestBadEventAbortsUnderReject) {
  TestServer ts(std::nullopt);
  server::HttpClient c = ts.client();
  // Second event targets a wid that was never begun: kReject turns it
  // into a 400 aborting the request; the first event stays applied.
  const server::ClientResponse resp = c.post("/ingest", R"({"events": [
    {"op": "begin"},
    {"op": "record", "wid": 99, "activity": "a"}
  ]})");
  ASSERT_EQ(resp.status, 400) << resp.body;
  const server::JsonValue v = server::parse_json(resp.body);
  EXPECT_EQ(v.find("applied")->as_int(), 1);
  ASSERT_NE(v.find("error"), nullptr);

  const server::ClientResponse stats = c.get("/stats");
  EXPECT_EQ(server::parse_json(stats.body).find("records")->as_int(), 1);
}

TEST(ServerTest, IngestIsDurableAcrossStoreReopen) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("wflog-server-store-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    TestServer ts(std::nullopt, {}, {}, LogStore::create(dir));
    server::HttpClient c = ts.client();
    const server::ClientResponse resp = c.post("/ingest", ingest_events());
    ASSERT_EQ(resp.status, 200) << resp.body;
    const server::ClientResponse stats = c.get("/stats");
    const server::JsonValue v = server::parse_json(stats.body);
    ASSERT_NE(v.find("store"), nullptr);
    EXPECT_EQ(v.find("store")->find("records")->as_int(), 4);
  }
  // The server is gone; the events are not. Reopen and check content.
  LogStore store = LogStore::open(dir);
  EXPECT_EQ(store.num_records(), 4u);
  const Log log = store.load();
  const QueryEngine engine(log);
  EXPECT_EQ(engine.run("x:a -> y:b where x.out.k = y.in.k").total(), 1u);
  fs::remove_all(dir);
}

TEST(ServerTest, StatsCarriesStorageBlockForStoreBackedServer) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("wflog-server-storage-stats-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    TestServer ts(std::nullopt, {}, {}, LogStore::create(dir));
    server::HttpClient c = ts.client();
    ASSERT_EQ(c.post("/ingest", ingest_events()).status, 200);

    const server::JsonValue v =
        server::parse_json(c.get("/stats").body);
    ASSERT_NE(v.find("store"), nullptr);
    const server::JsonValue* storage = v.find("store")->find("storage");
    ASSERT_NE(storage, nullptr);
    // A fresh store writes v2 segments; nothing is sealed until a roll.
    EXPECT_EQ(storage->find("segments_v1")->as_int(), 0);
    EXPECT_GE(storage->find("segments_v2")->as_int(), 1);
    ASSERT_NE(storage->find("sealed_blocks"), nullptr);
    ASSERT_NE(storage->find("compressed_payload_bytes"), nullptr);
    ASSERT_NE(storage->find("uncompressed_payload_bytes"), nullptr);
    ASSERT_NE(storage->find("blocks_read"), nullptr);
    ASSERT_NE(storage->find("blocks_skipped"), nullptr);
  }
  fs::remove_all(dir);
}

#if WFLOG_OBS_ENABLED
TEST(ServerTest, StoreBlockMetricsExposedInPrometheusScrape) {
  obs::Telemetry telemetry;
  obs::ScopedTelemetry installed(telemetry);
  const fs::path dir =
      fs::temp_directory_path() /
      ("wflog-server-storage-metrics-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    TestServer ts(std::nullopt, {}, {}, LogStore::create(dir));
    server::HttpClient c = ts.client();
    ASSERT_EQ(c.post("/ingest", ingest_events()).status, 200);

    const server::ClientResponse scrape = c.get("/metrics");
    ASSERT_EQ(scrape.status, 200);
    // Every new storage family is present and its sample lines match the
    // exposition grammar (same shape the generic grammar test enforces).
    const std::regex sample(
        R"(^wflog_store_[a-z_]+ ([0-9eE.+-]+|\+Inf|NaN)$)");
    for (const char* family :
         {"wflog_store_blocks_written_total", "wflog_store_blocks_read_total",
          "wflog_store_blocks_skipped_total",
          "wflog_store_compressed_bytes_total",
          "wflog_store_uncompressed_bytes_total",
          "wflog_store_footer_recoveries_total",
          "wflog_store_sealed_reopen_skips_total"}) {
      SCOPED_TRACE(family);
      const std::string prefix = std::string(family) + " ";
      bool found = false;
      std::istringstream in(scrape.body);
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) != 0) continue;
        EXPECT_TRUE(std::regex_match(line, sample)) << line;
        found = true;
      }
      EXPECT_TRUE(found) << "family missing from scrape";
    }
    // The ingest above flushed at least one block (per-append fsync), so
    // the counters moved — the families are wired, not just registered.
    EXPECT_GT(telemetry.store_blocks_written_total->value(), 0u);
    EXPECT_GT(telemetry.store_compressed_bytes_total->value(), 0u);
  }
  fs::remove_all(dir);
}
#endif  // WFLOG_OBS_ENABLED

// ----- JSON codec: RFC 8259 edge cases ------------------------------------

TEST(JsonCodecTest, ControlCharactersRoundTrip) {
  // Every U+0000–U+001F must be escaped by the emitter and come back
  // byte-identical through the parser.
  std::string all;
  for (int c = 0; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  server::JsonValue v;
  v.set("s", all);
  const std::string dumped = v.dump();
  for (int c = 0; c < 0x20; ++c) {
    EXPECT_EQ(dumped.find(static_cast<char>(c)), std::string::npos)
        << "raw control byte " << c << " leaked into the document";
  }
  EXPECT_EQ(server::parse_json(dumped).find("s")->as_string(), all);
}

TEST(JsonCodecTest, ParserRejectsLoneSurrogateEscapes) {
  EXPECT_THROW(server::parse_json(R"({"s": "\ud800"})"), ParseError);
  EXPECT_THROW(server::parse_json(R"({"s": "\udc00"})"), ParseError);
  EXPECT_THROW(server::parse_json(R"({"s": "\ud800x"})"), ParseError);
  EXPECT_THROW(server::parse_json(R"({"s": "\ud800\ud800"})"), ParseError);
  // A proper pair is fine (U+1F600).
  EXPECT_EQ(server::parse_json(R"({"s": "😀"})").find("s")
                ->as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonCodecTest, ParserRejectsInvalidUtf8) {
  const std::string cases[] = {
      "\xC3(",           // bad continuation
      "\xC0\xAF",        // overlong '/'
      "\xE0\x80\x80",    // overlong NUL
      "\xED\xA0\x80",    // surrogate half encoded as UTF-8
      "\xF4\x90\x80\x80",  // past U+10FFFF
      "\xF8\x88\x80\x80\x80",  // 5-byte lead
      "\x80",            // stray continuation
      "\xE2\x82",        // truncated sequence
  };
  for (const std::string& bad : cases) {
    const std::string doc = "{\"s\": \"" + bad + "\"}";
    EXPECT_THROW(server::parse_json(doc), ParseError)
        << "accepted invalid UTF-8: " << ::testing::PrintToString(bad);
  }
  // Well-formed multi-byte text passes untouched.
  const std::string ok = "{\"s\": \"héllo \xE2\x82\xAC \xF0\x9F\x98\x80\"}";
  EXPECT_EQ(server::parse_json(ok).find("s")->as_string(),
            "héllo \xE2\x82\xAC \xF0\x9F\x98\x80");
}

TEST(JsonCodecTest, EmitterReplacesInvalidUtf8) {
  // Strings can enter JsonValue without going through the parser (CSV
  // logs, stores); the emitter must still produce valid JSON.
  server::JsonValue v;
  v.set("s", std::string("a\xC3(b\xFF"));
  const std::string dumped = v.dump();
  const server::JsonValue back = server::parse_json(dumped);  // must parse
  EXPECT_EQ(back.find("s")->as_string(), "a\xEF\xBF\xBD(b\xEF\xBF\xBD");
}

TEST(JsonCodecTest, DifferentialRoundTripFuzz) {
  // Deterministic byte-string fuzz: every dump() must be parseable, and
  // valid-UTF-8 inputs must round-trip exactly.
  std::uint64_t rng = 0x243F6A8885A308D3ULL;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const auto valid_utf8 = [](const std::string& s) {
    for (std::size_t i = 0; i < s.size();) {
      const unsigned char b = static_cast<unsigned char>(s[i]);
      std::size_t len = 0;
      std::uint32_t cp = 0;
      if (b < 0x80) { len = 1; cp = b; }
      else if ((b & 0xE0) == 0xC0) { len = 2; cp = b & 0x1F; }
      else if ((b & 0xF0) == 0xE0) { len = 3; cp = b & 0x0F; }
      else if ((b & 0xF8) == 0xF0) { len = 4; cp = b & 0x07; }
      else return false;
      if (i + len > s.size()) return false;
      for (std::size_t k = 1; k < len; ++k) {
        const unsigned char c = static_cast<unsigned char>(s[i + k]);
        if ((c & 0xC0) != 0x80) return false;
        cp = (cp << 6) | (c & 0x3F);
      }
      static constexpr std::uint32_t kMin[5] = {0, 0, 0x80, 0x800, 0x10000};
      if (cp < kMin[len] || (cp >= 0xD800 && cp <= 0xDFFF) || cp > 0x10FFFF) {
        return false;
      }
      i += len;
    }
    return true;
  };
  std::size_t exact = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string s;
    const std::size_t len = next() % 24;
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(next() % 256));
    }
    server::JsonValue v;
    v.set("s", s);
    const std::string dumped = v.dump();
    server::JsonValue back;
    ASSERT_NO_THROW(back = server::parse_json(dumped))
        << "unparseable emitter output for "
        << ::testing::PrintToString(s);
    if (valid_utf8(s)) {
      EXPECT_EQ(back.find("s")->as_string(), s);
      ++exact;
    } else {
      // Replacement happened; the result must itself be valid UTF-8 and
      // re-dump stably.
      EXPECT_EQ(server::parse_json(back.dump()).find("s")->as_string(),
                back.find("s")->as_string());
    }
  }
  EXPECT_GT(exact, 0u);  // the generator does produce valid strings too
}

// ----- HttpClient keep-alive retry safety ---------------------------------

/// A scripted one-shot HTTP listener: answers the first request on the
/// first connection, reads the second FULLY and then drops the connection
/// without responding (the "server applied it and died" shape), and
/// answers anything arriving on later connections. Records every request
/// it ever framed so tests can assert exactly-once delivery.
struct DroppingServer {
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::thread thread;
  std::mutex mu;
  std::vector<std::string> requests;  // "METHOD target body"

  DroppingServer() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_OK(listen_fd >= 0);
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_OK(::bind(listen_fd, reinterpret_cast<::sockaddr*>(&addr),
                     sizeof(addr)) == 0);
    ASSERT_OK(::listen(listen_fd, 8) == 0);
    ::socklen_t len = sizeof(addr);
    ASSERT_OK(::getsockname(listen_fd, reinterpret_cast<::sockaddr*>(&addr),
                            &len) == 0);
    port = ntohs(addr.sin_port);
    thread = std::thread([this] { run(); });
  }

  ~DroppingServer() {
    if (thread.joinable()) thread.join();
    if (listen_fd >= 0) ::close(listen_fd);
  }

  static void ASSERT_OK(bool ok) { ASSERT_TRUE(ok) << std::strerror(errno); }

  std::size_t seen() {
    std::lock_guard lock(mu);
    return requests.size();
  }

 private:
  /// Frames one request off `fd` with the real parser. False on EOF.
  bool read_one(int fd, std::string& buf) {
    server::HttpRequest req;
    std::string err;
    while (true) {
      const server::ParseState st =
          server::parse_request(buf, req, {}, err);
      if (st == server::ParseState::kDone) {
        std::lock_guard lock(mu);
        requests.push_back(req.method + " " + req.target + " " + req.body);
        return true;
      }
      if (st != server::ParseState::kNeedMore) return false;
      if (server::poll_readable(fd, 2000) <= 0) return false;
      if (server::recv_some(fd, buf) <= 0) return false;
    }
  }

  void respond(int fd) {
    server::send_all(fd,
                     "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok");
  }

  void run() {
    // Connection 1: answer one request, read the next, drop it on the
    // floor with a hard close.
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    std::string buf;
    if (read_one(fd, buf)) respond(fd);
    read_one(fd, buf);
    ::close(fd);
    // A retry (if the client makes one) arrives on a new connection.
    // Give it a bounded window so the no-retry case ends promptly.
    while (server::poll_readable(listen_fd, 500) == 1) {
      fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      std::string buf2;
      while (read_one(fd, buf2)) respond(fd);
      ::close(fd);
    }
  }
};

TEST(ClientRetryTest, DroppedPostIsNotReplayed) {
  // Regression: the client used to treat "EOF, nothing buffered" on a
  // reused connection as proof the server never saw the request and
  // silently replayed it — double-submitting a fully-sent POST /ingest
  // the server applied before dying.
  DroppingServer srv;
  server::HttpClient c("127.0.0.1", srv.port);
  ASSERT_EQ(c.post("/ingest", R"({"events": []})").status, 200);
  EXPECT_THROW(c.post("/ingest", R"({"events": [{"op": "begin"}]})"),
               IoError);
  srv.thread.join();
  // The begin event reached the wire exactly once — never double-ingested.
  std::size_t begins = 0;
  {
    std::lock_guard lock(srv.mu);
    for (const std::string& r : srv.requests) {
      if (r.find("begin") != std::string::npos) ++begins;
    }
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(srv.seen(), 2u);
}

TEST(ClientRetryTest, DroppedGetIsRetriedTransparently) {
  // Idempotent requests keep the convenient behavior: the keep-alive race
  // is absorbed by one transparent retry on a fresh connection.
  DroppingServer srv;
  server::HttpClient c("127.0.0.1", srv.port);
  ASSERT_EQ(c.get("/healthz").status, 200);
  const server::ClientResponse second = c.get("/healthz");
  EXPECT_EQ(second.status, 200);
  srv.thread.join();
  EXPECT_EQ(srv.seen(), 3u);  // initial + dropped + successful retry
}

// ----- client backoff schedule --------------------------------------------

TEST(BackoffScheduleTest, BoundedJitteredAndDeterministic) {
  server::ClientBackoff opts;
  opts.max_retries = 4;
  opts.initial = std::chrono::milliseconds(50);
  opts.cap = std::chrono::milliseconds(300);
  opts.budget = std::chrono::milliseconds(100000);  // not the binding cap

  const auto walk = [&] {
    server::BackoffSchedule s(opts);
    std::vector<std::chrono::milliseconds> delays;
    while (const auto d = s.next()) delays.push_back(*d);
    return delays;
  };
  const auto delays = walk();
  ASSERT_EQ(delays.size(), 4u);  // attempts capped
  // Attempt k's delay is jittered into [base/2, base],
  // base = min(cap, 50 * 2^(k-1)): 50, 100, 200, 300.
  const long long bases[] = {50, 100, 200, 300};
  for (std::size_t k = 0; k < delays.size(); ++k) {
    EXPECT_GE(delays[k].count(), bases[k] / 2) << "attempt " << k + 1;
    EXPECT_LE(delays[k].count(), bases[k]) << "attempt " << k + 1;
  }
  // Same seed, same schedule — tests can predict the exact delays.
  EXPECT_EQ(walk(), delays);
  // A different seed moves the jitter (with overwhelming probability).
  opts.jitter_seed = 12345;
  EXPECT_NE(walk(), delays);
}

TEST(BackoffScheduleTest, BudgetCapsTotalSleep) {
  server::ClientBackoff opts;
  opts.max_retries = 100;
  opts.initial = std::chrono::milliseconds(64);
  opts.cap = std::chrono::milliseconds(1024);
  opts.budget = std::chrono::milliseconds(200);

  server::BackoffSchedule s(opts);
  std::chrono::milliseconds total{0};
  while (const auto d = s.next()) total += *d;
  EXPECT_LE(total.count(), 200);          // never sleeps past the budget
  EXPECT_EQ(total, s.total_slept());
  EXPECT_LT(s.attempts_made(), 100);      // the budget ended it, not the cap
}

TEST(ClientBackoffTest, ConnectFailuresRetryThenSurface) {
  // Nothing listens on this port: grab an ephemeral port and release it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)),
            0);
  ::socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<::sockaddr*>(&addr), &len),
            0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  // Injected sleep: the schedule is exercised without real wall time.
  std::vector<std::chrono::milliseconds> slept;
  server::ClientOptions copts;
  copts.backoff.max_retries = 3;
  copts.backoff.initial = std::chrono::milliseconds(10);
  copts.sleep_fn = [&slept](std::chrono::milliseconds d) {
    slept.push_back(d);
  };
  server::HttpClient c("127.0.0.1", dead_port, copts);
  EXPECT_THROW(c.get("/healthz"), IoError);
  // 1 initial attempt + 3 retries, with a backoff sleep before each retry.
  ASSERT_EQ(slept.size(), 3u);
  for (const auto d : slept) EXPECT_GE(d.count(), 5);
}

TEST(ClientBackoffTest, ZeroRetriesRestoresFailFast) {
  server::ClientOptions copts;
  copts.backoff.max_retries = 0;
  std::size_t sleeps = 0;
  copts.sleep_fn = [&sleeps](std::chrono::milliseconds) { ++sleeps; };
  server::HttpClient c("127.0.0.1", 1, copts);  // port 1: nothing listens
  EXPECT_THROW(c.get("/healthz"), IoError);
  EXPECT_EQ(sleeps, 0u);
}

// ----- reserved liveness lane ---------------------------------------------

TEST(ServerTest, HealthzServedThroughReservedLaneUnderSaturation) {
  // A 1-worker/1-slot server whose only worker is wedged: normal traffic
  // is shed 503, but /healthz must keep answering through the reserved
  // lane so probes and scrapes see a saturated server, not a dead one.
  std::atomic<bool> release{false};
  server::Router router;
  router.add("GET", "/slow",
             [&release](const server::HttpRequest&, server::RequestContext&) {
               while (!release.load()) std::this_thread::sleep_for(1ms);
               return server::HttpResponse::text(200, "done");
             });
  router.add("GET", "/healthz",
             [](const server::HttpRequest&, server::RequestContext&) {
               return server::HttpResponse::text(200, "ok\n");
             });
  server::ServerOptions opts;
  opts.port = 0;
  opts.threads = 1;
  opts.queue_capacity = 1;
  opts.lane_capacity = 4;
  server::HttpServer http(std::move(router), std::move(opts));
  http.start();
  const std::uint16_t port = http.port();

  std::thread first([&] {
    server::HttpClient c("127.0.0.1", port);
    EXPECT_EQ(c.get("/slow").status, 200);
  });
  std::this_thread::sleep_for(200ms);  // worker busy, queue empty
  std::thread second([&] {
    server::HttpClient c("127.0.0.1", port);
    EXPECT_EQ(c.get("/slow").status, 200);
  });
  std::this_thread::sleep_for(200ms);  // queue full

  // Liveness keeps answering while the pool is saturated...
  for (int i = 0; i < 3; ++i) {
    server::HttpClient probe("127.0.0.1", port);
    const server::ClientResponse health = probe.get("/healthz");
    EXPECT_EQ(health.status, 200) << health.body;
    EXPECT_EQ(health.body, "ok\n");
  }
  // ...but the lane is liveness-only: everything else is still shed.
  server::HttpClient c("127.0.0.1", port);
  const server::ClientResponse shed = c.get("/slow");
  EXPECT_EQ(shed.status, 503);
  ASSERT_NE(shed.header("retry-after"), nullptr);

  release.store(true);
  first.join();
  second.join();
  const server::ServerStats stats = http.stats();
  EXPECT_GE(stats.lane_served, 3u);
  EXPECT_GE(stats.rejected, 1u);
  http.shutdown();
}

TEST(ServerTest, LaneDisabledFallsBackToPlain503) {
  std::atomic<bool> release{false};
  server::Router router;
  router.add("GET", "/slow",
             [&release](const server::HttpRequest&, server::RequestContext&) {
               while (!release.load()) std::this_thread::sleep_for(1ms);
               return server::HttpResponse::text(200, "done");
             });
  router.add("GET", "/healthz",
             [](const server::HttpRequest&, server::RequestContext&) {
               return server::HttpResponse::text(200, "ok\n");
             });
  server::ServerOptions opts;
  opts.port = 0;
  opts.threads = 1;
  opts.queue_capacity = 1;
  opts.lane_capacity = 0;  // pre-lane behavior
  server::HttpServer http(std::move(router), std::move(opts));
  http.start();
  const std::uint16_t port = http.port();

  std::thread first([&] {
    server::HttpClient c("127.0.0.1", port);
    EXPECT_EQ(c.get("/slow").status, 200);
  });
  std::this_thread::sleep_for(200ms);
  std::thread second([&] {
    server::HttpClient c("127.0.0.1", port);
    EXPECT_EQ(c.get("/slow").status, 200);
  });
  std::this_thread::sleep_for(200ms);

  server::HttpClient probe("127.0.0.1", port);
  EXPECT_EQ(probe.get("/healthz").status, 503);  // no lane, shed like anyone

  release.store(true);
  first.join();
  second.join();
  EXPECT_EQ(http.stats().lane_served, 0u);
  http.shutdown();
}

// ----- sharded evaluation over the server ---------------------------------

server::ServiceOptions sharded_svc(std::size_t shards) {
  server::ServiceOptions svc;
  svc.engine.shards = shards;
  return svc;
}

/// The answer fields of a /query response — everything except "timings",
/// which is per-request wall clock and legitimately varies.
std::string answer_fields(const std::string& response_body) {
  const server::JsonValue v = server::parse_json(response_body);
  const server::JsonValue* reason = v.find("stop_reason");
  return v.find("incidents")->dump() + "|" +
         std::to_string(v.find("total")->as_int()) + "|" +
         (v.find("complete")->as_bool() ? "1" : "0") + "|" +
         (reason != nullptr ? reason->as_string() : "");
}

TEST(ShardedServerTest, EightConcurrentClientsMatchUnshardedByteIdentical) {
  // Two servers over the same log, --shards 4 vs --shards 1: every field
  // of every answer must be byte-identical, including under 8 concurrent
  // clients hammering the sharded one (the engine's shard pool is shared
  // by all request workers).
  // Log is move-only; the deterministic generator is the copy constructor.
  TestServer serial(workload::clinic(40, 11), sharded_svc(1));
  TestServer sharded(workload::clinic(40, 11), sharded_svc(4));

  const std::string queries[] = {
      R"({"query": "GetRefer -> SeeDoctor", "limit": 100000})",
      R"({"query": "g:GetRefer -> s:SeeDoctor where g.out.hospital = s.in.hospital", "limit": 100000})",
      R"({"query": "!UpdateRefer . GetReimburse", "limit": 100000})",
  };
  std::vector<std::string> reference;
  for (const std::string& q : queries) {
    server::HttpClient a = serial.client();
    server::HttpClient b = sharded.client();
    const server::ClientResponse ra = a.post("/query", q);
    const server::ClientResponse rb = b.post("/query", q);
    ASSERT_EQ(ra.status, 200) << ra.body;
    ASSERT_EQ(rb.status, 200) << rb.body;
    EXPECT_EQ(answer_fields(rb.body), answer_fields(ra.body)) << q;
    reference.push_back(answer_fields(ra.body));
  }

  constexpr int kClients = 8;
  constexpr int kRequests = 6;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      server::HttpClient c = sharded.client();
      for (int i = 0; i < kRequests; ++i) {
        const std::size_t q = (t + i) % std::size(queries);
        try {
          const server::ClientResponse resp = c.post("/query", queries[q]);
          if (resp.status != 200 ||
              answer_fields(resp.body) != reference[q]) {
            mismatches.fetch_add(1);
          }
        } catch (const std::exception&) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ShardedServerTest, CacheHitMissPatternUnchangedAcrossShardCounts) {
  // The result cache keys on (pattern, where, snapshot version) — never on
  // the shard count — so the miss-then-hit sequence and the served bytes
  // must be identical for --shards 1 and --shards 4.
  const std::string body = R"({"query": "GetRefer -> SeeDoctor"})";
  std::vector<std::string> answers;
  for (const std::size_t shards : {1, 4}) {
    server::ServiceOptions svc = sharded_svc(shards);
    svc.cache_bytes = 1 << 20;
    TestServer ts(workload::clinic(25, 3), std::move(svc));
    server::HttpClient c = ts.client();

    const server::ClientResponse first = c.post("/query", body);
    ASSERT_EQ(first.status, 200) << first.body;
    ASSERT_NE(first.header("x-wfq-cache"), nullptr);
    EXPECT_EQ(*first.header("x-wfq-cache"), "miss") << "shards=" << shards;

    const server::ClientResponse second = c.post("/query", body);
    ASSERT_EQ(second.status, 200);
    ASSERT_NE(second.header("x-wfq-cache"), nullptr);
    EXPECT_EQ(*second.header("x-wfq-cache"), "hit") << "shards=" << shards;

    EXPECT_EQ(answer_fields(second.body), answer_fields(first.body));
    answers.push_back(answer_fields(first.body));
  }
  EXPECT_EQ(answers[0], answers[1])
      << "cached answers differ between shard counts";
}

TEST(ShardedServerTest, BatchRunsOnShardsAndIgnoresThreadsField) {
  // /batch parallelism is the daemon's shard count; a "threads" field in
  // the body is still accepted (old clients send it) but changes nothing.
  const Log log = workload::clinic(25, 3);
  const std::string body =
      R"({"queries": ["GetRefer -> SeeDoctor", "CheckIn"], "threads": 8})";
  std::vector<std::string> answers;
  for (const std::size_t shards : {1, 4}) {
    TestServer ts(workload::clinic(25, 3), sharded_svc(shards));
    server::HttpClient c = ts.client();
    const server::ClientResponse resp = c.post("/batch", body);
    ASSERT_EQ(resp.status, 200) << resp.body;
    const server::JsonValue v = server::parse_json(resp.body);
    EXPECT_EQ(v.find("stats")->find("threads_used")->as_int(),
              static_cast<std::int64_t>(shards));
    const server::JsonArray& results = v.find("results")->as_array();
    ASSERT_EQ(results.size(), 2u);
    const QueryEngine engine(log);
    EXPECT_EQ(results[0].find("total")->as_int(),
              static_cast<std::int64_t>(
                  engine.run("GetRefer -> SeeDoctor").total()));
    answers.push_back(results[0].find("incidents")->dump() +
                      results[1].find("incidents")->dump());
  }
  EXPECT_EQ(answers[0], answers[1]);
}

TEST(ShardedServerTest, StatsReportShardConfiguration) {
  TestServer ts(workload::clinic(10, 1), sharded_svc(4));
  server::HttpClient c = ts.client();
  const server::ClientResponse resp = c.get("/stats");
  ASSERT_EQ(resp.status, 200);
  const server::JsonValue v = server::parse_json(resp.body);
  const server::JsonValue* sh = v.find("shards");
  ASSERT_NE(sh, nullptr);
  EXPECT_EQ(sh->find("configured")->as_int(), 4);
  EXPECT_EQ(sh->find("effective")->as_int(), 4);
  EXPECT_EQ(sh->find("pool_workers")->as_int(), 3);
}

TEST(ShardedServerTest, GracefulDrainCancelsShardedEvaluation) {
  // The drain regression under sharded load: the drain token must reach
  // the shared EvalGuard of an in-flight SHARDED evaluation, stopping
  // every shard task — not just the request thread — within the grace
  // period, then the server must come down cleanly (a leaked shard task
  // would wedge http->wait() or crash the pool teardown).
  std::string spec;
  for (int inst = 0; inst < 4; ++inst) {
    for (int i = 0; i < 300; ++i) spec += "a ";
    spec += ";";
  }
  server::ServerOptions opts;
  opts.drain_timeout_ms = 100;
  TestServer ts(testing::make_log(spec), sharded_svc(4), std::move(opts));
  const std::uint16_t port = ts.http->port();

  std::string body;
  int status = 0;
  std::thread slow([&] {
    server::HttpClient c("127.0.0.1", port);
    const server::ClientResponse resp = c.post(
        "/query", R"({"query": "a -> a -> a", "limit": 0})");
    status = resp.status;
    body = resp.body;
  });
  std::this_thread::sleep_for(300ms);  // the shard tasks are now running
  ts.http->request_shutdown();
  slow.join();

  ASSERT_EQ(status, 200) << body;
  const server::JsonValue v = server::parse_json(body);
  if (!v.find("complete")->as_bool()) {
    EXPECT_EQ(v.find("stop_reason")->as_string(), "cancelled");
  }
  ts.http->wait();
  EXPECT_THROW(server::HttpClient("127.0.0.1", port).get("/healthz"),
               IoError);
}

TEST(ServerTest, MetricsEndpointServesPrometheusText) {
  obs::Telemetry telemetry;
  obs::ScopedTelemetry installed(telemetry);
  if (obs::telemetry() == nullptr) GTEST_SKIP() << "built with WFLOG_OBS=OFF";

  TestServer ts(small_log());
  server::HttpClient c = ts.client();
  ASSERT_EQ(c.post("/query", R"({"query": "a -> b"})").status, 200);
  const server::ClientResponse resp = c.get("/metrics");
  ASSERT_EQ(resp.status, 200);
  const std::string* ct = resp.header("content-type");
  ASSERT_NE(ct, nullptr);
  EXPECT_NE(ct->find("text/plain"), std::string::npos);
  EXPECT_NE(resp.body.find("wflog_http_requests_total"), std::string::npos);
  EXPECT_NE(resp.body.find("wflog_queries_total"), std::string::npos);
}

}  // namespace
}  // namespace wflog
