// The wfqd cross-request result cache (src/server/cache.h): key structure,
// LRU/byte-budget mechanics, soundness gates (incomplete results refused,
// tighter-limit requests not served), and the differential suite the PR's
// acceptance criteria name — the same query stream against a cache-on and
// a cache-off server must produce bit-identical answers across /query and
// /batch, through ingest-driven snapshot bumps, under 8 concurrent
// clients, and with deadline/budget-truncated runs interleaved.
//
// "Bit-identical" is asserted on the response body minus the volatile
// blocks that legitimately differ run to run even WITHOUT a cache:
// per-slot "timings" (wall-clock) and the /batch "stats" block (it
// describes the evaluation pass that actually executed, which is exactly
// what the cache shrinks). Everything else — pattern, optimized,
// incidents, totals, stop_reason, error slots — must match byte for byte.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/engine.h"
#include "server/cache.h"
#include "server/client.h"
#include "server/handlers.h"
#include "server/json.h"
#include "server/server.h"
#include "test_util.h"

namespace wflog {
namespace {

using server::CacheOptions;
using server::CacheStats;
using server::ResultCache;

std::shared_ptr<const QueryResult> complete_result() {
  auto r = std::make_shared<QueryResult>();
  r->parsed = Pattern::atom("a");
  r->executed = r->parsed;
  return r;
}

RunLimits limits_of(std::int64_t deadline_ms, std::size_t max_incidents) {
  RunLimits l;
  l.deadline = std::chrono::milliseconds(deadline_ms);
  l.max_incidents = max_incidents;
  return l;
}

// ----- ResultCache unit tests ---------------------------------------------

TEST(ResultCacheTest, KeySeparatesPatternWhereAndVersion) {
  const Query plain = Query::parse("a -> b");
  const Query grouped = Query::parse("a -> (b)");
  const Query with_where = Query::parse("x:a -> b where x.out.k = 1");
  const Query other_binding = Query::parse("y:a -> b where y.out.k = 1");

  // Canonically equal spellings share a key; the snapshot version splits.
  EXPECT_EQ(ResultCache::key(plain, 1), ResultCache::key(grouped, 1));
  EXPECT_NE(ResultCache::key(plain, 1), ResultCache::key(plain, 2));
  // A where clause changes the key even though the pattern key is equal.
  EXPECT_NE(ResultCache::key(plain, 1), ResultCache::key(with_where, 1));
  // Binding names are invisible to canonical_key but not to the where
  // clause — the fingerprint folds the binding-carrying pattern text in.
  EXPECT_NE(ResultCache::key(with_where, 1),
            ResultCache::key(other_binding, 1));
}

TEST(ResultCacheTest, InsertLookupAndLruEviction) {
  CacheOptions co;
  co.shards = 1;  // deterministic LRU order
  co.max_bytes = 3 * (ResultCache::result_bytes(*complete_result()) + 64);
  ResultCache cache(co);
  const RunLimits unlimited;

  cache.insert("k1", complete_result(), unlimited);
  cache.insert("k2", complete_result(), unlimited);
  EXPECT_NE(cache.lookup("k1", unlimited), nullptr);  // k1 now most recent
  EXPECT_NE(cache.lookup("k2", unlimited), nullptr);
  EXPECT_EQ(cache.lookup("missing", unlimited), nullptr);

  // Fill past the budget: the least recently used entry (k1) goes first.
  cache.insert("k3", complete_result(), unlimited);
  cache.insert("k4", complete_result(), unlimited);
  const CacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, co.max_bytes);
  EXPECT_EQ(cache.lookup("k1", unlimited), nullptr);
  EXPECT_NE(cache.lookup("k4", unlimited), nullptr);
}

TEST(ResultCacheTest, InlinePositionsAreCountedOnce) {
  // Incidents keep up to kInlineCapacity positions inside the object, so
  // a singleton-heavy result costs sizeof(Incident) per incident — no
  // phantom per-incident heap block. Only spilled positions add bytes.
  const std::size_t base = ResultCache::result_bytes(*complete_result());
  auto singletons = std::make_shared<QueryResult>(*complete_result());
  IncidentList list;
  for (IsLsn p = 1; p <= 1000; ++p) list.push_back(Incident::singleton(1, p));
  singletons->incidents.add_group(1, std::move(list));
  EXPECT_EQ(ResultCache::result_bytes(*singletons) - base,
            sizeof(IncidentSet::Group) + 1000 * sizeof(Incident));

  const Incident spilled = testing::inc(2, {1, 2, 3, 4, 5, 6});
  ASSERT_EQ(spilled.size(), Incident::kInlineCapacity + 1);
  auto mixed = std::make_shared<QueryResult>(*complete_result());
  mixed->incidents.add_group(2, {Incident::singleton(2, 9), spilled});
  EXPECT_EQ(ResultCache::result_bytes(*mixed) - base,
            sizeof(IncidentSet::Group) + 2 * sizeof(Incident) +
                spilled.size() * sizeof(IsLsn));

  // The batch memo's cache_bytes counter uses the same accounting.
  const Log log = testing::make_log("a a a a a a b");
  const LogIndex index(log);
  const std::vector<PatternPtr> batch = {parse_pattern("a")};
  BatchEvalStats stats;
  evaluate_batch(batch, index, BatchOptions{}, &stats);
  EXPECT_EQ(stats.counters.cache_bytes, 6 * sizeof(Incident));
}

TEST(ResultCacheTest, RefusesIncompleteResults) {
  CacheOptions co;
  co.max_bytes = 1 << 20;
  ResultCache cache(co);
  const RunLimits unlimited;

  auto truncated = std::make_shared<QueryResult>(*complete_result());
  truncated->stop_reason = StopReason::kDeadline;
  cache.insert("deadline", truncated, unlimited);

  auto budget = std::make_shared<QueryResult>(*complete_result());
  budget->stop_reason = StopReason::kIncidentBudget;
  cache.insert("budget", budget, unlimited);

  auto failed = std::make_shared<QueryResult>(*complete_result());
  failed->error = "boom";
  cache.insert("error", failed, unlimited);

  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.lookup("deadline", unlimited), nullptr);
  EXPECT_EQ(cache.lookup("budget", unlimited), nullptr);
  EXPECT_EQ(cache.lookup("error", unlimited), nullptr);
}

TEST(ResultCacheTest, TighterLimitsAreNotServedFromCache) {
  CacheOptions co;
  co.max_bytes = 1 << 20;
  ResultCache cache(co);

  // Stored under a 100ms / 50-incident budget.
  cache.insert("k", complete_result(), limits_of(100, 50));

  // Equal or looser budgets may be served...
  EXPECT_NE(cache.lookup("k", limits_of(100, 50)), nullptr);
  EXPECT_NE(cache.lookup("k", limits_of(500, 100)), nullptr);
  EXPECT_NE(cache.lookup("k", limits_of(0, 0)), nullptr);  // unlimited
  // ...tighter ones on either dimension must re-evaluate.
  EXPECT_EQ(cache.lookup("k", limits_of(50, 50)), nullptr);
  EXPECT_EQ(cache.lookup("k", limits_of(100, 10)), nullptr);
  EXPECT_GT(cache.stats().limit_rejects, 0u);

  // An entry produced WITHOUT limits (0 = unlimited) serves unlimited
  // requests, but a request that asks for ANY finite budget is tighter
  // than unlimited: it owes the caller its own possibly-truncated run.
  cache.insert("u", complete_result(), limits_of(0, 0));
  EXPECT_NE(cache.lookup("u", limits_of(0, 0)), nullptr);
  EXPECT_EQ(cache.lookup("u", limits_of(1, 1)), nullptr);

  // The limit check never mutates the entry — the stored pair is intact.
  EXPECT_NE(cache.lookup("k", limits_of(100, 50)), nullptr);
}

TEST(ResultCacheTest, DisabledCacheNeverStores) {
  ResultCache cache(CacheOptions{});  // max_bytes = 0
  EXPECT_FALSE(cache.enabled());
  cache.insert("k", complete_result(), RunLimits{});
  EXPECT_EQ(cache.lookup("k", RunLimits{}), nullptr);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

// ----- differential suite: cache on vs cache off --------------------------

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

server::ServiceOptions cached_options(std::size_t bytes = 16 << 20) {
  server::ServiceOptions svc;
  svc.cache_bytes = bytes;
  return svc;
}

Log dual_log() {
  return testing::make_log("a b c d ; d c b a ; a c b d ; a b d c");
}

/// Strips the blocks that are volatile even without a cache (wall-clock
/// timings; the /batch stats describe the pass that actually executed) and
/// re-serializes. Everything kept must be byte-identical cache-on vs off.
std::string normalized(const std::string& body) {
  server::JsonValue v = server::parse_json(body);
  auto strip = [](server::JsonValue& obj) {
    auto& m = obj.members();
    for (auto it = m.begin(); it != m.end();) {
      if (it->first == "timings" || it->first == "stats") {
        it = m.erase(it);
      } else {
        ++it;
      }
    }
  };
  strip(v);
  if (server::JsonValue* results =
          const_cast<server::JsonValue*>(v.find("results"))) {
    for (server::JsonValue& slot : results->as_array()) strip(slot);
  }
  return v.dump();
}

const std::vector<std::string>& query_stream() {
  static const std::vector<std::string> queries = {
      "a -> b",
      "a -> (b)",        // canonically equal respelling
      "(a -> b)",        // another
      "a . b",
      "b | c",
      "c | b",           // commuted
      "a & d",
      "!b",
      "a -> b",          // repeats — the cache's bread and butter
      "b | c",
      "x:a -> y:b where x.out.k = y.in.k",
      "z:a -> y:b where z.out.k = y.in.k",  // binding renamed
      "x:a -> b where x.out.k = 1",
      "a -> b",
  };
  return queries;
}

TEST(CacheDifferentialTest, QueryStreamBitIdentical) {
  TestServer off(dual_log());
  TestServer on(dual_log(), cached_options());
  server::HttpClient c_off = off.client();
  server::HttpClient c_on = on.client();

  for (const std::string& q : query_stream()) {
    server::JsonValue body;
    body.set("query", q);
    const server::ClientResponse a = c_off.post("/query", body.dump());
    const server::ClientResponse b = c_on.post("/query", body.dump());
    ASSERT_EQ(a.status, b.status) << q;
    EXPECT_EQ(normalized(a.body), normalized(b.body)) << q;
    // The cached server declares itself; the uncached one stays silent.
    EXPECT_EQ(a.header("x-wfq-cache"), nullptr);
    ASSERT_NE(b.header("x-wfq-cache"), nullptr);
  }

  // The repeats actually hit: re-issue the first query and check.
  server::JsonValue body;
  body.set("query", query_stream()[0]);
  const server::ClientResponse again = c_on.post("/query", body.dump());
  ASSERT_NE(again.header("x-wfq-cache"), nullptr);
  EXPECT_EQ(*again.header("x-wfq-cache"), "hit");
}

TEST(CacheDifferentialTest, CanonicalRespellingHitsTheSameEntry) {
  TestServer on(dual_log(), cached_options());
  server::HttpClient c = on.client();
  ASSERT_EQ(c.post("/query", R"({"query": "b | c"})").status, 200);
  const server::ClientResponse r = c.post("/query", R"({"query": "c | b"})");
  ASSERT_NE(r.header("x-wfq-cache"), nullptr);
  EXPECT_EQ(*r.header("x-wfq-cache"), "hit");
  // ...and the hit is transparent: the "pattern" echo shows THIS
  // request's spelling (not the populating "b | c"), and the answer
  // equals a fresh evaluation's.
  const server::JsonValue v = server::parse_json(r.body);
  EXPECT_EQ(v.find("pattern")->as_string(), "c | b");
  const Log log = dual_log();
  const QueryEngine engine(log);
  EXPECT_EQ(v.find("total")->as_int(),
            static_cast<std::int64_t>(engine.run("c | b").total()));
}

TEST(CacheDifferentialTest, BatchStreamBitIdentical) {
  TestServer off(dual_log());
  TestServer on(dual_log(), cached_options());
  server::HttpClient c_off = off.client();
  server::HttpClient c_on = on.client();

  const std::string batch = R"({"queries": ["a -> b", "b | c",
      "this does not parse ((", "a & d", "a -> b"], "threads": 2})";
  for (int round = 0; round < 3; ++round) {
    const server::ClientResponse a = c_off.post("/batch", batch);
    const server::ClientResponse b = c_on.post("/batch", batch);
    ASSERT_EQ(a.status, 200);
    ASSERT_EQ(b.status, 200);
    EXPECT_EQ(normalized(a.body), normalized(b.body)) << "round " << round;
  }
  // Round 3's slots were all served from cache except the parse error.
  const server::ClientResponse last = c_on.post("/batch", batch);
  const server::JsonValue v = server::parse_json(last.body);
  EXPECT_EQ(v.find("stats")->find("result_cache_hits")->as_int(), 4);
}

TEST(CacheDifferentialTest, IngestBumpsSnapshotVersionAndInvalidates) {
  TestServer off(dual_log());
  TestServer on(dual_log(), cached_options());
  server::HttpClient c_off = off.client();
  server::HttpClient c_on = on.client();

  const std::string q = R"({"query": "a -> b"})";
  const std::string ingest = R"({"events": [
      {"op": "begin"},
      {"op": "record", "wid": 5, "activity": "a"},
      {"op": "record", "wid": 5, "activity": "b"},
      {"op": "end", "wid": 5}]})";

  // Warm the cache, interleave an ingest, re-query: the answer must track
  // the new snapshot on both servers (version-keyed, no stale hit).
  ASSERT_EQ(c_on.post("/query", q).status, 200);
  ASSERT_EQ(c_off.post("/query", q).status, 200);
  ASSERT_EQ(c_on.post("/ingest", ingest).status, 200);
  ASSERT_EQ(c_off.post("/ingest", ingest).status, 200);

  const server::ClientResponse a = c_off.post("/query", q);
  const server::ClientResponse b = c_on.post("/query", q);
  EXPECT_EQ(normalized(a.body), normalized(b.body));
  ASSERT_NE(b.header("x-wfq-cache"), nullptr);
  EXPECT_EQ(*b.header("x-wfq-cache"), "miss");  // old entry is for v1
  EXPECT_EQ(server::parse_json(b.body).find("total")->as_int(),
            server::parse_json(a.body).find("total")->as_int());

  // And the new snapshot's entry serves repeats.
  const server::ClientResponse again = c_on.post("/query", q);
  EXPECT_EQ(*again.header("x-wfq-cache"), "hit");
  EXPECT_EQ(normalized(again.body), normalized(a.body));
}

TEST(CacheDifferentialTest, EightConcurrentClientsStayIdentical) {
  TestServer off(dual_log());
  server::ServerOptions opts;
  opts.threads = 4;
  TestServer on(dual_log(), cached_options(), opts);

  // Reference answers from the uncached server, sequentially.
  std::vector<std::string> expect;
  {
    server::HttpClient c = off.client();
    for (const std::string& q : query_stream()) {
      server::JsonValue body;
      body.set("query", q);
      expect.push_back(normalized(c.post("/query", body.dump()).body));
    }
  }

  constexpr int kClients = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      server::HttpClient c = on.client();
      for (int round = 0; round < 3; ++round) {
        // Different starting offset per client: hits and misses race.
        for (std::size_t i = 0; i < query_stream().size(); ++i) {
          const std::size_t at =
              (i + static_cast<std::size_t>(t)) % query_stream().size();
          server::JsonValue body;
          body.set("query", query_stream()[at]);
          const server::ClientResponse r =
              c.post("/query", body.dump());
          if (r.status != 200 || normalized(r.body) != expect[at]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(CacheDifferentialTest, TruncatedRunsAreNeverCached) {
  // Force deterministic truncation with an incident budget of 1 on a
  // query that has more than one incident.
  TestServer off(dual_log());
  TestServer on(dual_log(), cached_options());
  server::HttpClient c_off = off.client();
  server::HttpClient c_on = on.client();

  const std::string limited =
      R"({"query": "b | c", "max_incidents": 1})";
  for (int round = 0; round < 3; ++round) {
    const server::ClientResponse a = c_off.post("/query", limited);
    const server::ClientResponse b = c_on.post("/query", limited);
    ASSERT_EQ(a.status, 200);
    ASSERT_EQ(b.status, 200);
    EXPECT_EQ(normalized(a.body), normalized(b.body));
    const server::JsonValue v = server::parse_json(b.body);
    EXPECT_FALSE(v.find("complete")->as_bool());
    EXPECT_EQ(v.find("stop_reason")->as_string(), "incident-budget");
    // Truncated runs never enter the cache: every round is a miss.
    ASSERT_NE(b.header("x-wfq-cache"), nullptr);
    EXPECT_EQ(*b.header("x-wfq-cache"), "miss");
  }
  // /stats agrees: nothing was inserted.
  const server::JsonValue stats =
      server::parse_json(c_on.get("/stats").body);
  ASSERT_NE(stats.find("cache"), nullptr);
  EXPECT_EQ(stats.find("cache")->find("insertions")->as_int(), 0);

  // Now cache the COMPLETE answer, then ask with the tight budget again:
  // the complete entry must NOT satisfy the limited request.
  ASSERT_EQ(c_on.post("/query", R"({"query": "b | c"})").status, 200);
  const server::ClientResponse after = c_on.post("/query", limited);
  EXPECT_EQ(*after.header("x-wfq-cache"), "miss");
  EXPECT_EQ(server::parse_json(after.body).find("stop_reason")->as_string(),
            "incident-budget");
  EXPECT_EQ(normalized(after.body),
            normalized(c_off.post("/query", limited).body));
}

TEST(CacheDifferentialTest, NoCacheHeaderBypassesLookupButStillStores) {
  TestServer on(dual_log(), cached_options());
  server::HttpClient c = on.client();
  const std::string body = R"({"query": "a -> b"})";
  const server::HttpClient::Headers no_cache = {
      {"cache-control", "no-cache"}};

  // First request stores; a no-cache repeat re-evaluates (miss) but the
  // store stays warm for the next normal request.
  ASSERT_EQ(c.post("/query", body, "application/json").status, 200);
  const server::ClientResponse bypass =
      c.post("/query", body, "application/json", no_cache);
  ASSERT_NE(bypass.header("x-wfq-cache"), nullptr);
  EXPECT_EQ(*bypass.header("x-wfq-cache"), "miss");
  const server::ClientResponse warm = c.post("/query", body);
  EXPECT_EQ(*warm.header("x-wfq-cache"), "hit");
}

TEST(CacheStatsTest, StatsEndpointExposesCacheCounters) {
  TestServer on(dual_log(), cached_options());
  server::HttpClient c = on.client();
  ASSERT_EQ(c.post("/query", R"({"query": "a -> b"})").status, 200);
  ASSERT_EQ(c.post("/query", R"({"query": "a -> b"})").status, 200);
  const server::JsonValue v = server::parse_json(c.get("/stats").body);
  const server::JsonValue* cache = v.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->find("enabled")->as_bool());
  EXPECT_GE(cache->find("hits")->as_int(), 1);
  EXPECT_GE(cache->find("insertions")->as_int(), 1);
  EXPECT_GT(cache->find("bytes")->as_int(), 0);
  EXPECT_GT(v.find("snapshot_version")->as_int(), 0);

  // Cache off: /stats says so (null block) and no header is emitted.
  TestServer off(dual_log());
  server::HttpClient c_off = off.client();
  const server::JsonValue v_off =
      server::parse_json(c_off.get("/stats").body);
  ASSERT_NE(v_off.find("cache"), nullptr);
  EXPECT_TRUE(v_off.find("cache")->is_null());
}

}  // namespace
}  // namespace wflog
