// Differential/property harness for wid-sharded scatter/gather evaluation
// (core/shard.h). The contract under test: for EVERY shard count K, every
// scheduling order, and every query shape, the sharded answer serializes
// byte-identically to the unsharded one — sharding changes latency, never
// answers. Guard-truncated runs legitimately return different partial
// subsets per K; there the contract is an identical stop_reason.

#include "core/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "core/aggregate.h"
#include "core/engine.h"
#include "core/parser.h"
#include "core/printer.h"
#include "core/synthetic.h"
#include "log/slice.h"
#include "test_util.h"
#include "workflow/workload.h"

namespace wflog {
namespace {

using testing::brief;
using testing::make_log;

/// Exact serialization of an incident set: group order, wid, and every
/// position, so string equality == byte-identical results.
std::string serialize(const IncidentSet& set) {
  std::string s;
  for (const IncidentSet::Group& g : set.groups()) {
    s += "g" + std::to_string(g.wid) + "[";
    for (const Incident& o : g.incidents) s += brief(o) + ";";
    s += "]";
  }
  return s;
}

std::string serialize(const QueryResult& r) {
  return std::string(stop_reason_name(r.stop_reason)) + "|" + r.error + "|" +
         serialize(r.incidents);
}

const std::size_t kShardCounts[] = {1, 2, 3, 7, 16, 64};

// ----- partitioner ---------------------------------------------------------

TEST(ShardOfWidTest, StableAndInRange) {
  for (Wid wid = 0; wid < 500; ++wid) {
    for (std::size_t k : {1, 2, 3, 7, 64}) {
      const std::size_t s = shard_of_wid(wid, k);
      EXPECT_LT(s, k);
      EXPECT_EQ(s, shard_of_wid(wid, k)) << "unstable for wid " << wid;
    }
    EXPECT_EQ(shard_of_wid(wid, 1), 0u);
  }
}

TEST(ShardOfWidTest, SpreadsDenseWids) {
  // Sequential wids (the monitor's allocation pattern) should not pile
  // onto few shards: over 1000 wids and 8 shards, every shard gets some.
  std::vector<std::size_t> load(8, 0);
  for (Wid wid = 1; wid <= 1000; ++wid) ++load[shard_of_wid(wid, 8)];
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_GT(load[s], 60u) << "shard " << s << " nearly starved";
  }
}

TEST(ResolveShardCountTest, ClampsToInstances) {
  EXPECT_EQ(resolve_shard_count(4, 100), 4u);
  EXPECT_EQ(resolve_shard_count(100, 4), 4u);
  EXPECT_EQ(resolve_shard_count(5, 0), 1u);   // no instances: one shard
  EXPECT_EQ(resolve_shard_count(1, 1), 1u);
  EXPECT_GE(resolve_shard_count(0, 1000), 1u);  // 0 = hardware concurrency
}

TEST(ShardPlanTest, PartitionsEveryWidExactlyOnce) {
  const Log log = workload::random_process(37, 11);
  const std::vector<Wid>& wids = log.wids();
  for (std::size_t k : {1, 2, 7, 16}) {
    const ShardPlan plan(wids, k);
    EXPECT_EQ(plan.num_instances(), wids.size());
    std::vector<bool> seen(wids.size(), false);
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      const ShardPlan::Shard& shard = plan.shard(s);
      ASSERT_EQ(shard.wids.size(), shard.global.size());
      for (std::size_t j = 0; j < shard.wids.size(); ++j) {
        const std::size_t pos = shard.global[j];
        ASSERT_LT(pos, wids.size());
        EXPECT_FALSE(seen[pos]) << "position assigned twice";
        seen[pos] = true;
        EXPECT_EQ(wids[pos], shard.wids[j]);
        EXPECT_EQ(shard_of_wid(shard.wids[j], plan.num_shards()), s);
      }
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }));
  }
}

TEST(ShardPlanTest, EmptyWidSet) {
  const ShardPlan plan(std::vector<Wid>{}, 8);
  EXPECT_EQ(plan.num_shards(), 1u);
  EXPECT_EQ(plan.num_instances(), 0u);
  EXPECT_TRUE(plan.shard(0).wids.empty());
  EXPECT_TRUE(merge_shards(0, {}).empty());
}

// ----- merge ---------------------------------------------------------------

/// Random per-shard results over a wid-partition, for direct merge tests.
std::vector<ShardResult> random_results(Rng& rng, std::size_t num_shards,
                                        std::size_t num_instances) {
  std::vector<ShardResult> results(num_shards);
  for (std::size_t pos = 0; pos < num_instances; ++pos) {
    const Wid wid = static_cast<Wid>(pos + 1);
    if (rng.bernoulli(0.3)) continue;  // instance with no matches
    SyntheticIncidentOptions opts;
    opts.count = 1 + rng.index(4);
    opts.records_each = 1 + rng.index(3);
    opts.instance_len = 40;
    opts.wid = wid;
    opts.seed = rng.next_u64();
    IncidentList list = synthetic_incidents(opts);
    if (list.empty()) continue;
    ShardResult& r = results[shard_of_wid(wid, num_shards)];
    r.positions.push_back(pos);
    r.wids.push_back(wid);
    r.lists.push_back(std::move(list));
  }
  return results;
}

TEST(MergeShardsTest, IndependentOfResultArrivalOrder) {
  Rng rng(99);
  for (std::size_t round = 0; round < 30; ++round) {
    const std::size_t k = 1 + rng.index(9);
    const std::size_t n = 1 + rng.index(30);
    std::vector<ShardResult> results = random_results(rng, k, n);
    const IncidentSet reference = merge_shards(n, results);
    for (std::size_t shuffle = 0; shuffle < 5; ++shuffle) {
      std::vector<ShardResult> permuted = results;
      rng.shuffle(permuted);
      EXPECT_EQ(serialize(merge_shards(n, permuted)), serialize(reference))
          << "merge depended on shard arrival order";
    }
  }
}

TEST(MergeShardsTest, PreservesGroupOrderAndStrictLsnOrder) {
  Rng rng(7);
  const std::size_t k = 5, n = 25;
  const IncidentSet merged = merge_shards(n, random_results(rng, k, n));
  // Groups ascend in global position order (== wid order here) and each
  // group's list keeps the canonical strict order it was produced with.
  Wid prev = 0;
  for (const IncidentSet::Group& g : merged.groups()) {
    EXPECT_GT(g.wid, prev);
    prev = g.wid;
    EXPECT_FALSE(g.incidents.empty());
    for (std::size_t i = 1; i < g.incidents.size(); ++i) {
      EXPECT_TRUE(g.incidents[i - 1] < g.incidents[i])
          << "canonical incident order broken in group " << g.wid;
    }
  }
}

// ----- pool ----------------------------------------------------------------

TEST(ShardPoolTest, RunsEveryItemExactlyOnce) {
  ShardPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.run(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(ShardPoolTest, ZeroWorkersDegradesToSerial) {
  ShardPool pool(0);
  std::size_t sum = 0;  // caller-thread only: no synchronization needed
  pool.run(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
}

TEST(ShardPoolTest, ZeroCountIsANoop) {
  ShardPool pool(2);
  pool.run(0, [](std::size_t) { FAIL() << "work ran for count 0"; });
}

TEST(ShardPoolTest, FirstExceptionPropagatesAllItemsRun) {
  ShardPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run(20,
               [&](std::size_t i) {
                 ran.fetch_add(1);
                 if (i == 5) throw std::runtime_error("item 5");
               }),
      std::runtime_error);
  // Remaining items still execute (results stay complete; the error is
  // reported after the join).
  EXPECT_EQ(ran.load(), 20);
}

TEST(ShardPoolTest, ConcurrentRunsShareThePool) {
  ShardPool pool(3);
  std::vector<std::thread> callers;
  std::vector<std::atomic<std::uint64_t>> sums(4);
  for (std::size_t c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      pool.run(50, [&sums, c](std::size_t i) {
        sums[c].fetch_add(i + 1);
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(sums[c].load(), 50u * 51u / 2) << "caller " << c;
  }
}

TEST(ShardPoolTest, RunAfterShutdownCompletesInline) {
  ShardPool pool(2);
  pool.shutdown();
  pool.shutdown();  // idempotent
  std::size_t sum = 0;
  pool.run(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
  EXPECT_EQ(pool.workers(), 0u);
}

TEST(ShardPoolTest, ShutdownUnderLoadLosesNoItems) {
  // Shutdown races an in-flight run: workers may stop mid-job, but the
  // caller must still complete every item before run() returns.
  for (int round = 0; round < 10; ++round) {
    ShardPool pool(3);
    std::atomic<int> ran{0};
    std::thread caller([&] {
      pool.run(200, [&](std::size_t) {
        ran.fetch_add(1);
        std::this_thread::yield();
      });
    });
    pool.shutdown();
    caller.join();
    EXPECT_EQ(ran.load(), 200);
  }
}

/// Runs `body` on a helper thread and fails the test if it has not finished
/// within `limit`. A wedged pool cannot be unwound, so the process then
/// exits with a message instead of hanging the test runner.
void run_with_watchdog(std::chrono::seconds limit,
                       const std::function<void()>& body) {
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread runner([&body, &finished] {
    body();
    finished.set_value();
  });
  if (done.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr,
                 "FAILED: still running after %llds, the shard pool is "
                 "wedged\n",
                 static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(1);
  }
  runner.join();
}

/// A one-shot gate: wait() blocks until open().
class Gate {
 public:
  void open() {
    {
      const std::lock_guard lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

void wait_until(const std::atomic<int>& counter, int value) {
  while (counter.load() < value) std::this_thread::yield();
}

TEST(ShardPoolTest, JobExhaustedBehindAnotherDoesNotWedgeTheWorker) {
  // Job A (3 items) heads the queue; job B (1 item) queues behind it and
  // is exhausted by its own caller while A still has an unclaimed item.
  // When A's last item is claimed, B must not be left at the head with
  // nothing to claim: a worker would spin on it holding the pool mutex,
  // so neither caller could ever return.
  run_with_watchdog(std::chrono::seconds(20), [] {
    ShardPool pool(1);
    Gate a_gate, b_gate;
    std::atomic<int> a_started{0}, b_started{0};
    std::thread a_caller([&] {
      pool.run(3, [&](std::size_t) {
        a_started.fetch_add(1);
        a_gate.wait();
      });
    });
    wait_until(a_started, 2);  // caller runs A0, the worker A1
    std::thread b_caller([&] {
      pool.run(1, [&](std::size_t) {
        b_started.fetch_add(1);
        b_gate.wait();
      });
    });
    wait_until(b_started, 1);  // B claimed (exhausted) and still running
    a_gate.open();
    a_caller.join();  // A finishes while B is still in flight
    b_gate.open();
    b_caller.join();
    EXPECT_EQ(a_started.load(), 3);
    EXPECT_EQ(b_started.load(), 1);
  });
}

TEST(ShardEngineTest, ConcurrentRunsOnOneShardedEngineComplete) {
  // The engine-level form: request threads sharing one sharded engine
  // (wfqd's shape) queue overlapping jobs on its pool.
  const Log log = workload::clinic(200, 21);
  const char* queries[] = {
      "GetRefer -> GetReimburse",
      "(SeeDoctor . PayTreatment) -> GetReimburse",
      "UpdateRefer | CheckIn",
      "!UpdateRefer . GetReimburse",
  };
  const QueryEngine serial(log, QueryOptions{});
  std::vector<std::string> expected;
  for (const char* q : queries) expected.push_back(serialize(serial.run(q)));

  QueryOptions opts;
  opts.shards = 4;
  const QueryEngine engine(log, opts);
  run_with_watchdog(std::chrono::seconds(60), [&] {
    std::vector<std::thread> callers;
    std::atomic<int> mismatches{0};
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&, t] {
        for (int i = 0; i < 200; ++i) {
          const std::size_t q = static_cast<std::size_t>(t + i) % 4;
          if (serialize(engine.run(queries[q])) != expected[q]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& c : callers) c.join();
    EXPECT_EQ(mismatches.load(), 0);
  });
}

// ----- differential: library level ----------------------------------------

/// Serial reference vs sharded evaluation for one pattern over one index,
/// across the full K sweep (including K > #wids) and both schedulers.
void expect_sharded_identical(const Pattern& p, const LogIndex& index) {
  const Evaluator serial(index);
  const std::string expected = serialize(serial.evaluate(p));
  const std::size_t expected_count = serial.count(p);
  const bool expected_exists = serial.exists(p);
  std::vector<std::size_t> ks(std::begin(kShardCounts),
                              std::end(kShardCounts));
  ks.push_back(index.wids().size() + 1);  // K > #wids
  for (const std::size_t k : ks) {
    const ShardPlan plan(index.wids(), k);
    ShardEvalOptions opts;
    EXPECT_EQ(serialize(evaluate_sharded(p, index, plan, opts)), expected)
        << "K=" << k << " serial scatter, pattern " << to_text(p);
    EXPECT_EQ(count_sharded(p, index, plan, opts), expected_count)
        << "K=" << k;
    EXPECT_EQ(exists_sharded(p, index, plan, opts), expected_exists)
        << "K=" << k;
    ShardPool pool(2);
    opts.pool = &pool;
    EXPECT_EQ(serialize(evaluate_sharded(p, index, plan, opts)), expected)
        << "K=" << k << " pooled scatter, pattern " << to_text(p);
    EXPECT_EQ(count_sharded(p, index, plan, opts), expected_count)
        << "K=" << k << " pooled";
    EXPECT_EQ(exists_sharded(p, index, plan, opts), expected_exists)
        << "K=" << k << " pooled";
  }
}

TEST(ShardDifferentialTest, TwoHundredRandomLogsTimesRandomPatterns) {
  // 210 randomized simulator logs x 2 random patterns x 7 shard counts,
  // every combination byte-identical to the serial evaluator.
  for (std::uint64_t seed = 0; seed < 210; ++seed) {
    const Log log = workload::random_process(2 + seed % 11, seed);
    const LogIndex index(log);
    Rng rng(seed * 31 + 7);
    RandomPatternOptions popts;
    popts.max_depth = 3;
    popts.predicate_probability = 0.1;
    for (int q = 0; q < 2; ++q) {
      const PatternPtr p = random_pattern(rng, popts);
      expect_sharded_identical(*p, index);
    }
  }
}

TEST(ShardDifferentialTest, ClinicQueriesWithSpansAndNegation) {
  const Log log = workload::clinic(60, 3);
  const LogIndex index(log);
  const char* queries[] = {
      "UpdateRefer -> GetReimburse",
      "SeeDoctor . PayTreatment",
      "(SeeDoctor -> CompleteRefer) | (SeeDoctor -> TerminateRefer)",
      "(GetRefer . CheckIn) & SeeDoctor",
      "!UpdateRefer . GetReimburse",
      "GetRefer[out.balance > 5000]",
  };
  for (const char* q : queries) {
    expect_sharded_identical(*parse_pattern(q), index);
  }
}

TEST(ShardDifferentialTest, AllRecordsOneWid) {
  const Log log = make_log("a b a b a b");
  const LogIndex index(log);
  expect_sharded_identical(*parse_pattern("a -> b"), index);
  expect_sharded_identical(*parse_pattern("a . b"), index);
}

TEST(ShardDifferentialTest, CompletionOrderHookShuffles) {
  // The injectable scheduler: evaluate shards in adversarial completion
  // orders; the gather must erase any trace of the order.
  const Log log = workload::random_process(24, 5);
  const LogIndex index(log);
  const PatternPtr p = parse_pattern("A0 -> A2");
  const std::string expected = serialize(Evaluator(index).evaluate(*p));
  Rng rng(17);
  for (const std::size_t k : {2, 3, 7, 16}) {
    const ShardPlan plan(index.wids(), k);
    std::vector<std::size_t> order(plan.num_shards());
    std::iota(order.begin(), order.end(), 0);
    for (int shuffle = 0; shuffle < 6; ++shuffle) {
      rng.shuffle(order);
      ShardEvalOptions opts;
      opts.completion_order = &order;
      EXPECT_EQ(serialize(evaluate_sharded(*p, index, plan, opts)), expected)
          << "K=" << k << " shuffle " << shuffle;
    }
  }
}

TEST(ShardDifferentialTest, EvalOptionsFlowThrough) {
  // max_span pruning and the operator-implementation toggle must shard
  // identically too.
  const Log log = workload::random_process(30, 9);
  const LogIndex index(log);
  const PatternPtr p = parse_pattern("A0 -> A1");
  for (const bool optimized : {true, false}) {
    for (const IsLsn span : {IsLsn{0}, IsLsn{3}}) {
      EvalOptions eopts;
      eopts.use_optimized_operators = optimized;
      eopts.max_span = span;
      const std::string expected =
          serialize(Evaluator(index, eopts).evaluate(*p));
      for (const std::size_t k : {2, 7}) {
        const ShardPlan plan(index.wids(), k);
        ShardEvalOptions opts;
        opts.eval = eopts;
        EXPECT_EQ(serialize(evaluate_sharded(*p, index, plan, opts)),
                  expected)
            << "optimized=" << optimized << " span=" << span << " K=" << k;
      }
    }
  }
}

// ----- differential: aggregates --------------------------------------------

TEST(ShardAggregateTest, CombineGroupsMatchesWholeFold) {
  const Log log = workload::clinic(80, 21);
  const LogIndex index(log);
  const IncidentSet set =
      Evaluator(index).evaluate(*parse_pattern("GetRefer -> SeeDoctor"));
  const GroupKey key{"GetRefer", MapSel::kOut, "hospital"};
  const auto expected = group_by_attribute(set, index, key);
  ASSERT_FALSE(expected.empty());
  for (const std::size_t k : {1, 2, 3, 7, 16, 64}) {
    const auto sharded = group_by_attribute_sharded(set, index, key, k);
    ASSERT_EQ(sharded.size(), expected.size()) << "K=" << k;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(sharded[i].key, expected[i].key) << "K=" << k;
      EXPECT_EQ(sharded[i].instances, expected[i].instances) << "K=" << k;
      EXPECT_EQ(sharded[i].incidents, expected[i].incidents) << "K=" << k;
    }
    ShardPool pool(2);
    const auto pooled = group_by_attribute_sharded(set, index, key, k, &pool);
    ASSERT_EQ(pooled.size(), expected.size()) << "K=" << k << " pooled";
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(pooled[i].instances, expected[i].instances)
          << "K=" << k << " pooled";
    }
  }
}

TEST(ShardAggregateTest, RandomizedGroupBySweep) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Log log = workload::clinic(10 + seed * 3, seed);
    const LogIndex index(log);
    const IncidentSet set = Evaluator(index).evaluate(
        *parse_pattern("GetRefer[out.balance > 3000]"));
    const GroupKey key{"GetRefer", MapSel::kOut, "hospital"};
    const auto expected = group_by_attribute(set, index, key);
    for (const std::size_t k : {2, 5, 13}) {
      const auto sharded = group_by_attribute_sharded(set, index, key, k);
      ASSERT_EQ(sharded.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(sharded[i].instances, expected[i].instances);
        EXPECT_EQ(sharded[i].incidents, expected[i].incidents);
      }
    }
  }
}

// ----- differential: engine level (QueryOptions::shards) -------------------

TEST(ShardEngineTest, RunAndWhereClausesIdenticalAcrossShardCounts) {
  const Log log = workload::clinic(50, 13);
  const char* queries[] = {
      "UpdateRefer -> GetReimburse",
      "u:UpdateRefer -> r:GetReimburse where u.out.balance > 2000",
      "g:GetRefer -> s:SeeDoctor where g.out.hospital = s.in.hospital",
      "!UpdateRefer . GetReimburse",
  };
  QueryOptions serial_opts;
  const QueryEngine serial(log, serial_opts);
  for (const std::size_t k : {0, 2, 4, 16}) {  // 0 = hardware concurrency
    QueryOptions opts;
    opts.shards = k;
    const QueryEngine engine(log, opts);
    for (const char* q : queries) {
      EXPECT_EQ(serialize(engine.run(q)), serialize(serial.run(q)))
          << "K=" << k << " query " << q;
    }
    for (const char* q : queries) {
      EXPECT_EQ(engine.count(q), serial.count(q)) << q;
      EXPECT_EQ(engine.exists(q), serial.exists(q)) << q;
    }
  }
}

TEST(ShardEngineTest, RunBatchIdenticalWithAndWithoutMemo) {
  const Log log = workload::clinic(40, 4);
  const std::vector<std::string> texts = {
      "GetRefer -> SeeDoctor",
      "SeeDoctor -> PayTreatment",
      "(GetRefer -> SeeDoctor) | (SeeDoctor -> PayTreatment)",
      "this is not ( a valid query",  // error slot: isolation must survive
      "u:UpdateRefer -> r:GetReimburse where u.out.balance > 1000",
  };
  const QueryEngine serial(log, QueryOptions{});
  for (const std::size_t k : {2, 7}) {
    QueryOptions opts;
    opts.shards = k;
    const QueryEngine engine(log, opts);
    for (const bool use_cache : {true, false}) {
      const BatchResult expected = serial.run_batch(texts, 1, use_cache);
      const BatchResult sharded = engine.run_batch(texts, 1, use_cache);
      ASSERT_EQ(sharded.results.size(), expected.results.size());
      for (std::size_t q = 0; q < expected.results.size(); ++q) {
        EXPECT_EQ(serialize(sharded.results[q]),
                  serialize(expected.results[q]))
            << "K=" << k << " cache=" << use_cache << " q=" << q;
      }
    }
  }
}

TEST(ShardEngineTest, SingleInstanceLogAndOversharding) {
  const Log log = make_log("a b c ; a c b");
  for (const std::size_t k : {1, 2, 3, 64}) {
    QueryOptions opts;
    opts.shards = k;
    const QueryEngine engine(log, opts);
    EXPECT_LE(engine.shards(), log.wids().size());
    EXPECT_EQ(serialize(engine.run("a -> b").incidents),
              serialize(QueryEngine(log).run("a -> b").incidents))
        << "K=" << k;
  }
}

// ----- guard semantics across shard counts ---------------------------------

TEST(ShardGuardTest, PreCancelledTokenReportsCancelledForEveryK) {
  const Log log = workload::clinic(30, 2);
  for (const std::size_t k : {1, 4, 16}) {
    QueryOptions opts;
    opts.shards = k;
    opts.cancel = make_cancel_token();
    opts.cancel->store(true);  // cancelled before the run starts
    const QueryEngine engine(log, opts);
    const QueryResult r = engine.run("GetRefer -> GetReimburse");
    EXPECT_EQ(r.stop_reason, StopReason::kCancelled) << "K=" << k;
  }
}

TEST(ShardGuardTest, MidQueryCancelStopsShardedRun) {
  // Trip the token from another thread mid-evaluation: the sharded run
  // must come back flagged kCancelled (possibly complete if it won the
  // race, in which case kNone is also legal — assert no OTHER reason).
  const Log log = workload::clinic(300, 8);
  QueryOptions opts;
  opts.shards = 4;
  opts.cancel = make_cancel_token();
  const QueryEngine engine(log, opts);
  std::thread canceller([&] { opts.cancel->store(true); });
  const QueryResult r = engine.run("!UpdateRefer . !GetReimburse");
  canceller.join();
  EXPECT_TRUE(r.stop_reason == StopReason::kCancelled ||
              r.stop_reason == StopReason::kNone)
      << stop_reason_name(r.stop_reason);
}

TEST(ShardGuardTest, IncidentBudgetReportsSameReasonForEveryK) {
  // Truncated runs legitimately differ in WHICH incidents survive per K;
  // the acceptance contract is the identical stop_reason.
  const Log log = workload::clinic(60, 6);
  RunLimits limits;
  limits.max_incidents = 5;  // far below the true total
  const QueryResult serial =
      QueryEngine(log).run("GetRefer -> SeeDoctor", limits);
  ASSERT_EQ(serial.stop_reason, StopReason::kIncidentBudget);
  for (const std::size_t k : {2, 4, 16}) {
    QueryOptions opts;
    opts.shards = k;
    const QueryEngine engine(log, opts);
    const QueryResult r = engine.run("GetRefer -> SeeDoctor", limits);
    EXPECT_EQ(r.stop_reason, serial.stop_reason) << "K=" << k;
    EXPECT_TRUE(r.truncated()) << "K=" << k;
  }
}

TEST(ShardGuardTest, BudgetIsGlobalNotPerShard) {
  // A per-shard budget would let K shards emit ~budget*K incidents. The
  // guard is SHARED: once it trips, each shard stops at its next instance
  // boundary, so the worst-case overshoot is one in-flight instance per
  // shard — provably below the per-shard-budget failure mode.
  const Log log = workload::clinic(100, 14);
  const QueryResult full = QueryEngine(log).run("GetRefer -> SeeDoctor");
  ASSERT_TRUE(full.complete());
  std::size_t per_instance_max = 0;
  for (const IncidentSet::Group& g : full.incidents.groups()) {
    per_instance_max = std::max(per_instance_max, g.incidents.size());
  }
  RunLimits limits;
  limits.max_incidents = 10;
  ASSERT_GT(full.incidents.total(), limits.max_incidents);
  for (const std::size_t k : {1, 4, 16}) {
    QueryOptions opts;
    opts.shards = k;
    const QueryEngine engine(log, opts);
    const QueryResult r = engine.run("GetRefer -> SeeDoctor", limits);
    EXPECT_TRUE(r.truncated()) << "K=" << k;
    EXPECT_LE(r.incidents.total(),
              limits.max_incidents + k * per_instance_max)
        << "K=" << k << " — budget enforced per shard, not globally?";
    EXPECT_LT(r.incidents.total(), full.incidents.total()) << "K=" << k;
  }
}

// ----- log-layer shard views -----------------------------------------------

TEST(ShardInstancesTest, SubLogsPartitionTheLog) {
  const Log log = workload::random_process(40, 19);
  const std::size_t k = 4;
  std::size_t wids_seen = 0;
  for (std::size_t s = 0; s < k; ++s) {
    const Log sub = shard_instances(log, s, k);
    for (const Wid wid : sub.wids()) {
      // shard_instances re-numbers wids? No: instance filtering keeps wid
      // values, so membership must agree with the partitioner.
      EXPECT_EQ(shard_of_wid(wid, k), s);
    }
    wids_seen += sub.wids().size();
  }
  EXPECT_EQ(wids_seen, log.wids().size());
  EXPECT_THROW(shard_instances(log, 4, 4), Error);
}

TEST(ShardInstancesTest, ShardLogAnswersItsSliceOfAQuery) {
  const Log log = workload::clinic(30, 5);
  const std::size_t k = 3;
  const QueryEngine whole(log);
  const std::size_t total = whole.count("GetRefer -> SeeDoctor");
  std::size_t sum = 0;
  for (std::size_t s = 0; s < k; ++s) {
    const Log sub = shard_instances(log, s, k);
    sum += QueryEngine(sub).count("GetRefer -> SeeDoctor");
  }
  EXPECT_EQ(sum, total);
}

}  // namespace
}  // namespace wflog
