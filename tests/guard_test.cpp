// Resource-guarded, cancellable query execution (core/guard.h + engine).
//
// The adversarial input is Theorem 1's worst case: the pattern
// "a -> a -> a" over a single instance of m identical 'a' records has
// C(m, 3) = Θ(m³) incidents — large enough that a small deadline or
// incident budget trips mid-evaluation. Guards must then return a FLAGGED
// PARTIAL result (never throw), and generous limits must change nothing.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/engine.h"
#include "core/guard.h"
#include "core/join.h"
#include "log/builder.h"
#include "test_util.h"

namespace wflog {
namespace {

/// One instance of `m` consecutive 'a' activities.
Log all_a_log(std::size_t m) {
  std::string spec;
  for (std::size_t i = 0; i < m; ++i) spec += "a ";
  return testing::make_log(spec);
}

QueryOptions shard_options(std::size_t shards) {
  QueryOptions options;
  options.shards = shards;
  return options;
}

constexpr std::size_t kM = 200;
constexpr const char* kWorstCase = "a -> a -> a";

std::size_t full_count() {
  // C(200, 3): every ascending triple of 'a' positions is an incident.
  return kM * (kM - 1) * (kM - 2) / 6;
}

TEST(GuardTest, UnlimitedRunIsComplete) {
  const Log log = all_a_log(kM);
  const QueryEngine engine(log);
  const QueryResult r = engine.run(kWorstCase);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.stop_reason, StopReason::kNone);
  EXPECT_EQ(r.total(), full_count());
}

TEST(GuardTest, DeadlineReturnsFlaggedPartialResult) {
  const Log log = all_a_log(kM);
  QueryOptions options;
  options.deadline = std::chrono::milliseconds{1};
  const QueryEngine engine(log, options);
  // Θ(m³) pair-joins take well over a millisecond; the run must come back
  // anyway, flagged, with whatever it had — not throw, not block.
  const QueryResult r = engine.run(kWorstCase);
  EXPECT_TRUE(r.ok());
  if (r.timed_out()) {
    EXPECT_FALSE(r.complete());
    EXPECT_LE(r.total(), full_count());
  } else {
    // A very fast machine may finish inside the deadline; then the result
    // must be the full answer.
    EXPECT_TRUE(r.complete());
    EXPECT_EQ(r.total(), full_count());
  }
}

TEST(GuardTest, TinyDeadlineOnHugeLogTimesOut) {
  // Scale m up until even evaluation startup exceeds the deadline budget;
  // 600 records → ~36M incidents, far beyond 1ms of work.
  const Log log = all_a_log(600);
  QueryOptions options;
  options.deadline = std::chrono::milliseconds{1};
  const QueryEngine engine(log, options);
  const QueryResult r = engine.run(kWorstCase);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.timed_out()) << "stop_reason="
                             << stop_reason_name(r.stop_reason);
  EXPECT_LT(r.total(), 600u * 599u * 598u / 6);
}

TEST(GuardTest, IncidentBudgetTruncates) {
  const Log log = all_a_log(kM);
  QueryOptions options;
  options.max_incidents = 1000;
  const QueryEngine engine(log, options);
  const QueryResult r = engine.run(kWorstCase);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.truncated());
  EXPECT_FALSE(r.complete());
  EXPECT_LT(r.total(), full_count());
}

TEST(GuardTest, GenerousBudgetLeavesResultIdentical) {
  const Log log = all_a_log(40);  // C(40,3) = 9880
  const QueryEngine unrestricted(log);
  QueryOptions options;
  options.deadline = std::chrono::minutes{10};
  options.max_incidents = 10'000'000;
  options.cancel = make_cancel_token();
  const QueryEngine guarded(log, options);

  const QueryResult full = unrestricted.run(kWorstCase);
  const QueryResult r = guarded.run(kWorstCase);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.stop_reason, StopReason::kNone);
  EXPECT_EQ(r.total(), full.total());
  EXPECT_EQ(r.incidents.flatten(), full.incidents.flatten());
}

TEST(GuardTest, PreCancelledTokenStopsImmediately) {
  const Log log = all_a_log(kM);
  QueryOptions options;
  options.cancel = make_cancel_token();
  options.cancel->store(true);  // cancelled before the run starts
  const QueryEngine engine(log, options);
  const QueryResult r = engine.run(kWorstCase);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.cancelled());
  EXPECT_EQ(r.total(), 0u);
}

TEST(GuardTest, FirstTripReasonWins) {
  // Both a pre-set cancel token and a tiny incident budget: cancellation
  // is checked first, so it must be the reported reason.
  const Log log = all_a_log(kM);
  QueryOptions options;
  options.max_incidents = 1;
  options.cancel = make_cancel_token();
  options.cancel->store(true);
  const QueryEngine engine(log, options);
  const QueryResult r = engine.run(kWorstCase);
  EXPECT_TRUE(r.cancelled());
}

TEST(GuardTest, StopReasonNames) {
  EXPECT_STREQ(stop_reason_name(StopReason::kNone), "none");
  EXPECT_STREQ(stop_reason_name(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(stop_reason_name(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(stop_reason_name(StopReason::kIncidentBudget),
               "incident-budget");
}

// ----- batch failure isolation ---------------------------------------------

TEST(GuardTest, BatchIsolatesParseFailure) {
  const Log log = testing::make_log("a b c ; a c b ; b a c");
  const QueryEngine engine(log);
  const std::vector<std::string> texts = {"a -> b", "((( not a query",
                                          "b -> c"};
  const BatchResult batch = engine.run_batch(texts);
  ASSERT_EQ(batch.results.size(), 3u);

  EXPECT_TRUE(batch.results[0].ok());
  EXPECT_FALSE(batch.results[1].ok());
  EXPECT_FALSE(batch.results[1].error.empty());
  EXPECT_EQ(batch.results[1].total(), 0u);
  EXPECT_TRUE(batch.results[2].ok());

  // Differential: the surviving queries' answers match standalone runs.
  EXPECT_EQ(batch.results[0].incidents.flatten(),
            engine.run(texts[0]).incidents.flatten());
  EXPECT_EQ(batch.results[2].incidents.flatten(),
            engine.run(texts[2]).incidents.flatten());
}

TEST(GuardTest, BatchIsolatesWhereFailure) {
  const Log log = testing::make_log("a b ; b a");
  const QueryEngine engine(log);
  // A where clause naming a variable the pattern never binds throws
  // QueryError; the other queries are untouched.
  const std::vector<std::string> texts = {
      "a -> b", "x:a -> b where nosuch.out.k = 1", "b"};
  const BatchResult batch = engine.run_batch(texts);
  ASSERT_EQ(batch.results.size(), 3u);
  EXPECT_TRUE(batch.results[0].ok());
  EXPECT_FALSE(batch.results[1].ok());
  EXPECT_TRUE(batch.results[2].ok());
  EXPECT_EQ(batch.results[0].incidents.flatten(),
            engine.run(texts[0]).incidents.flatten());
  EXPECT_EQ(batch.results[2].incidents.flatten(),
            engine.run(texts[2]).incidents.flatten());
}

TEST(GuardTest, BatchAllGoodMatchesIndividualRuns) {
  const Log log = testing::make_log("a b c d ; d c b a ; a c a c");
  const QueryEngine engine(log, shard_options(2));
  const std::vector<std::string> texts = {"a -> b", "a . c", "(a | d) -> c",
                                          "a & d"};
  const BatchResult batch = engine.run_batch(texts);
  EXPECT_EQ(batch.stats.threads_used, 2u);
  ASSERT_EQ(batch.results.size(), texts.size());
  for (std::size_t q = 0; q < texts.size(); ++q) {
    EXPECT_TRUE(batch.results[q].ok());
    EXPECT_EQ(batch.results[q].incidents.flatten(),
              engine.run(texts[q]).incidents.flatten())
        << texts[q];
  }
}

// ----- guard coverage in the where / predicate / aggregation layers ------

/// Three instances of a -> b where the attributes make the join succeed.
Log attr_log() {
  LogBuilder b;
  for (int i = 0; i < 3; ++i) {
    const Wid wid = b.begin_instance();
    b.append(wid, "a", {}, {{"k", Value(std::int64_t{1})}});
    b.append(wid, "b", {{"k", Value(std::int64_t{1})}}, {});
    b.end_instance(wid);
  }
  return b.build();
}

TEST(GuardTest, WhereFilterStopsOnTrippedGuard) {
  const Log log = attr_log();
  const LogIndex index(log);
  Evaluator ev(index);
  const ParsedQuery q = parse_query("x:a -> y:b where x.out.k = y.in.k");
  const IncidentSet all = ev.evaluate(*q.pattern);

  const IncidentSet unguarded = filter_where(all, *q.pattern, *q.where, index);
  EXPECT_EQ(unguarded.total(), 3u);

  // A pre-cancelled guard must stop the where pass before the first
  // incident is even examined — the filtered set is an (empty) prefix.
  const CancelToken cancel = make_cancel_token();
  cancel->store(true);
  const EvalGuard guard(std::chrono::milliseconds{0}, 0, cancel);
  const IncidentSet guarded =
      filter_where(all, *q.pattern, *q.where, index, &guard);
  EXPECT_EQ(guarded.total(), 0u);
  EXPECT_EQ(guard.reason(), StopReason::kCancelled);
}

TEST(GuardTest, EngineRunFlagsWhereFilterTimeout) {
  // Engine-level version: a cancel token set before the run means the
  // guard trips during evaluation AND the subsequent where filtering —
  // the result must still come back flagged, never throw.
  const Log log = attr_log();
  QueryOptions options;
  options.cancel = make_cancel_token();
  options.cancel->store(true);
  const QueryEngine engine(log, options);
  const QueryResult r = engine.run("x:a -> y:b where x.out.k = y.in.k");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.cancelled());
  EXPECT_EQ(r.total(), 0u);
}

TEST(GuardTest, PredicateFilterPollsGuard) {
  // A single-ATOM pattern with a predicate: evaluation is exactly
  // eval_atom's occurrence scan, so a tripped guard must cut that scan
  // short (this is the regression test for predicate filtering running
  // unguarded — it used to scan all m records regardless).
  constexpr std::size_t kRecords = 4096;
  LogBuilder b;
  const Wid wid = b.begin_instance();
  for (std::size_t i = 0; i < kRecords; ++i) {
    b.append(wid, "a", {}, {{"k", Value(std::int64_t(i))}});
  }
  b.end_instance(wid);
  const Log log = b.build();

  QueryOptions options;
  options.cancel = make_cancel_token();
  options.cancel->store(true);
  const QueryEngine engine(log, options);
  const QueryResult r = engine.run("a[k >= 0]");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.cancelled());
  // GuardPoll strides 256 iterations between checks, so a few incidents
  // slip through before the first poll — but nowhere near all of them.
  EXPECT_LT(r.total(), kRecords);
}

TEST(GuardTest, SlowPredicateRespectsDeadline) {
  // The satellite's motivating case: predicate evaluation itself can be
  // slow (string compares over long values), so the deadline must be
  // polled inside the occurrence scan, not only between operators.
  const std::string needle(64, 'x');
  LogBuilder b;
  const Wid wid = b.begin_instance();
  for (std::size_t i = 0; i < 50'000; ++i) {
    b.append(wid, "a", {}, {{"tag", Value(std::string(needle))}});
  }
  b.end_instance(wid);
  const Log log = b.build();

  QueryOptions options;
  options.deadline = std::chrono::milliseconds{1};
  const QueryEngine engine(log, options);
  const QueryResult r =
      engine.run("a[tag = \"" + needle + "\"] -> a[tag = \"" + needle +
                 "\"]");
  EXPECT_TRUE(r.ok());
  if (r.timed_out()) {
    EXPECT_FALSE(r.complete());
  } else {
    // A machine fast enough to finish inside 1ms must return everything:
    // C(50000, 2) pairs — in practice this branch never runs, but the
    // guard contract (complete XOR flagged) is what we assert.
    EXPECT_TRUE(r.complete());
  }
}

TEST(GuardTest, GroupByStopsOnTrippedGuard) {
  const Log log = attr_log();
  const LogIndex index(log);
  Evaluator ev(index);
  const IncidentSet set = ev.evaluate(*parse_pattern("a -> b"));
  const GroupKey key{"a", MapSel::kOut, "k"};

  const std::vector<GroupCount> unguarded =
      group_by_attribute(set, index, key);
  ASSERT_EQ(unguarded.size(), 1u);
  EXPECT_EQ(unguarded[0].instances, 3u);

  const CancelToken cancel = make_cancel_token();
  cancel->store(true);
  const EvalGuard guard(std::chrono::milliseconds{0}, 0, cancel);
  const std::vector<GroupCount> guarded =
      group_by_attribute(set, index, key, &guard);
  EXPECT_TRUE(guarded.empty());
  EXPECT_EQ(guard.reason(), StopReason::kCancelled);
}

// ----- per-call RunLimits over engine-wide defaults ----------------------

TEST(GuardTest, RunLimitsOverrideUnlimitedEngine) {
  // The engine has no limits; a per-call deadline must still bound the run.
  const Log log = all_a_log(600);
  const QueryEngine engine(log);
  RunLimits limits;
  limits.deadline = std::chrono::milliseconds{1};
  const QueryResult r = engine.run(kWorstCase, limits);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.timed_out());
  EXPECT_LT(r.total(), 600u * 599u * 598u / 6);
}

TEST(GuardTest, RunLimitsLoosenTightEngineDefault) {
  // Per-call limits REPLACE the engine default field-by-field, so one
  // caller can run with a generous budget on an engine configured tight.
  const Log log = all_a_log(40);
  QueryOptions options;
  options.deadline = std::chrono::milliseconds{1};
  const QueryEngine engine(log, options);
  RunLimits limits;
  limits.deadline = std::chrono::minutes{10};
  const QueryResult r = engine.run(kWorstCase, limits);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.total(), 40u * 39u * 38u / 6);
}

TEST(GuardTest, RunLimitsCancelToken) {
  const Log log = all_a_log(kM);
  const QueryEngine engine(log);
  RunLimits limits;
  limits.cancel = make_cancel_token();
  limits.cancel->store(true);
  const QueryResult r = engine.run(kWorstCase, limits);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.cancelled());
}

TEST(GuardTest, BatchRunLimitsApplyToEverySlot) {
  const Log log = all_a_log(kM);
  const QueryEngine engine(log);
  RunLimits limits;
  limits.max_incidents = 500;
  const std::vector<std::string> texts = {kWorstCase, "a -> a"};
  const BatchResult batch =
      engine.run_batch(texts, /*threads (ignored)=*/1, /*use_cache=*/true,
                       limits);
  ASSERT_EQ(batch.results.size(), 2u);
  for (const QueryResult& r : batch.results) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.stop_reason, StopReason::kIncidentBudget);
  }
}

TEST(GuardTest, BatchHonoursIncidentBudget) {
  const Log log = all_a_log(kM);
  QueryOptions options;
  options.max_incidents = 500;
  const QueryEngine engine(log, options);
  const std::vector<std::string> texts = {kWorstCase, "a -> a"};
  const BatchResult batch = engine.run_batch(texts);
  ASSERT_EQ(batch.results.size(), 2u);
  // The shared pass tripped the budget: results are flagged partial.
  for (const QueryResult& r : batch.results) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.stop_reason, StopReason::kIncidentBudget);
  }
}

TEST(GuardTest, BatchStoppedBeforeLaterInstancesReturnsPartialSets) {
  // The guard trips in the first instance, so every later instance of
  // the pass is skipped; the gather must treat them as empty (it once
  // indexed their never-filled result slots).
  const Log log =
      testing::make_log("a b a ; a b a ; a b a ; a b a ; a b a ; a b a");
  const std::vector<std::string> texts = {"a -> b", "a", "b . a"};
  for (const std::size_t shards : {1, 3}) {
    const QueryEngine engine(log, shard_options(shards));
    RunLimits cancelled;
    cancelled.cancel = make_cancel_token();
    cancelled.cancel->store(true);
    RunLimits budget;
    budget.max_incidents = 1;
    for (const RunLimits& limits : {cancelled, budget}) {
      const BatchResult batch = engine.run_batch(texts, 1, true, limits);
      ASSERT_EQ(batch.results.size(), texts.size());
      for (std::size_t q = 0; q < texts.size(); ++q) {
        const QueryResult& r = batch.results[q];
        EXPECT_TRUE(r.ok()) << texts[q];
        EXPECT_FALSE(r.complete()) << texts[q] << " shards=" << shards;
        EXPECT_LT(r.total(), engine.run(texts[q]).total()) << texts[q];
      }
    }
  }
}

}  // namespace
}  // namespace wflog
