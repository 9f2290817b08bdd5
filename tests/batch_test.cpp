// Batch engine (core/batch.h, QueryEngine::run_batch):
//   * differential property: run_batch of N queries is bit-identical to N
//     independent runs — on one shard and on several shards scattered on
//     a worker pool, with and without the subpattern cache, on random
//     logs and random patterns,
//   * the planner actually finds sharing (slots < nodes, nonzero hits),
//   * where clauses and duplicate queries behave exactly as in run().

#include "core/batch.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/rewriter.h"
#include "core/shard.h"
#include "core/synthetic.h"
#include "test_util.h"
#include "workflow/workload.h"

namespace wflog {
namespace {

using testing::make_log;

QueryOptions shard_options(std::size_t shards) {
  QueryOptions options;
  options.shards = shards;
  return options;
}

// ----- evaluator-level differential --------------------------------------

/// evaluate_batch over a K-shard plan on a pool of K-1 workers (the
/// engine's configuration), so every shard of the pass can run at once.
std::vector<IncidentSet> evaluate_batch_sharded(
    std::span<const PatternPtr> patterns, const LogIndex& index,
    std::size_t shards, BatchOptions opts, BatchEvalStats* stats = nullptr) {
  const ShardPlan plan(index.wids(), shards);
  ShardPool pool(plan.num_shards() - 1);
  opts.shard_plan = &plan;
  opts.shard_pool = &pool;
  return evaluate_batch(patterns, index, opts, stats);
}

class BatchDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BatchDifferentialTest, MatchesIndependentEvaluationEverywhere) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const Log log = workload::random_process(12 + rng.index(10), seed);
  const LogIndex index(log);

  RandomPatternOptions pat;
  pat.max_depth = 3;
  pat.predicate_probability = 0.1;
  std::vector<PatternPtr> patterns;
  for (int q = 0; q < 6; ++q) patterns.push_back(random_pattern(rng, pat));
  // Force overlap: one query is another's subtree, one is a duplicate.
  patterns.push_back(patterns[0]->is_atom() ? patterns[0]
                                            : patterns[0]->left());
  patterns.push_back(patterns[1]);

  const Evaluator ev(index);
  std::vector<IncidentSet> expected;
  for (const PatternPtr& p : patterns) expected.push_back(ev.evaluate(*p));

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const bool use_cache : {true, false}) {
      BatchOptions opts;
      opts.use_cache = use_cache;
      BatchEvalStats stats;
      const std::vector<IncidentSet> got =
          evaluate_batch_sharded(patterns, index, shards, opts, &stats);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t q = 0; q < expected.size(); ++q) {
        EXPECT_EQ(got[q], expected[q])
            << "seed=" << seed << " q=" << q << " shards=" << shards
            << " cache=" << use_cache;
      }
      EXPECT_EQ(stats.threads_used, shards);
      EXPECT_EQ(stats.plan.num_queries, patterns.size());
      EXPECT_GT(stats.plan.total_nodes, stats.plan.distinct_slots)
          << "duplicate + subtree queries must share slots";
      if (use_cache) {
        // The duplicated query alone guarantees hits in every instance
        // that evaluates it.
        EXPECT_GT(stats.counters.cache_hits, 0u) << "seed=" << seed;
        EXPECT_GT(stats.counters.cache_bytes, 0u) << "seed=" << seed;
      } else {
        EXPECT_EQ(stats.counters.cache_hits, 0u);
        EXPECT_EQ(stats.counters.cache_misses, 0u);
      }
    }
  }
}

TEST_P(BatchDifferentialTest, AgreesUnderSpanWindowsAndNaiveOperators) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5042);
  const Log log = workload::random_process(10, seed);
  const LogIndex index(log);

  RandomPatternOptions pat;
  pat.max_depth = 3;
  std::vector<PatternPtr> patterns;
  for (int q = 0; q < 5; ++q) patterns.push_back(random_pattern(rng, pat));

  for (const bool optimized_ops : {true, false}) {
    for (const IsLsn span : {IsLsn{0}, IsLsn{4}}) {
      EvalOptions eval;
      eval.use_optimized_operators = optimized_ops;
      eval.max_span = span;
      const Evaluator ev(index, eval);
      BatchOptions opts;
      opts.eval = eval;
      const std::vector<IncidentSet> got =
          evaluate_batch_sharded(patterns, index, 2, opts);
      for (std::size_t q = 0; q < patterns.size(); ++q) {
        EXPECT_EQ(got[q], ev.evaluate(*patterns[q]))
            << "seed=" << seed << " span=" << span
            << " opt=" << optimized_ops;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// ----- engine-level run_batch --------------------------------------------

TEST(RunBatchTest, MatchesRunPerQuery) {
  const Log log = workload::clinic(30, 0xBA7C);
  const std::vector<std::string> queries = {
      "GetRefer -> GetReimburse",
      "SeeDoctor -> (UpdateRefer -> GetReimburse)",
      "(GetRefer -> GetReimburse) | (CheckIn . SeeDoctor)",
      "GetRefer -> GetReimburse",  // duplicate of [0]
      "CheckIn & SeeDoctor",
  };
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    const QueryEngine engine(log, shard_options(shards));
    for (const bool use_cache : {true, false}) {
      const BatchResult batch = engine.run_batch(queries, 1, use_cache);
      EXPECT_EQ(batch.stats.threads_used, shards);
      ASSERT_EQ(batch.num_queries(), queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const QueryResult solo = engine.run(queries[q]);
        EXPECT_EQ(batch.results[q].incidents, solo.incidents)
            << queries[q] << " shards=" << shards
            << " cache=" << use_cache;
        EXPECT_TRUE(
            batch.results[q].executed->structurally_equal(*solo.executed))
            << "optimizer must choose the same plan inside a batch";
      }
      if (use_cache) EXPECT_GT(batch.cache_hits(), 0u);
    }
  }
}

TEST(RunBatchTest, WhereClausesFilterExactlyAsRun) {
  const Log log = workload::procurement(25, 0xF00D);
  const QueryEngine engine(log, shard_options(2));
  const std::vector<std::string> queries = {
      "c:CreatePO -> p:Pay where c.out.poAmount > 1000",
      "c:CreatePO -> p:Pay",
      "c:CreatePO -> p:Pay where c.out.poAmount > 1000000000",
  };
  const BatchResult batch = engine.run_batch(queries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(batch.results[q].incidents,
              engine.run(queries[q]).incidents)
        << queries[q];
  }
  // Sanity: the unfiltered query dominates the filtered ones.
  EXPECT_LE(batch.results[0].total(), batch.results[1].total());
  EXPECT_EQ(batch.results[2].total(), 0u);
}

TEST(RunBatchTest, EmptyBatchAndSingleQueryAreFine) {
  const Log log = make_log("a b c ; a c b");
  QueryEngine engine(log);
  EXPECT_EQ(engine.run_batch(std::vector<std::string>{}).num_queries(), 0u);

  const std::vector<std::string> one = {"a -> b"};
  const BatchResult batch = engine.run_batch(one);
  ASSERT_EQ(batch.num_queries(), 1u);
  EXPECT_EQ(batch.results[0].incidents, engine.run("a -> b").incidents);
}

TEST(RunBatchTest, EquivalentlyWrittenQueriesShareSlots) {
  const Log log = make_log("a b c d ; a c b d ; d c b a");
  QueryEngine engine(log, QueryOptions{.optimize = false});
  // Same queries modulo Theorems 2/3: associativity + ⊗ commutativity.
  const std::vector<std::string> queries = {
      "(a -> b) -> (c | d)",
      "a -> (b -> (d | c))",
  };
  const BatchResult batch = engine.run_batch(queries);
  EXPECT_EQ(batch.results[0].incidents, batch.results[1].incidents);
  // 14 parsed nodes; 8 keys — a, b, c, d, c|d ≡ d|c (Theorem 3), the two
  // roots ≡ by chain flattening (Theorem 2), and the two distinct inner
  // partial chains a->b and b->(d|c).
  EXPECT_EQ(batch.stats.plan.total_nodes, 14u);
  EXPECT_EQ(batch.stats.plan.distinct_slots, 8u);
  EXPECT_GT(batch.cache_hits(), 0u);
}

// ----- canonical keys under random law applications ----------------------

TEST(CanonicalKeyPropertyTest, RotationAndCommutationChainsPreserveKeys) {
  // Theorems 2-4 as rewriter moves (rotate_left/rotate_right/commute):
  // random chains of them never change the canonical key, and the
  // resulting structurally-different tree evaluates identically — the
  // exact soundness contract the batch memo relies on.
  const Log log = workload::random_process(8, 0x1234);
  const LogIndex index(log);
  const Evaluator ev(index);
  Rng rng(0xCA11);

  RandomPatternOptions opts;
  opts.max_depth = 4;
  opts.negation_probability = 0.1;
  int rewritten_trials = 0;
  for (int trial = 0; trial < 120; ++trial) {
    PatternPtr p = random_pattern(rng, opts);
    const std::string key = canonical_key(*p);
    const IncidentSet expected = ev.evaluate(*p);

    PatternPtr q = p;
    bool moved = false;
    for (int step = 0; step < 6; ++step) {
      std::vector<rewrite::Step> moves;
      for (rewrite::Step& s : rewrite::neighbors(q)) {
        if (s.rule.starts_with("rotate") || s.rule.starts_with("commute")) {
          moves.push_back(std::move(s));
        }
      }
      if (moves.empty()) break;
      q = moves[rng.index(moves.size())].result;
      moved = true;
    }
    ASSERT_EQ(canonical_key(*q), key) << "trial=" << trial;
    if (moved && !q->structurally_equal(*p)) {
      ++rewritten_trials;
      EXPECT_EQ(ev.evaluate(*q), expected) << "key=" << key;
    }
  }
  // The generator must actually exercise the interesting case.
  EXPECT_GT(rewritten_trials, 20);
}

// ----- memo reuse across instances must NOT leak -------------------------

TEST(BatchMemoTest, ResultsAreInstanceLocal) {
  // Two instances with different occurrence sets: any cross-instance cache
  // leak would surface as wrong counts for one of them.
  const Log log = make_log("a b a b ; b a");
  const LogIndex index(log);
  std::vector<PatternPtr> patterns = {parse_pattern("a -> b"),
                                      parse_pattern("a -> b")};
  const std::vector<IncidentSet> got = evaluate_batch(patterns, index);
  const Evaluator ev(index);
  EXPECT_EQ(got[0], ev.evaluate(*patterns[0]));
  EXPECT_EQ(got[1], got[0]);
}

}  // namespace
}  // namespace wflog
