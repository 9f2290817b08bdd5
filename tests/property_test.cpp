// Cross-cutting randomized properties:
//   * parser robustness (garbage never crashes, only ParseError),
//   * print/parse round trip on random patterns,
//   * serialization round trips on random simulated logs (CSV/JSONL/XES),
//   * Theorem 1's combinatorics: the ⊕-chain on the uniform log produces
//     exactly C(m, k+1) incidents under set semantics,
//   * optimizer/rewrites remain sound under span windows,
//   * pooled sharded evaluation agrees with serial under every option.

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/printer.h"
#include "core/rewriter.h"
#include "core/shard.h"
#include "log/io_csv.h"
#include "log/io_jsonl.h"
#include "log/io_xes.h"
#include "test_util.h"
#include "workflow/workload.h"

namespace wflog {
namespace {

// ----- parser robustness -------------------------------------------------

PatternPtr random_deep_pattern(Rng& rng, std::size_t depth) {
  if (depth == 0 || rng.bernoulli(0.35)) {
    static const char* kNames[] = {"a", "bb", "C_3", "GetRefer", "x9"};
    PredicatePtr pred;
    if (rng.bernoulli(0.2)) {
      pred = Predicate::compare(
          rng.bernoulli(0.5) ? MapSel::kIn : MapSel::kOut, "attr",
          CmpOp::kGt, Value{static_cast<std::int64_t>(rng.uniform(0, 99))});
    }
    return Pattern::atom(kNames[rng.index(5)], rng.bernoulli(0.25), pred);
  }
  static constexpr PatternOp kOps[] = {
      PatternOp::kConsecutive, PatternOp::kSequential, PatternOp::kChoice,
      PatternOp::kParallel};
  return Pattern::combine(kOps[rng.index(4)],
                          random_deep_pattern(rng, depth - 1),
                          random_deep_pattern(rng, depth - 1));
}

TEST(ParserFuzzTest, GarbageNeverCrashes) {
  Rng rng(0xF422);
  static const char kAlphabet[] =
      "abcXYZ_01 ->.|&!()[]\"<>=~%$\t\n\xc2\xac\xe2\x8a\x99";
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const std::size_t len = rng.index(40);
    for (std::size_t j = 0; j < len; ++j) {
      text += kAlphabet[rng.index(sizeof(kAlphabet) - 1)];
    }
    try {
      const PatternPtr p = parse_pattern(text);
      ASSERT_NE(p, nullptr);  // parsed fine — also acceptable
    } catch (const ParseError&) {
      // expected for most inputs
    } catch (const QueryError&) {
      // e.g. empty activity names
    }
  }
}

TEST(ParserFuzzTest, MutatedValidPatternsNeverCrash) {
  Rng rng(0xF423);
  for (int i = 0; i < 500; ++i) {
    std::string text = to_text(*random_deep_pattern(rng, 3));
    // Flip one byte.
    if (!text.empty()) {
      text[rng.index(text.size())] =
          static_cast<char>(rng.uniform(32, 126));
    }
    try {
      parse_pattern(text);
    } catch (const ParseError&) {
    } catch (const QueryError&) {
    }
  }
}

TEST(PrintParseRoundTripTest, RandomPatterns) {
  Rng rng(0x50F7);
  for (int i = 0; i < 300; ++i) {
    const PatternPtr p = random_deep_pattern(rng, 4);
    const std::string text = to_text(*p);
    const PatternPtr q = parse_pattern(text);
    ASSERT_TRUE(p->structurally_equal(*q)) << text;
    // And printing is a fixpoint after one round.
    EXPECT_EQ(to_text(*q), text);
  }
}

// ----- serialization round trips ----------------------------------------

class SerializationRoundTripTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializationRoundTripTest, AllFormatsPreserveQueries) {
  const Log log = workload::random_process(15, GetParam());
  const Log via_csv = csv_to_log(to_csv(log));
  const Log via_jsonl = jsonl_to_log(to_jsonl(log));
  const Log via_xes = xes_to_log(to_xes(log));

  QueryEngine original(log);
  QueryEngine csv_engine(via_csv);
  QueryEngine jsonl_engine(via_jsonl);
  QueryEngine xes_engine(via_xes);
  const char* queries[] = {"A0", "A0 -> A1", "A1 . A2", "!A0 -> A1",
                           "A0 & A1", "(A0 | A1) -> A2"};
  for (const char* q : queries) {
    const IncidentSet expected = original.run(q).incidents;
    EXPECT_EQ(csv_engine.run(q).incidents, expected) << "csv " << q;
    EXPECT_EQ(jsonl_engine.run(q).incidents, expected) << "jsonl " << q;
    EXPECT_EQ(xes_engine.run(q).incidents, expected) << "xes " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationRoundTripTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// ----- Theorem 1 combinatorics -------------------------------------------

std::size_t binomial(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  std::size_t result = 1;
  for (std::size_t i = 0; i < k; ++i) {
    result = result * (n - i) / (i + 1);
  }
  return result;
}

TEST(WorstCaseTest, ParallelChainYieldsBinomialCounts) {
  // Log: single instance, m records of activity t (plus sentinels).
  // ((t ⊕ t) ⊕ ...) with k operators matches every (k+1)-subset of the m
  // records exactly once under Definition 4's set semantics.
  for (std::size_t m : {4u, 6u, 8u}) {
    const Log log = workload::worstcase(m);
    const LogIndex index(log);
    const Evaluator ev(index);
    PatternPtr p = Pattern::atom("t");
    for (std::size_t k = 1; k <= 3; ++k) {
      p = Pattern::parallel(p, Pattern::atom("t"));
      EXPECT_EQ(ev.evaluate(*p).total(), binomial(m, k + 1))
          << "m=" << m << " k=" << k;
    }
  }
}

TEST(WorstCaseTest, SequentialChainYieldsBinomialCountsToo) {
  // t ≫ t ≫ ... selects increasing tuples = subsets as well.
  const Log log = workload::worstcase(8);
  const LogIndex index(log);
  const Evaluator ev(index);
  using namespace dsl;
  EXPECT_EQ(ev.evaluate(*(A("t") >> A("t"))).total(), binomial(8, 2));
  EXPECT_EQ(ev.evaluate(*((A("t") >> A("t")) >> A("t"))).total(),
            binomial(8, 3));
}

TEST(WorstCaseTest, ConsecutiveChainIsLinear) {
  const Log log = workload::worstcase(10);
  const LogIndex index(log);
  const Evaluator ev(index);
  using namespace dsl;
  // t.t: 9 adjacent pairs among the 10 t-records (positions 2..11).
  EXPECT_EQ(ev.evaluate(*(A("t") + A("t"))).total(), 9u);
  EXPECT_EQ(ev.evaluate(*((A("t") + A("t")) + A("t"))).total(), 8u);
}

// ----- rewrites under span windows ---------------------------------------

TEST(SpanRewriteTest, NeighborsPreserveWindowedSemantics) {
  const Log log = workload::random_process(20, 99);
  const LogIndex index(log);
  EvalOptions windowed;
  windowed.max_span = 4;
  const Evaluator ev(index, windowed);

  const char* queries[] = {"(A0 -> A1) -> A2", "A0 -> (A1 | A2)",
                           "(A0 | A1) & A2", "(A0 . A1) -> A2"};
  for (const char* q : queries) {
    const PatternPtr p = parse_pattern(q);
    const IncidentList expected = ev.evaluate(*p).flatten();
    for (const auto& step : rewrite::neighbors(p)) {
      EXPECT_EQ(ev.evaluate(*step.result).flatten(), expected)
          << q << " via " << step.rule;
    }
  }
}

// ----- serial vs pooled shards under every option -------------------------

TEST(ShardConsistencyTest, OptionsMatrixAgrees) {
  const Log log = workload::random_process(25, 41);
  const LogIndex index(log);
  const PatternPtr p = parse_pattern("(A0 -> A1) | (A2 & A3)");
  const ShardPlan plan(index.wids(), 4);
  ShardPool pool(plan.num_shards() - 1);
  for (bool optimized : {false, true}) {
    for (IsLsn span : {IsLsn{0}, IsLsn{3}}) {
      EvalOptions eval_opts;
      eval_opts.use_optimized_operators = optimized;
      eval_opts.max_span = span;
      const Evaluator serial(index, eval_opts);
      ShardEvalOptions sharded;
      sharded.eval = eval_opts;
      sharded.pool = &pool;
      EXPECT_EQ(evaluate_sharded(*p, index, plan, sharded),
                serial.evaluate(*p))
          << "optimized=" << optimized << " span=" << span;
    }
  }
}

}  // namespace
}  // namespace wflog
