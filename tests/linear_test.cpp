#include "core/linear.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "log/builder.h"
#include "test_util.h"
#include "workflow/workload.h"

namespace wflog {
namespace {

using testing::make_log;

// ----- chain detection ---------------------------------------------------

TEST(LinearChainTest, DetectsTemporalChains) {
  auto chain = as_linear_chain(*parse_pattern("a -> b . c -> d"));
  ASSERT_TRUE(chain.has_value());
  ASSERT_EQ(chain->size(), 4u);
  EXPECT_EQ((*chain)[0].activity, "a");
  EXPECT_FALSE((*chain)[1].consecutive);  // a -> b
  EXPECT_TRUE((*chain)[2].consecutive);   // b . c
  EXPECT_FALSE((*chain)[3].consecutive);  // c -> d
}

TEST(LinearChainTest, AnyGroupingFlattensIdentically) {
  const auto left = as_linear_chain(*parse_pattern("(a . b) -> c"));
  const auto right = as_linear_chain(*parse_pattern("a . (b -> c)"));
  ASSERT_TRUE(left.has_value());
  ASSERT_TRUE(right.has_value());
  ASSERT_EQ(left->size(), right->size());
  for (std::size_t i = 0; i < left->size(); ++i) {
    EXPECT_EQ((*left)[i].activity, (*right)[i].activity);
    EXPECT_EQ((*left)[i].consecutive, (*right)[i].consecutive);
  }
}

TEST(LinearChainTest, RejectsNonLinearShapes) {
  EXPECT_FALSE(as_linear_chain(*parse_pattern("a | b")).has_value());
  EXPECT_FALSE(as_linear_chain(*parse_pattern("a & b")).has_value());
  EXPECT_FALSE(as_linear_chain(*parse_pattern("!a -> b")).has_value());
  EXPECT_FALSE(as_linear_chain(*parse_pattern("a[x > 1] -> b")).has_value());
  EXPECT_FALSE(
      as_linear_chain(*parse_pattern("a -> (b | c)")).has_value());
}

TEST(LinearChainTest, SingleAtomIsAChain) {
  const auto chain = as_linear_chain(*parse_pattern("a"));
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->size(), 1u);
}

// ----- counting ----------------------------------------------------------

std::size_t count_via_chain(const Log& log, const char* text) {
  const LogIndex index(log);
  const auto chain = as_linear_chain(*parse_pattern(text));
  EXPECT_TRUE(chain.has_value()) << text;
  return count_linear(*chain, index);
}

std::size_t count_via_evaluator(const Log& log, const char* text) {
  const LogIndex index(log);
  const Evaluator ev(index);
  return ev.evaluate(*parse_pattern(text)).total();  // materializes
}

TEST(LinearCountTest, HandComputedCounts) {
  const Log log = make_log("a b a b");
  // a at 2,4; b at 3,5; pairs a->b: (2,3)(2,5)(4,5) = 3; a.b: (2,3)(4,5).
  EXPECT_EQ(count_via_chain(log, "a -> b"), 3u);
  EXPECT_EQ(count_via_chain(log, "a . b"), 2u);
  EXPECT_EQ(count_via_chain(log, "b -> a"), 1u);
  EXPECT_EQ(count_via_chain(log, "a"), 2u);
  EXPECT_EQ(count_via_chain(log, "a -> a"), 1u);
}

TEST(LinearCountTest, MissingActivityGivesZero) {
  const Log log = make_log("a b");
  EXPECT_EQ(count_via_chain(log, "a -> zzz"), 0u);
  EXPECT_EQ(count_via_chain(log, "zzz"), 0u);
}

TEST(LinearCountTest, ChainWorkloadClosedForm) {
  // chain(5, 3, 4): per instance A0/A1 each 4x alternating; count(A0->A1)
  // per instance = 4+3+2+1 = 10.
  const Log log = workload::chain(5, 3, 4);
  EXPECT_EQ(count_via_chain(log, "A0 -> A1"), 50u);
  EXPECT_EQ(count_via_chain(log, "A0 . A1"), 20u);
  EXPECT_EQ(count_via_chain(log, "A0 -> A1 -> A2"), 5u * (4 + 3 + 2 + 1 + 3 + 2 + 1 + 2 + 1 + 1));
}

class LinearAgreementTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LinearAgreementTest, MatchesMaterializedEvaluation) {
  Rng rng(GetParam());
  LogBuilder b;
  for (int i = 0; i < 4; ++i) {
    const Wid w = b.begin_instance();
    const std::size_t len = 5 + rng.index(10);
    for (std::size_t j = 0; j < len; ++j) {
      b.append(w, std::string(1, static_cast<char>('a' + rng.index(3))));
    }
    if (rng.bernoulli(0.7)) b.end_instance(w);
  }
  const Log log = b.build();
  const char* chains[] = {
      "a",       "a -> b",      "a . b",          "a -> b -> c",
      "a . a",   "a -> a -> a", "a . b -> c",     "c -> b . a",
      "b -> b",  "a . b . c",
  };
  for (const char* text : chains) {
    EXPECT_EQ(count_via_chain(log, text), count_via_evaluator(log, text))
        << text << " on seed " << GetParam();
    // exists agrees with count.
    const LogIndex index(log);
    const auto chain = as_linear_chain(*parse_pattern(text));
    EXPECT_EQ(exists_linear(*chain, index),
              count_via_chain(log, text) > 0)
        << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearAgreementTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ----- evaluator integration --------------------------------------------

TEST(LinearFastPathTest, EvaluatorUsesItTransparently) {
  const Log log = workload::clinic(50, 12);
  const LogIndex index(log);
  const Evaluator ev(index);
  const char* queries[] = {"GetRefer -> GetReimburse",
                           "SeeDoctor . PayTreatment",
                           "UpdateRefer -> GetReimburse"};
  for (const char* q : queries) {
    const PatternPtr p = parse_pattern(q);
    // evaluate() always materializes: the reference for the DP answers.
    const IncidentSet materialized = ev.evaluate(*p);
    EXPECT_EQ(ev.count(*p), materialized.total()) << q;
    EXPECT_EQ(ev.exists(*p), !materialized.empty()) << q;
  }
}

TEST(LinearExistsTest, ConsecutiveFallbackCase) {
  // Greedy earliest-match fails on the first prefix but a later assignment
  // exists: a at 2 has no adjacent b, a at 4 does.
  const Log log = make_log("a x a b");
  const LogIndex index(log);
  const auto chain = as_linear_chain(*parse_pattern("a . b"));
  EXPECT_TRUE(exists_linear(*chain, index));
}

}  // namespace
}  // namespace wflog
