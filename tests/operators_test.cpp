#include "core/operators.h"

#include <gtest/gtest.h>

#include "core/operators_opt.h"
#include "core/synthetic.h"
#include "test_util.h"

namespace wflog {
namespace {

using testing::inc;

// ----- consecutive ------------------------------------------------------

TEST(ConsecutiveTest, PairsAdjacentIncidents) {
  const IncidentList a{inc(1, {2}), inc(1, {5})};
  const IncidentList b{inc(1, {3}), inc(1, {7})};
  const IncidentList out = eval_consecutive_naive(a, b);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], inc(1, {2, 3}));
}

TEST(ConsecutiveTest, UsesLastOfCompositeLeft) {
  // last({1,4}) = 4, so only first == 5 qualifies.
  const IncidentList a{inc(1, {1, 4})};
  const IncidentList b{inc(1, {2}), inc(1, {5})};
  const IncidentList out = eval_consecutive_naive(a, b);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], inc(1, {1, 4, 5}));
}

TEST(ConsecutiveTest, EmptyInputs) {
  const IncidentList a{inc(1, {2})};
  EXPECT_TRUE(eval_consecutive_naive({}, a).empty());
  EXPECT_TRUE(eval_consecutive_naive(a, {}).empty());
}

TEST(ConsecutiveTest, MultipleMatchesPerLeft) {
  // Two right incidents share first()==3.
  const IncidentList a{inc(1, {2})};
  const IncidentList b{inc(1, {3}), inc(1, {3, 8})};
  const IncidentList out = eval_consecutive_naive(a, b);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], inc(1, {2, 3}));
  EXPECT_EQ(out[1], inc(1, {2, 3, 8}));
}

// ----- sequential -------------------------------------------------------

TEST(SequentialTest, RequiresStrictOrder) {
  const IncidentList a{inc(1, {2}), inc(1, {6})};
  const IncidentList b{inc(1, {4})};
  const IncidentList out = eval_sequential_naive(a, b);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], inc(1, {2, 4}));
}

TEST(SequentialTest, GapAllowed) {
  const IncidentList a{inc(1, {1})};
  const IncidentList b{inc(1, {9})};
  EXPECT_EQ(eval_sequential_naive(a, b).size(), 1u);
}

TEST(SequentialTest, TouchingNotAllowed) {
  // last(o1) == first(o2) fails the strict inequality.
  const IncidentList a{inc(1, {3})};
  const IncidentList b{inc(1, {3})};
  EXPECT_TRUE(eval_sequential_naive(a, b).empty());
}

TEST(SequentialTest, OverlappingSpansCheckBoundariesOnly) {
  // last({2,9}) = 9 is not < first({5}) = 5: no match even though the
  // spans interleave.
  const IncidentList a{inc(1, {2, 9})};
  const IncidentList b{inc(1, {5})};
  EXPECT_TRUE(eval_sequential_naive(a, b).empty());
}

TEST(SequentialTest, CrossProductWhenAllOrdered) {
  const IncidentList a{inc(1, {1}), inc(1, {2})};
  const IncidentList b{inc(1, {8}), inc(1, {9})};
  EXPECT_EQ(eval_sequential_naive(a, b).size(), 4u);
}

TEST(SequentialTest, DuplicateUnionsCollapse) {
  // {1} ∪ {2,3} and {1,2} ∪ {3} both yield {1,2,3}: Definition 4's set
  // semantics demands one copy, not two (DESIGN.md §6). The third valid
  // pair {1} ∪ {3} = {1,3} is a distinct incident.
  const IncidentList a{inc(1, {1}), inc(1, {1, 2})};
  const IncidentList b{inc(1, {2, 3}), inc(1, {3})};
  const IncidentList out = eval_sequential_naive(a, b);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], inc(1, {1, 2, 3}));
  EXPECT_EQ(out[1], inc(1, {1, 3}));
}

// ----- choice -----------------------------------------------------------

TEST(ChoiceTest, UnionWithoutDedup) {
  const IncidentList a{inc(1, {2})};
  const IncidentList b{inc(1, {5})};
  const IncidentList out = eval_choice_naive(a, b, /*dedup=*/false);
  EXPECT_EQ(out.size(), 2u);
}

TEST(ChoiceTest, DedupRemovesSharedIncidents) {
  const IncidentList a{inc(1, {2}), inc(1, {4})};
  const IncidentList b{inc(1, {4}), inc(1, {6})};
  const IncidentList out = eval_choice_naive(a, b, /*dedup=*/true);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], inc(1, {2}));
  EXPECT_EQ(out[1], inc(1, {4}));
  EXPECT_EQ(out[2], inc(1, {6}));
}

TEST(ChoiceTest, EmptySides) {
  const IncidentList a{inc(1, {2})};
  EXPECT_EQ(eval_choice_naive(a, {}, true).size(), 1u);
  EXPECT_EQ(eval_choice_naive({}, a, true).size(), 1u);
  EXPECT_TRUE(eval_choice_naive({}, {}, false).empty());
}

// ----- parallel ---------------------------------------------------------

TEST(ParallelTest, DisjointPairsMerge) {
  const IncidentList a{inc(1, {2})};
  const IncidentList b{inc(1, {3})};
  const IncidentList out = eval_parallel_naive(a, b);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], inc(1, {2, 3}));
}

TEST(ParallelTest, SharedRecordExcluded) {
  const IncidentList a{inc(1, {2, 4})};
  const IncidentList b{inc(1, {4, 6})};
  EXPECT_TRUE(eval_parallel_naive(a, b).empty());
}

TEST(ParallelTest, InterleavedSpansAllowed) {
  // ⊕ is a shuffle: {2,6} and {4} interleave.
  const IncidentList a{inc(1, {2, 6})};
  const IncidentList b{inc(1, {4})};
  const IncidentList out = eval_parallel_naive(a, b);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], inc(1, {2, 4, 6}));
}

TEST(ParallelTest, SymmetricResult) {
  const IncidentList a{inc(1, {1}), inc(1, {3})};
  const IncidentList b{inc(1, {2}), inc(1, {3})};
  EXPECT_EQ(eval_parallel_naive(a, b), eval_parallel_naive(b, a));
}

TEST(ParallelTest, SelfJoinExcludesIdenticalSingletons) {
  const IncidentList a{inc(1, {1}), inc(1, {2})};
  const IncidentList out = eval_parallel_naive(a, a);
  // Only the two cross pairs survive, and they collapse to one set {1,2}.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], inc(1, {1, 2}));
}

// ----- naive vs optimized agreement (property) --------------------------

struct AgreementParam {
  std::size_t n1, k1, n2, k2, len;
  std::uint64_t seed;
};

class OperatorAgreementTest
    : public ::testing::TestWithParam<AgreementParam> {};

TEST_P(OperatorAgreementTest, AllOperatorsAgree) {
  const AgreementParam p = GetParam();
  SyntheticIncidentOptions o1{p.n1, p.k1, p.len, 1, p.seed};
  SyntheticIncidentOptions o2{p.n2, p.k2, p.len, 1, p.seed ^ 0xabcdef};
  const IncidentList a = synthetic_incidents(o1);
  const IncidentList b = synthetic_incidents(o2);

  // One output list for every kernel, as the evaluator's scratch is: each
  // kernel must clear what the previous one left.
  IncidentList out;
  eval_consecutive_opt(a, b, out);
  EXPECT_EQ(eval_consecutive_naive(a, b), out);
  eval_sequential_opt(a, b, out);
  EXPECT_EQ(eval_sequential_naive(a, b), out);
  eval_choice_opt(a, b, true, out);
  EXPECT_EQ(eval_choice_naive(a, b, true), out);
  eval_choice_opt(a, b, false, out);
  EXPECT_EQ(eval_choice_naive(a, b, false), out);
  eval_parallel_opt(a, b, out);
  EXPECT_EQ(eval_parallel_naive(a, b), out);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OperatorAgreementTest,
    ::testing::Values(
        AgreementParam{0, 1, 5, 1, 20, 1},    // empty left
        AgreementParam{5, 1, 0, 1, 20, 2},    // empty right
        AgreementParam{8, 1, 8, 1, 10, 3},    // dense singletons
        AgreementParam{20, 1, 20, 1, 400, 4},  // sparse singletons
        AgreementParam{10, 2, 10, 2, 30, 5},  // small sets
        AgreementParam{15, 3, 10, 2, 40, 6},  // asymmetric sizes
        AgreementParam{30, 1, 30, 3, 60, 7},
        AgreementParam{25, 4, 25, 4, 50, 8},
        AgreementParam{40, 2, 10, 5, 80, 9},
        AgreementParam{12, 1, 12, 1, 12, 10}  // saturated positions
        ));

// Choice with dedup=false must be used only for genuinely disjoint inputs;
// with shared incidents the merged list may contain duplicates — verify the
// contract boundary explicitly.
TEST(ChoiceContractTest, NoDedupKeepsDuplicatesFromOverlappingInputs) {
  const IncidentList a{inc(1, {2})};
  IncidentList out;
  eval_choice_opt(a, a, /*dedup=*/false, out);
  EXPECT_EQ(out.size(), 2u);  // caller's responsibility (needs_choice_dedup)
}

}  // namespace
}  // namespace wflog
