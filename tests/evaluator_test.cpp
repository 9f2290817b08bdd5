#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "core/batch.h"
#include "core/parser.h"
#include "core/printer.h"
#include "core/synthetic.h"
#include "test_util.h"
#include "workflow/clinic.h"
#include "workflow/workload.h"

namespace wflog {
namespace {

using testing::brief;
using testing::briefs;
using testing::eval;
using testing::inc;
using testing::make_log;
using testing::to_vector;

// ----- atomic patterns --------------------------------------------------

TEST(EvaluatorAtomTest, PositiveAtomMatchesAllOccurrences) {
  const Log log = make_log("a b a ; b a");
  // Instance 1: START a b a END -> a at 2, 4; instance 2: a at 3.
  const IncidentList out = eval(log, "a");
  EXPECT_EQ(briefs(out),
            (std::vector<std::string>{"w1:2", "w1:4", "w2:3"}));
}

TEST(EvaluatorAtomTest, UnknownActivityMatchesNothing) {
  const Log log = make_log("a b");
  EXPECT_TRUE(eval(log, "zzz").empty());
}

TEST(EvaluatorAtomTest, NegativeAtomMatchesComplement) {
  const Log log = make_log("a b");
  // Records: START(1) a(2) b(3) END(4); ¬a matches 1, 3, 4 by default.
  EXPECT_EQ(briefs(eval(log, "!a")),
            (std::vector<std::string>{"w1:1", "w1:3", "w1:4"}));
}

TEST(EvaluatorAtomTest, NegationSentinelOptOut) {
  const Log log = make_log("a b");
  EvalOptions opts;
  opts.negation_matches_sentinels = false;
  EXPECT_EQ(briefs(eval(log, "!a", opts)),
            (std::vector<std::string>{"w1:3"}));
}

TEST(EvaluatorAtomTest, NegationOfUnknownActivityMatchesEverything) {
  const Log log = make_log("a");
  EXPECT_EQ(eval(log, "!zzz").size(), 3u);  // START a END
}

// ----- the paper's worked examples on Figure 3 --------------------------

class Figure3Test : public ::testing::Test {
 protected:
  Figure3Test() : log_(figure3_log()), index_(log_), eval_(index_) {}

  IncidentList run(std::string_view pattern) const {
    return eval_.evaluate(*parse_pattern(pattern)).flatten();
  }

  Log log_;
  LogIndex index_;
  Evaluator eval_;
};

TEST_F(Figure3Test, LogShapeMatchesPaper) {
  ASSERT_EQ(log_.size(), 20u);
  EXPECT_EQ(log_.wids(), (std::vector<Wid>{1, 2, 3}));
  // Example 1: record lsn=4 is CheckIn of wid 1, is-lsn 3.
  const LogRecord& l4 = log_.record(4);
  EXPECT_EQ(log_.activity_name(l4.activity), "CheckIn");
  EXPECT_EQ(l4.wid, 1u);
  EXPECT_EQ(l4.is_lsn, 3u);
  EXPECT_EQ(*l4.in.get(log_.interner().find("referId")), Value{"034d1"});
  EXPECT_EQ(*l4.out.get(log_.interner().find("referState")),
            Value{"active"});
}

TEST_F(Figure3Test, Example3UpdateBeforeReimburse) {
  // "UpdateRefer ≫ GetReimburse" has exactly one incident: {l14, l20},
  // i.e. wid 2, is-lsns 5 and 9.
  const IncidentList out = run("UpdateRefer -> GetReimburse");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].wid(), 2u);
  EXPECT_EQ(to_vector(out[0].positions()), (std::vector<IsLsn>{5, 9}));
  EXPECT_EQ(log_.record(14).is_lsn, 5u);  // l14 = UpdateRefer
  EXPECT_EQ(log_.record(20).is_lsn, 9u);  // l20 = GetReimburse
}

TEST_F(Figure3Test, Example5SeeDoctorThenUpdateThenReimburse) {
  // "SeeDoctor ≫ (UpdateRefer ≫ GetReimburse)": only SeeDoctor at l13
  // (wid 2, is-lsn 4) precedes the UpdateRefer at is-lsn 5; l17 (is-lsn 6)
  // does not. One incident {l13, l14, l20}. (The paper's Example 3 prints
  // {l13, l14, l19} — l19 is TakeTreatment; see DESIGN.md §6.)
  const IncidentList out = run("SeeDoctor -> (UpdateRefer -> GetReimburse)");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].wid(), 2u);
  EXPECT_EQ(to_vector(out[0].positions()), (std::vector<IsLsn>{4, 5, 9}));
}

TEST_F(Figure3Test, Example5LeftGroupingGivesSameAnswer) {
  // Theorem 2: associativity of ≫.
  const IncidentList grouped_right =
      run("SeeDoctor -> (UpdateRefer -> GetReimburse)");
  const IncidentList grouped_left =
      run("(SeeDoctor -> UpdateRefer) -> GetReimburse");
  EXPECT_EQ(grouped_right, grouped_left);
}

TEST_F(Figure3Test, SeeDoctorOccurrencesMatchExample5) {
  // incL(SeeDoctor) = {l9, l11, l13, l17}.
  const IncidentList out = run("SeeDoctor");
  EXPECT_EQ(briefs(out),
            (std::vector<std::string>{"w1:4", "w1:6", "w2:4", "w2:6"}));
}

TEST_F(Figure3Test, ConsecutivePayAfterSee) {
  // SeeDoctor . PayTreatment: wid1 (4,5), (6,7); wid2 (6,7).
  const IncidentList out = run("SeeDoctor . PayTreatment");
  EXPECT_EQ(briefs(out),
            (std::vector<std::string>{"w1:4,5", "w1:6,7", "w2:6,7"}));
}

TEST_F(Figure3Test, ParallelSharesNoRecords) {
  // SeeDoctor ⊕ SeeDoctor pairs distinct SeeDoctor records per instance.
  const IncidentList out = run("SeeDoctor & SeeDoctor");
  EXPECT_EQ(briefs(out),
            (std::vector<std::string>{"w1:4,6", "w2:4,6"}));
}

TEST_F(Figure3Test, ChoiceUnion) {
  const IncidentList out = run("UpdateRefer | TakeTreatment");
  EXPECT_EQ(briefs(out), (std::vector<std::string>{"w2:5", "w2:8"}));
}

TEST_F(Figure3Test, PredicateBalanceOver5000) {
  // Only wid 2's UpdateRefer writes balance 5000; > 4999 matches it.
  const IncidentList out = run("UpdateRefer[out.balance > 4999]");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(brief(out[0]), "w2:5");
}

TEST_F(Figure3Test, CountAndExists) {
  EXPECT_TRUE(eval_.exists(*parse_pattern("UpdateRefer -> GetReimburse")));
  EXPECT_FALSE(eval_.exists(*parse_pattern("GetReimburse -> UpdateRefer")));
  EXPECT_EQ(eval_.count(*parse_pattern("SeeDoctor")), 4u);
  EXPECT_EQ(eval_.count(*parse_pattern("GetRefer")), 3u);
}

// ----- cross-instance isolation ----------------------------------------

TEST(EvaluatorScopeTest, IncidentsNeverSpanInstances) {
  // "a" in instance 1, "b" in instance 2: a -> b must be empty.
  const Log log = make_log("a ; b");
  EXPECT_TRUE(eval(log, "a -> b").empty());
}

TEST(EvaluatorScopeTest, PerInstanceGrouping) {
  const Log log = make_log("a b ; a b ; a");
  LogIndex index(log);
  Evaluator ev(index);
  const IncidentSet set = ev.evaluate(*parse_pattern("a -> b"));
  EXPECT_EQ(set.num_groups(), 2u);  // instance 3 has no b
  EXPECT_TRUE(set.find(1).has_value());
  EXPECT_TRUE(set.find(2).has_value());
  EXPECT_FALSE(set.find(3).has_value());
}

// ----- operator semantics through full patterns -------------------------

TEST(EvaluatorSemanticsTest, ConsecutiveIsStrictAdjacency) {
  const Log log = make_log("a x b ; a b");
  // Instance 1: a(2) x(3) b(4): not adjacent. Instance 2: a(2) b(3).
  EXPECT_EQ(briefs(eval(log, "a . b")),
            (std::vector<std::string>{"w2:2,3"}));
}

TEST(EvaluatorSemanticsTest, SequentialAllowsGap) {
  const Log log = make_log("a x b");
  EXPECT_EQ(briefs(eval(log, "a -> b")),
            (std::vector<std::string>{"w1:2,4"}));
}

TEST(EvaluatorSemanticsTest, SequentialDirectionality) {
  const Log log = make_log("b a");
  EXPECT_TRUE(eval(log, "a -> b").empty());
  EXPECT_EQ(eval(log, "b -> a").size(), 1u);
}

TEST(EvaluatorSemanticsTest, ParallelShuffle) {
  // (a -> c) & b: {2,5} vs {3}: interleaved but disjoint -> match.
  const Log log = make_log("a b x c");
  const IncidentList out = eval(log, "(a -> c) & b");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(brief(out[0]), "w1:2,3,5");
}

TEST(EvaluatorSemanticsTest, ParallelRejectsSharedRecord) {
  const Log log = make_log("a b");
  // a & a: single a record can't be shared.
  EXPECT_TRUE(eval(log, "a & a").empty());
}

TEST(EvaluatorSemanticsTest, ChoiceOfIdenticalPatternsIsIdempotent) {
  const Log log = make_log("a a");
  // inc(a|a) == inc(a): dedup required and applied.
  EXPECT_EQ(eval(log, "a | a"), eval(log, "a"));
}

TEST(EvaluatorSemanticsTest, ChoiceWithNegationDedups) {
  const Log log = make_log("a b");
  // "a" ⊆ "!b" here; union must not duplicate the a record.
  const IncidentList out = eval(log, "a | !b");
  // !b matches START(1), a(2), END(4); a matches 2. Union: {1},{2},{4}.
  EXPECT_EQ(out.size(), 3u);
}

TEST(EvaluatorSemanticsTest, NaiveAndOptimizedAgreeOnPatterns) {
  const Log log = make_log("a b a c b ; c a b a ; b c a");
  const char* queries[] = {
      "a",      "!a",          "a . b",          "a -> b",
      "a | b",  "a & b",       "(a -> b) | c",   "(a | b) & c",
      "a -> (b | c)", "(a . b) & (c | a)", "!c -> a",
  };
  EvalOptions naive;
  naive.use_optimized_operators = false;
  for (const char* q : queries) {
    EXPECT_EQ(eval(log, q), eval(log, q, naive)) << q;
  }
}

TEST(EvaluatorSemanticsTest, CountersAdvance) {
  const Log log = make_log("a b a b");
  LogIndex index(log);
  Evaluator ev(index);
  ev.evaluate(*parse_pattern("a -> b"));
  EXPECT_GT(ev.counters().operator_nodes_evaluated, 0u);
  EXPECT_GT(ev.counters().incidents_emitted, 0u);
  ev.reset_counters();
  EXPECT_EQ(ev.counters().operator_nodes_evaluated, 0u);
}

TEST(EvaluatorSemanticsTest, SentinelsQueryableDirectly) {
  const Log log = make_log("a ; b ...");
  EXPECT_EQ(eval(log, "START").size(), 2u);
  EXPECT_EQ(eval(log, "END").size(), 1u);
  // Completed instances: START -> END.
  EXPECT_EQ(eval(log, "START -> END").size(), 1u);
}

// ----- scratch and memo reuse --------------------------------------------
//
// An Evaluator reuses one scratch list per plan node, and a memo reuses
// one list per slot, from instance to instance. The oracle for every case
// reuses nothing: a fresh Evaluator per instance on the naive Algorithm 1
// kernels.

IncidentList oracle(const LogIndex& index, const Pattern& p,
                    std::size_t instance) {
  EvalOptions naive;
  naive.use_optimized_operators = false;
  const Evaluator fresh(index, naive);
  const std::span<const Incident> got =
      fresh.evaluate_instance(EvalPlan(p, index.log()), instance);
  return {got.begin(), got.end()};
}

IncidentList copy(std::span<const Incident> s) { return {s.begin(), s.end()}; }

RandomPatternOptions reuse_patterns() {
  RandomPatternOptions o;
  o.max_depth = 3;
  o.predicate_probability = 0.1;
  return o;
}

TEST(EvaluatorScratchTest, OneEvaluatorInForwardReverseAndShuffledOrder) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const Log log = workload::random_process(25, seed);
    const LogIndex index(log);
    std::vector<std::size_t> forward(index.wids().size());
    std::iota(forward.begin(), forward.end(), std::size_t{0});
    std::vector<std::size_t> reverse(forward.rbegin(), forward.rend());
    std::vector<std::size_t> shuffled = forward;
    rng.shuffle(shuffled);
    for (int q = 0; q < 6; ++q) {
      const PatternPtr p = random_pattern(rng, reuse_patterns());
      const EvalPlan plan(*p, log);
      const Evaluator ev(index);  // one evaluator for all three orders
      for (const auto* order : {&forward, &reverse, &shuffled}) {
        for (const std::size_t i : *order) {
          EXPECT_EQ(copy(ev.evaluate_instance(plan, i)),
                    oracle(index, *p, i))
              << "seed=" << seed << " q=" << q << " instance=" << i;
        }
      }
    }
  }
}

TEST(EvaluatorScratchTest, TwoPlansInterleavedInstanceByInstance) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const Log log = workload::random_process(25, seed);
    const LogIndex index(log);
    // A deep plan and a shallow one write different prefixes of the
    // shared scratch lists.
    const PatternPtr deep = parse_pattern("((A0 -> A1) | (A2 . A3)) -> A4");
    const PatternPtr other = random_pattern(rng, reuse_patterns());
    const EvalPlan deep_plan(*deep, log), other_plan(*other, log);
    const Evaluator ev(index);
    for (std::size_t i = 0; i < index.wids().size(); ++i) {
      EXPECT_EQ(copy(ev.evaluate_instance(other_plan, i)),
                oracle(index, *other, i))
          << "seed=" << seed << " instance=" << i;
      EXPECT_EQ(copy(ev.evaluate_instance(deep_plan, i)),
                oracle(index, *deep, i))
          << "seed=" << seed << " instance=" << i;
    }
  }
}

TEST(EvaluatorScratchTest, MemoResetAfterHighMatchInstanceKeepsNothing) {
  // Instance 1 matches a lot, instance 2 nothing of "a -> b", instance 3
  // a little: a stale slot list would leak instance 1's incidents.
  const Log log = make_log("a a a b b b a b ; a c ; c a b");
  const LogIndex index(log);
  const std::vector<PatternPtr> queries = {
      parse_pattern("a -> b"), parse_pattern("(a -> b) | c"),
      parse_pattern("a"), parse_pattern("(a -> b) & b")};
  const BatchPlan batch(queries);
  SubpatternMemo memo = batch.make_memo();
  std::vector<EvalPlan> plans;
  for (const PatternPtr& q : queries) {
    plans.emplace_back(*q, log, &batch.slots());
  }
  const Evaluator ev(index);
  for (std::size_t i = 0; i < index.wids().size(); ++i) {
    memo.reset();
    for (std::uint32_t slot = 0; slot < batch.num_slots(); ++slot) {
      EXPECT_EQ(memo.lookup(slot), nullptr) << "slot " << slot;
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(copy(ev.evaluate_instance(plans[q], i, &memo)),
                oracle(index, *queries[q], i))
          << "instance=" << i << " q=" << q;
    }
  }
  EXPECT_GT(ev.counters().cache_hits, 0u);
}

TEST(EvaluatorScratchTest, TrippedGuardLeavesNoValidSlotThenNextIsComplete) {
  // Instance 1's atoms emit 4 incidents each; a budget of 6 trips after
  // "b" completes, inside the tree of both queries.
  const Log log = make_log("a a a a b b b b c ; a b c");
  const LogIndex index(log);
  const std::vector<PatternPtr> queries = {parse_pattern("(a -> b) -> c"),
                                           parse_pattern("(a -> b) | c")};
  const BatchPlan batch(queries);
  SubpatternMemo memo = batch.make_memo();
  std::vector<EvalPlan> plans;
  for (const PatternPtr& q : queries) {
    plans.emplace_back(*q, log, &batch.slots());
  }
  const Evaluator ev(index);

  const EvalGuard guard(std::chrono::milliseconds(0), 6, nullptr);
  memo.reset();
  for (const EvalPlan& plan : plans) {
    ev.evaluate_instance(plan, 0, &memo, nullptr, &guard);
  }
  ASSERT_EQ(guard.reason(), StopReason::kIncidentBudget);
  // A valid slot holds its complete list; the tripped node and every
  // node above it hold none.
  for (const auto& [node, slot] : batch.slots()) {
    if (const IncidentList* list = memo.lookup(slot)) {
      EXPECT_EQ(*list, oracle(index, *node, 0)) << to_text(*node);
    }
  }
  EXPECT_EQ(memo.lookup(batch.slots().at(queries[0].get())), nullptr);
  EXPECT_EQ(memo.lookup(batch.slots().at(queries[0]->left().get())),
            nullptr);
  EXPECT_EQ(memo.lookup(batch.slots().at(queries[1].get())), nullptr);

  // The next instance, unguarded, on the same evaluator and memo.
  memo.reset();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(copy(ev.evaluate_instance(plans[q], 1, &memo)),
              oracle(index, *queries[q], 1))
        << "q=" << q;
  }
}

}  // namespace
}  // namespace wflog
