#include "core/explain.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/parser.h"
#include "test_util.h"
#include "workflow/clinic.h"
#include "workflow/dot.h"

namespace wflog {
namespace {

using testing::make_log;

TEST(ExplainTest, ProfilesEveryNode) {
  const Log log = figure3_log();
  const LogIndex index(log);
  const CostModel model(index);
  const PatternPtr p =
      parse_pattern("SeeDoctor -> (UpdateRefer -> GetReimburse)");
  const ExplainResult r = explain(*p, index, model);
  ASSERT_EQ(r.nodes.size(), 5u);  // 2 operators + 3 atoms
  EXPECT_EQ(r.nodes[0].label, "[->]");
  EXPECT_EQ(r.nodes[1].label, "SeeDoctor");
  EXPECT_EQ(r.nodes[1].depth, 1u);
  EXPECT_EQ(r.nodes[2].label, "[->]");
  EXPECT_EQ(r.nodes[3].label, "UpdateRefer");
  EXPECT_EQ(r.nodes[4].label, "GetReimburse");
}

TEST(ExplainTest, ActualCardinalitiesMatchEvaluation) {
  const Log log = figure3_log();
  const LogIndex index(log);
  const CostModel model(index);
  const ExplainResult r = explain(
      *parse_pattern("SeeDoctor -> (UpdateRefer -> GetReimburse)"), index,
      model);
  EXPECT_EQ(r.nodes[0].actual_incidents, 1u);  // root: the single incident
  EXPECT_EQ(r.nodes[1].actual_incidents, 4u);  // SeeDoctor occurrences
  EXPECT_EQ(r.nodes[2].actual_incidents, 1u);  // inner sequential
  EXPECT_EQ(r.nodes[3].actual_incidents, 1u);  // UpdateRefer
  EXPECT_EQ(r.nodes[4].actual_incidents, 2u);  // GetReimburse
  EXPECT_EQ(r.incidents.total(), 1u);
}

TEST(ExplainTest, ResultMatchesPlainEvaluation) {
  const Log log = clinic_log(40, 5);
  const LogIndex index(log);
  const CostModel model(index);
  const Evaluator ev(index);
  const char* queries[] = {"UpdateRefer -> GetReimburse",
                           "(SeeDoctor . PayTreatment) | UpdateRefer",
                           "GetRefer & SeeDoctor"};
  for (const char* q : queries) {
    const PatternPtr p = parse_pattern(q);
    const ExplainResult r = explain(*p, index, model);
    EXPECT_EQ(r.incidents, ev.evaluate(*p)) << q;
  }
}

void preorder(const Pattern& p, std::vector<const Pattern*>& out) {
  out.push_back(&p);
  if (!p.is_atom()) {
    preorder(*p.left(), out);
    preorder(*p.right(), out);
  }
}

TEST(ExplainTest, RowsStayExactWhenLeftOperandIsEmpty) {
  // Instance 2 has no "a", so the left operand of the root is empty there;
  // plain evaluation skips the right subtree in that instance, explain
  // must not: every row still counts every instance.
  const Log log = make_log("a b c ; b c ; a c b");
  const LogIndex index(log);
  const CostModel model(index);
  const PatternPtr p = parse_pattern("a -> (b . c)");
  const ExplainResult r = explain(*p, index, model);
  ASSERT_EQ(r.nodes.size(), 5u);
  EXPECT_EQ(r.nodes[0].actual_incidents, 1u);  // root
  EXPECT_EQ(r.nodes[1].actual_incidents, 2u);  // a
  EXPECT_EQ(r.nodes[2].actual_incidents, 2u);  // b . c, instance 2 included
  EXPECT_EQ(r.nodes[3].actual_incidents, 3u);  // b
  EXPECT_EQ(r.nodes[4].actual_incidents, 3u);  // c

  // Untraced evaluation really skips: b . c is not evaluated in instance
  // 2 (5 operator nodes instead of 6), so its incident there is never
  // built (2 emitted instead of root 1 + b . c 2).
  const Evaluator plain(index);
  EXPECT_EQ(plain.evaluate(*p), r.incidents);
  EXPECT_EQ(plain.counters().operator_nodes_evaluated, 5u);
  EXPECT_EQ(plain.counters().incidents_emitted, 2u);
}

TEST(ExplainTest, EveryRowMatchesItsSubtreeEvaluated) {
  // Left operands empty in many instances: each row's actual_incidents is
  // the node's full incident count over the log.
  const Log log = clinic_log(60, 9);
  const LogIndex index(log);
  const CostModel model(index);
  const Evaluator ev(index);
  const char* queries[] = {
      "UpdateRefer -> (SeeDoctor . PayTreatment)",
      "(UpdateRefer . GetReimburse) & (GetRefer -> CheckIn)",
      "UpdateRefer . (GetReimburse | SeeDoctor)",
  };
  for (const char* q : queries) {
    const PatternPtr p = parse_pattern(q);
    const ExplainResult r = explain(*p, index, model);
    std::vector<const Pattern*> nodes;
    preorder(*p, nodes);
    ASSERT_EQ(r.nodes.size(), nodes.size()) << q;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(r.nodes[i].actual_incidents, ev.evaluate(*nodes[i]).total())
          << q << " row " << i;
    }
  }
}

TEST(ExplainTest, PredicateLabelRendered) {
  const Log log = make_log("a");
  const LogIndex index(log);
  const CostModel model(index);
  const ExplainResult r =
      explain(*parse_pattern("a[out.x > 5]"), index, model);
  EXPECT_EQ(r.nodes[0].label, "a[out.x > 5]");
}

TEST(ExplainTest, ReportContainsTableAndTotal) {
  const Log log = figure3_log();
  const LogIndex index(log);
  const CostModel model(index);
  const std::string report =
      explain(*parse_pattern("UpdateRefer -> GetReimburse"), index, model)
          .to_string();
  EXPECT_NE(report.find("node"), std::string::npos);
  EXPECT_NE(report.find("actual"), std::string::npos);
  EXPECT_NE(report.find("UpdateRefer"), std::string::npos);
  EXPECT_NE(report.find("total: 1 incident(s)"), std::string::npos);
}

TEST(ExplainTest, PairsCountedOnOperatorsOnly) {
  const Log log = figure3_log();
  const LogIndex index(log);
  const CostModel model(index);
  const ExplainResult r =
      explain(*parse_pattern("SeeDoctor -> GetReimburse"), index, model);
  EXPECT_GT(r.nodes[0].pairs_examined, 0u);
  EXPECT_EQ(r.nodes[1].pairs_examined, 0u);
}

// ----- DOT exports (model) -----------------------------------------------

TEST(DotTest, ClinicModelExports) {
  const std::string dot = to_dot(clinic_model());
  EXPECT_NE(dot.find("digraph \"clinic-referral\""), std::string::npos);
  EXPECT_NE(dot.find("GetRefer"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
  EXPECT_NE(dot.find("rankdir=LR"), std::string::npos);
  // Weighted XOR edges are labelled.
  EXPECT_NE(dot.find("label="), std::string::npos);
}

TEST(DotTest, GatewaysRendered) {
  WorkflowModel m("gw");
  const auto split = m.add_and_split();
  const auto a = m.add_task("a");
  const auto b = m.add_task("b");
  const auto join = m.add_and_join(2);
  const auto t = m.add_terminal();
  m.connect(split, a);
  m.connect(split, b);
  m.connect(a, join);
  m.connect(b, join);
  m.connect(join, t);
  const std::string dot = to_dot(m);
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);
  EXPECT_NE(dot.find("+join(2)"), std::string::npos);
  EXPECT_NE(dot.find("entry -> n0"), std::string::npos);
}

TEST(DotTest, GuardedEdgesAnnotated) {
  WorkflowModel m("g");
  const auto a = m.add_task("a");
  const auto b = m.add_task("b");
  m.connect(a, b, 1.0, [](const AttrStore&) { return true; });
  const std::string dot = to_dot(m);
  EXPECT_NE(dot.find("[guarded]"), std::string::npos);
}

}  // namespace
}  // namespace wflog
