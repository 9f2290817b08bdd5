#include "core/join.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/engine.h"
#include "test_util.h"
#include "workflow/clinic.h"
#include "workflow/procurement.h"

namespace wflog {
namespace {

Log money_log() {
  LogBuilder b;
  // Instance 1: balance grows between update and reimburse.
  Wid w = b.begin_instance();
  b.append(w, "Update", {}, {{"balance", Value{std::int64_t{5000}}}});
  b.append(w, "Reimburse", {{"balance", Value{std::int64_t{5000}}}},
           {{"amount", Value{std::int64_t{5000}}}});
  b.end_instance(w);
  // Instance 2: amounts differ.
  w = b.begin_instance();
  b.append(w, "Update", {}, {{"balance", Value{std::int64_t{1000}}}});
  b.append(w, "Reimburse", {{"balance", Value{std::int64_t{1000}}}},
           {{"amount", Value{std::int64_t{400}}}});
  b.end_instance(w);
  return b.build();
}

// ----- parsing -----------------------------------------------------------

TEST(JoinParseTest, QueryWithoutWhere) {
  const ParsedQuery q = parse_query("a -> b");
  EXPECT_EQ(q.where, nullptr);
  EXPECT_EQ(q.pattern->op(), PatternOp::kSequential);
}

TEST(JoinParseTest, QueryWithWhere) {
  const ParsedQuery q =
      parse_query("x:a -> y:b where x.out.v > y.in.v && x.out.v != 3");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->variables(), (std::vector<std::string>{"x", "y"}));
}

TEST(JoinParseTest, WhereInsidePredicateNotConfused) {
  // "where" inside a [ ] predicate string must not split the query.
  const ParsedQuery q = parse_query("x:a[note = \"where\"] -> y:b");
  EXPECT_EQ(q.where, nullptr);
}

TEST(JoinParseTest, WherePrefixedIdentifierNotConfused) {
  const ParsedQuery q = parse_query("whereabouts -> x:b where x.v = 1");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.pattern->left()->activity(), "whereabouts");
}

TEST(JoinParseTest, UnboundVariableRejected) {
  EXPECT_THROW(parse_query("x:a -> b where y.v = 1"), QueryError);
}

TEST(JoinParseTest, MalformedWhereRejected) {
  EXPECT_THROW(parse_query("x:a where x.v >"), ParseError);
  EXPECT_THROW(parse_query("x:a where x"), ParseError);
  EXPECT_THROW(parse_query("x:a where x.v = 1 extra.junk"), ParseError);
}

TEST(JoinParseTest, ToStringRoundTrips) {
  const char* exprs[] = {
      "x.out.balance > 5000",
      "x.v = y.v",
      "(x.in.a <= y.out.b || !(x.c != 2.5))",
      "x.s = \"quoted text\"",
      "x.flag = true && y.n = null",
  };
  for (const char* src : exprs) {
    const JoinExprPtr e = parse_join_expr(src);
    const JoinExprPtr back = parse_join_expr(e->to_string());
    EXPECT_EQ(back->to_string(), e->to_string()) << src;
  }
}

// ----- evaluation ----------------------------------------------------------

TEST(JoinEvalTest, LiteralComparisonFiltersIncidents) {
  const Log log = money_log();
  QueryEngine engine(log);
  const QueryResult all = engine.run("u:Update -> r:Reimburse");
  EXPECT_EQ(all.total(), 2u);
  const QueryResult rich =
      engine.run("u:Update -> r:Reimburse where u.out.balance > 2000");
  ASSERT_EQ(rich.total(), 1u);
  EXPECT_EQ(rich.incidents.groups()[0].wid, 1u);
}

TEST(JoinEvalTest, RefToRefComparison) {
  const Log log = money_log();
  QueryEngine engine(log);
  // Full reimbursement: amount equals the balance read.
  const QueryResult full = engine.run(
      "u:Update -> r:Reimburse where r.out.amount = r.in.balance");
  ASSERT_EQ(full.total(), 1u);
  EXPECT_EQ(full.incidents.groups()[0].wid, 1u);
  // Partial reimbursement.
  const QueryResult partial = engine.run(
      "u:Update -> r:Reimburse where r.out.amount < r.in.balance");
  ASSERT_EQ(partial.total(), 1u);
  EXPECT_EQ(partial.incidents.groups()[0].wid, 2u);
}

TEST(JoinEvalTest, CrossRecordJoin) {
  const Log log = money_log();
  QueryEngine engine(log);
  // The balance written by Update is the balance read by Reimburse.
  EXPECT_EQ(engine
                .run("u:Update -> r:Reimburse where "
                     "u.out.balance = r.in.balance")
                .total(),
            2u);
  EXPECT_EQ(engine
                .run("u:Update -> r:Reimburse where "
                     "u.out.balance != r.in.balance")
                .total(),
            0u);
}

TEST(JoinEvalTest, MissingAttributeFailsComparison) {
  const Log log = money_log();
  QueryEngine engine(log);
  EXPECT_EQ(engine.run("u:Update where u.out.ghost = 1").total(), 0u);
  EXPECT_EQ(engine.run("u:Update where u.in.balance > 0").total(), 0u);
}

TEST(JoinEvalTest, LogicalConnectives) {
  const Log log = money_log();
  QueryEngine engine(log);
  EXPECT_EQ(engine
                .run("u:Update where u.out.balance = 5000 || "
                     "u.out.balance = 1000")
                .total(),
            2u);
  EXPECT_EQ(
      engine.run("u:Update where !(u.out.balance = 5000)").total(), 1u);
}

TEST(JoinEvalTest, ExistentialOverAssignments) {
  // Pattern u:a -> v:a on records with values 1,2,3: incident {1,2,3}
  // admits several assignments; the where clause holds for SOME of them.
  LogBuilder b;
  const Wid w = b.begin_instance();
  for (std::int64_t v : {1, 2, 3}) {
    b.append(w, "a", {}, {{"v", Value{v}}});
  }
  b.end_instance(w);
  const Log log = b.build();
  QueryEngine engine(log);
  // Strictly decreasing values never happen (positions ordered).
  EXPECT_EQ(engine.run("u:a -> v:a where u.out.v > v.out.v").total(), 0u);
  // Gap of exactly 2 exists only for the (1,3) pair.
  const QueryResult gap2 =
      engine.run("u:a -> v:a where v.out.v = 3 && u.out.v = 1");
  ASSERT_EQ(gap2.total(), 1u);
  EXPECT_EQ(testing::to_vector(gap2.incidents.flatten()[0].positions()),
            (std::vector<IsLsn>{2, 4}));
}

TEST(JoinEvalTest, DuplicatePaymentAmountJoin) {
  // The P2P control "same amount paid twice" needs a cross-record join.
  ProcurementOptions opts;
  opts.duplicate_pay_rate = 0.35;
  const Log log = procurement_log(150, 21, opts);
  QueryEngine engine(log);
  const std::size_t same_amount =
      engine.run("p:Pay -> q:Pay where p.out.paidAmount = q.out.paidAmount")
          .total();
  const std::size_t any_pair = engine.count("Pay -> Pay");
  EXPECT_GT(same_amount, 0u);
  // Duplicates in this model always repeat the PO amount.
  EXPECT_EQ(same_amount, any_pair);
}

TEST(JoinEvalTest, BalanceGrewBetweenUpdateAndReimburse) {
  // The clinic fraud pattern refined with data: the update increased the
  // balance beyond what reimbursement then drained.
  const Log log = clinic_log(100, 71);
  QueryEngine engine(log);
  const QueryResult r = engine.run(
      "u:UpdateRefer -> g:GetReimburse where u.out.balance > g.in.balance");
  // Sanity: subset of the unfiltered pattern.
  EXPECT_LE(r.total(), engine.count("UpdateRefer -> GetReimburse"));
}

TEST(JoinEvalTest, WhereRecordedInResult) {
  const Log log = money_log();
  QueryEngine engine(log);
  const QueryResult r = engine.run("u:Update where u.out.balance > 0");
  ASSERT_NE(r.where, nullptr);
  EXPECT_EQ(r.where->to_string(), "u.out.balance > 0");
}

TEST(JoinEvalTest, OptimizerDoesNotBreakWhere) {
  const Log log = clinic_log(50, 33);
  QueryOptions no_opt;
  no_opt.optimize = false;
  QueryEngine opt(log);
  QueryEngine raw(log, no_opt);
  const char* q =
      "(s:SeeDoctor -> u:UpdateRefer) -> g:GetReimburse "
      "where u.out.balance >= g.in.balance";
  EXPECT_EQ(opt.run(q).incidents, raw.run(q).incidents);
}

TEST(JoinEvalTest, ExistsAndCountAcceptWhere) {
  const Log log = money_log();
  QueryEngine engine(log);
  EXPECT_TRUE(engine.exists("u:Update where u.out.balance > 2000"));
  EXPECT_FALSE(engine.exists("u:Update where u.out.balance > 9000"));
  EXPECT_EQ(engine.count("u:Update where u.out.balance >= 1000"), 2u);
  EXPECT_EQ(engine.count("u:Update where u.out.balance > 2000"), 1u);
}

// ----- derive_all_bindings -------------------------------------------------

TEST(DeriveAllTest, EnumeratesEveryAssignment) {
  const Log log = testing::make_log("a a a");
  const LogIndex index(log);
  const PatternPtr p = parse_pattern("u:a -> v:a");
  // Incident {2,4}: only one assignment (u=2, v=4).
  const auto one = derive_all_bindings(*p, testing::inc(1, {2, 4}), index);
  ASSERT_EQ(one.size(), 1u);
  // Pattern u:a & v:a on {2,4}: two assignments (order swaps).
  const PatternPtr par = parse_pattern("u:a & v:a");
  const auto two = derive_all_bindings(*par, testing::inc(1, {2, 4}), index);
  EXPECT_EQ(two.size(), 2u);
}

TEST(DeriveAllTest, LimitRespected) {
  const Log log = testing::make_log("a a a a a");
  const LogIndex index(log);
  const PatternPtr par = parse_pattern("u:a & v:a & w:a");
  const auto capped =
      derive_all_bindings(*par, testing::inc(1, {2, 3, 4}), index, 3);
  EXPECT_EQ(capped.size(), 3u);  // 3! = 6 assignments exist
}

}  // namespace
}  // namespace wflog
