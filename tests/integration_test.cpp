// Cross-module integration: simulate -> serialize -> reload -> index ->
// query -> aggregate, and end-to-end consistency checks between the naive
// and optimized configurations on realistic workloads.

#include <gtest/gtest.h>

#include <sstream>

#include "core/aggregate.h"
#include "core/engine.h"
#include "core/printer.h"
#include "log/io_csv.h"
#include "log/io_jsonl.h"
#include "log/stats.h"
#include "workflow/clinic.h"
#include "workflow/workload.h"

namespace wflog {
namespace {

TEST(IntegrationTest, SimulateSerializeReloadQuery) {
  const Log original = workload::clinic(60, 31);
  // Round-trip through CSV.
  const Log reloaded = csv_to_log(to_csv(original));
  ASSERT_EQ(original.size(), reloaded.size());

  QueryEngine a(original);
  QueryEngine b(reloaded);
  const char* queries[] = {
      "UpdateRefer -> GetReimburse",
      "GetReimburse -> UpdateRefer",
      "SeeDoctor . PayTreatment",
      "GetRefer[out.balance >= 5000]",
      "(CompleteRefer | TerminateRefer)",
  };
  for (const char* q : queries) {
    EXPECT_EQ(a.run(q).incidents, b.run(q).incidents) << q;
  }
}

TEST(IntegrationTest, JsonlAndCsvAgreeOnQueries) {
  const Log original = workload::clinic(40, 77);
  const Log via_csv = csv_to_log(to_csv(original));
  const Log via_jsonl = jsonl_to_log(to_jsonl(original));
  QueryEngine a(via_csv);
  QueryEngine b(via_jsonl);
  EXPECT_EQ(a.run("GetRefer -> GetReimburse").incidents,
            b.run("GetRefer -> GetReimburse").incidents);
  EXPECT_EQ(a.count("SeeDoctor"), b.count("SeeDoctor"));
}

TEST(IntegrationTest, FraudAuditPipeline) {
  // The paper's §6 application: detect anomalous behaviour with ad hoc
  // queries. Seeded fraud must be found; per-instance counts must match
  // instance-level recomputation.
  ClinicOptions opts;
  opts.fraud_rate = 0.2;
  const Log log = clinic_log(150, 123, opts);
  QueryEngine engine(log);

  const QueryResult anomalous = engine.run("GetReimburse -> UpdateRefer");
  EXPECT_GT(anomalous.total(), 0u);

  const auto per_instance = incidents_per_instance(anomalous.incidents);
  std::size_t sum = 0;
  LogIndex index(log);
  Evaluator ev(index);
  for (const InstanceCount& ic : per_instance) {
    const std::span<const Incident> one =
        ev.evaluate_instance(*anomalous.executed, ic.wid);
    EXPECT_EQ(one.size(), ic.incidents);
    sum += one.size();
  }
  EXPECT_EQ(sum, anomalous.total());
}

TEST(IntegrationTest, ChainWorkloadHasPredictableCounts) {
  // 10 instances of (A0 A1 A2) x 3: per instance, A0 occurs 3 times, and
  // "A0 -> A1" pairs every A0 with every later A1: 3+3+... = 6 per
  // instance? A0 at r, A1 later: positions A0: 2,5,8; A1: 3,6,9 ->
  // pairs (2,3)(2,6)(2,9)(5,6)(5,9)(8,9) = 6.
  const Log log = workload::chain(10, 3, 3);
  QueryEngine engine(log);
  EXPECT_EQ(engine.count("A0"), 30u);
  EXPECT_EQ(engine.count("A0 -> A1"), 60u);
  EXPECT_EQ(engine.count("A0 . A1"), 30u);
  // Consecutive A2.A0 across repeats: 2 per instance.
  EXPECT_EQ(engine.count("A2 . A0"), 20u);
}

TEST(IntegrationTest, StatsMatchEngineView) {
  const Log log = workload::random_process(25, 5);
  const LogStats stats = compute_stats(log);
  QueryEngine engine(log);
  EXPECT_EQ(stats.num_instances, log.wids().size());
  EXPECT_EQ(engine.count("START"), stats.num_instances);
  EXPECT_EQ(engine.count("END"), stats.num_completed);
}

TEST(IntegrationTest, NaiveOptimizedAndRewrittenAllAgreeOnClinic) {
  const Log log = workload::clinic(30, 55);
  LogIndex index(log);
  EvalOptions naive_opts;
  naive_opts.use_optimized_operators = false;
  Evaluator naive(index, naive_opts);
  Evaluator fast(index);
  const CostModel model(index);

  const char* queries[] = {
      "SeeDoctor -> (UpdateRefer -> GetReimburse)",
      "(SeeDoctor -> UpdateRefer) -> GetReimburse",
      "(PayTreatment | UpdateRefer) & SeeDoctor",
      "GetRefer . CheckIn",
      "!UpdateRefer . GetReimburse",
  };
  for (const char* q : queries) {
    const PatternPtr p = parse_pattern(q);
    const IncidentList expected = naive.evaluate(*p).flatten();
    EXPECT_EQ(fast.evaluate(*p).flatten(), expected) << q;
    const OptimizeResult opt = optimize(p, model);
    EXPECT_EQ(fast.evaluate(*opt.pattern).flatten(), expected)
        << q << " optimized to " << to_text(*opt.pattern);
  }
}

TEST(IntegrationTest, Theorem4EquivalenceOnRealWorkload) {
  const Log log = workload::clinic(40, 8);
  QueryEngine engine(log);
  EXPECT_EQ(engine.run("GetRefer . CheckIn -> GetReimburse").incidents,
            engine.run("GetRefer . (CheckIn -> GetReimburse)").incidents);
}

TEST(IntegrationTest, LargeLogSmokeTest) {
  const Log log = workload::clinic(1000, 99);
  EXPECT_GT(log.size(), 5000u);
  QueryEngine engine(log);
  const QueryResult r = engine.run("UpdateRefer -> GetReimburse");
  EXPECT_GT(r.total(), 0u);
  // Existence query must agree with full enumeration.
  EXPECT_EQ(engine.exists("UpdateRefer -> GetReimburse"), r.any());
}

}  // namespace
}  // namespace wflog
