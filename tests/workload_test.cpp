#include "workflow/workload.h"

#include <gtest/gtest.h>

#include <map>

#include "core/engine.h"
#include "core/monitor.h"
#include "log/validate.h"
#include "test_util.h"
#include "workflow/clinic.h"

namespace wflog {
namespace {

bool well_formed(const Log& log) {
  const std::vector<LogRecord> records(log.begin(), log.end());
  return check_well_formed(records, log.interner()).empty();
}

TEST(WorkloadTest, Figure3PresetIsThePaperLog) {
  const Log a = workload::figure3();
  const Log b = figure3_log();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 1; i <= a.size(); ++i) {
    EXPECT_EQ(a.activity_name(a.record(i).activity),
              b.activity_name(b.record(i).activity));
  }
}

TEST(WorkloadTest, ChainStructure) {
  const Log log = workload::chain(3, 2, 2);
  // Each instance: START A0 A1 A0 A1 END.
  EXPECT_EQ(log.size(), 3u * 6u);
  EXPECT_TRUE(well_formed(log));
  const LogIndex index(log);
  for (Wid wid : log.wids()) {
    EXPECT_EQ(testing::to_vector(
                  index.occurrences(wid, log.activity_symbol("A0"))),
              (std::vector<IsLsn>{2, 4}));
    EXPECT_EQ(testing::to_vector(
                  index.occurrences(wid, log.activity_symbol("A1"))),
              (std::vector<IsLsn>{3, 5}));
  }
}

TEST(WorkloadTest, WorstcaseStructure) {
  const Log log = workload::worstcase(5);
  EXPECT_EQ(log.size(), 7u);  // START + 5x t + END
  EXPECT_TRUE(well_formed(log));
  const LogIndex index(log);
  EXPECT_EQ(index.total_count(log.activity_symbol("t")), 5u);
  EXPECT_EQ(log.wids().size(), 1u);
}

TEST(WorkloadTest, AllPresetsWellFormed) {
  EXPECT_TRUE(well_formed(workload::clinic(25, 1)));
  EXPECT_TRUE(well_formed(workload::procurement(25, 1)));
  EXPECT_TRUE(well_formed(workload::random_process(25, 1)));
}

TEST(WorkloadTest, PresetsDeterministicPerSeed) {
  const Log a = workload::procurement(15, 9);
  const Log b = workload::procurement(15, 9);
  ASSERT_EQ(a.size(), b.size());
  const Log c = workload::procurement(15, 10);
  // Different seed: very likely a different log (length or content).
  bool differs = a.size() != c.size();
  for (std::size_t i = 1; !differs && i <= std::min(a.size(), c.size());
       ++i) {
    differs = a.activity_name(a.record(i).activity) !=
              c.activity_name(c.record(i).activity);
  }
  EXPECT_TRUE(differs);
}

// The monitor on an AND-parallel-heavy feed: streaming totals must equal
// batch evaluation even when branch interleavings vary per instance.
TEST(WorkloadTest, MonitorHandlesParallelHeavyProcurementFeed) {
  const Log feed = workload::procurement(40, 0xF00D);
  LogMonitor monitor;
  const auto q1 = monitor.add_query("ReceiveGoods & ReceiveInvoice");
  const auto q2 = monitor.add_query("MatchThreeWay . Pay");
  const auto q3 =
      monitor.add_query("(InspectGoods & VerifyInvoice) . MatchThreeWay");

  std::map<Wid, Wid> wid_map;
  for (const LogRecord& l : feed) {
    if (l.activity == feed.start_symbol()) {
      wid_map[l.wid] = monitor.begin_instance();
    } else if (l.activity == feed.end_symbol()) {
      monitor.end_instance(wid_map.at(l.wid));
    } else {
      monitor.record(wid_map.at(l.wid), feed.activity_name(l.activity));
    }
  }

  const Log snapshot = monitor.snapshot();
  QueryOptions opts;
  opts.optimize = false;
  QueryEngine engine(snapshot, opts);
  EXPECT_EQ(monitor.total_matches(q1),
            engine.run("ReceiveGoods & ReceiveInvoice").total());
  EXPECT_EQ(monitor.total_matches(q2),
            engine.run("MatchThreeWay . Pay").total());
  EXPECT_EQ(
      monitor.total_matches(q3),
      engine.run("(InspectGoods & VerifyInvoice) . MatchThreeWay").total());
}

}  // namespace
}  // namespace wflog
