#include "core/monitor.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/guard.h"
#include "core/parser.h"
#include "log/validate.h"
#include "test_util.h"

namespace wflog {
namespace {

using testing::inc;

TEST(MonitorTest, ReportsMatchOnCompletingRecord) {
  LogMonitor mon;
  const auto q = mon.add_query("a -> b");
  const Wid w = mon.begin_instance();
  mon.record(w, "a");
  EXPECT_TRUE(mon.matches().empty());
  mon.record(w, "b");
  ASSERT_EQ(mon.matches().size(), 1u);
  EXPECT_EQ(mon.matches()[0].query, q);
  EXPECT_EQ(mon.matches()[0].incident, inc(w, {2, 3}));
}

TEST(MonitorTest, EachIncidentReportedExactlyOnce) {
  LogMonitor mon;
  mon.add_query("a -> b");
  const Wid w = mon.begin_instance();
  mon.record(w, "a");
  mon.record(w, "b");  // {2,3}
  mon.record(w, "b");  // {2,4}
  mon.record(w, "a");
  mon.record(w, "b");  // {2,6}, {5,6}
  EXPECT_EQ(mon.matches().size(), 4u);
  EXPECT_EQ(mon.total_matches(1), 4u);
}

TEST(MonitorTest, ConsecutiveRequiresAdjacency) {
  LogMonitor mon;
  mon.add_query("a . b");
  const Wid w = mon.begin_instance();
  mon.record(w, "a");
  mon.record(w, "x");
  mon.record(w, "b");  // not adjacent to a
  EXPECT_TRUE(mon.matches().empty());
  mon.record(w, "a");
  mon.record(w, "b");
  EXPECT_EQ(mon.matches().size(), 1u);
}

TEST(MonitorTest, ChoiceAndParallel) {
  LogMonitor mon;
  const auto q_choice = mon.add_query("a | b");
  const auto q_par = mon.add_query("a & b");
  const Wid w = mon.begin_instance();
  mon.record(w, "a");
  mon.record(w, "b");
  std::size_t choice_hits = 0;
  std::size_t par_hits = 0;
  for (const auto& m : mon.matches()) {
    if (m.query == q_choice) ++choice_hits;
    if (m.query == q_par) ++par_hits;
  }
  EXPECT_EQ(choice_hits, 2u);  // each record alone
  EXPECT_EQ(par_hits, 1u);     // the pair
}

TEST(MonitorTest, InstancesAreIsolated) {
  LogMonitor mon;
  mon.add_query("a -> b");
  const Wid w1 = mon.begin_instance();
  const Wid w2 = mon.begin_instance();
  mon.record(w1, "a");
  mon.record(w2, "b");  // different instance: no match
  EXPECT_TRUE(mon.matches().empty());
  mon.record(w1, "b");
  EXPECT_EQ(mon.matches().size(), 1u);
  EXPECT_EQ(mon.matches()[0].incident.wid(), w1);
}

TEST(MonitorTest, EndInstanceEmitsEndRecordAndDropsState) {
  LogMonitor mon;
  mon.add_query("a -> END");
  const Wid w = mon.begin_instance();
  mon.record(w, "a");
  mon.end_instance(w);
  EXPECT_EQ(mon.matches().size(), 1u);
  EXPECT_THROW(mon.record(w, "a"), Error);
  EXPECT_THROW(mon.end_instance(w), Error);
}

TEST(MonitorTest, NegationAndPredicates) {
  LogMonitor mon;
  mon.add_query("!a");
  mon.add_query("pay[out.amount > 100]");
  const Wid w = mon.begin_instance();  // START matches !a
  mon.record(w, "a");                  // no
  mon.record(w, "pay", {}, {{"amount", Value{std::int64_t{50}}}});   // !a only
  mon.record(w, "pay", {}, {{"amount", Value{std::int64_t{500}}}});  // both
  std::size_t neg = 0;
  std::size_t pred = 0;
  for (const auto& m : mon.matches()) {
    (m.query == 1 ? neg : pred) += 1;
  }
  EXPECT_EQ(neg, 3u);  // START, pay, pay
  EXPECT_EQ(pred, 1u);
}

TEST(MonitorTest, NegationSentinelOptionRespected) {
  MonitorOptions opts;
  opts.negation_matches_sentinels = false;
  LogMonitor mon(opts);
  mon.add_query("!a");
  const Wid w = mon.begin_instance();
  mon.record(w, "b");
  mon.end_instance(w);
  EXPECT_EQ(mon.matches().size(), 1u);  // only "b"
}

TEST(MonitorTest, DrainClearsButKeepsTotals) {
  LogMonitor mon;
  const auto q = mon.add_query("a");
  const Wid w = mon.begin_instance();
  mon.record(w, "a");
  const auto drained = mon.drain();
  EXPECT_EQ(drained.size(), 1u);
  EXPECT_TRUE(mon.matches().empty());
  mon.record(w, "a");
  EXPECT_EQ(mon.matches().size(), 1u);
  EXPECT_EQ(mon.total_matches(q), 2u);
}

TEST(MonitorTest, SnapshotIsWellFormedLog) {
  LogMonitor mon;
  const Wid w1 = mon.begin_instance();
  const Wid w2 = mon.begin_instance();
  mon.record(w1, "a", {{"x", Value{std::int64_t{1}}}}, {});
  mon.record(w2, "b");
  mon.end_instance(w1);
  const Log log = mon.snapshot();
  EXPECT_EQ(log.size(), 5u);
  const std::vector<LogRecord> records(log.begin(), log.end());
  EXPECT_TRUE(check_well_formed(records, log.interner()).empty());
}

TEST(MonitorTest, LateQueryReplaysHistory) {
  LogMonitor mon;
  const Wid w = mon.begin_instance();
  mon.record(w, "a");
  mon.record(w, "b");
  const auto q = mon.add_query("a -> b");
  EXPECT_EQ(mon.total_matches(q), 1u);  // found in replayed history
  mon.record(w, "b");
  EXPECT_EQ(mon.total_matches(q), 2u);  // live matching continues
}

TEST(MonitorTest, LateQueryWithoutRetentionThrows) {
  MonitorOptions opts;
  opts.keep_records = false;
  LogMonitor mon(opts);
  const Wid w = mon.begin_instance();
  mon.record(w, "a");
  EXPECT_THROW(mon.add_query("a"), Error);
  EXPECT_THROW(mon.snapshot(), Error);
}

TEST(MonitorTest, SeededMonitorContinuesItsLog) {
  // Seeding continues a log exactly as feeding it would have: the same
  // next wid, is-lsns and lsns, the same bad events — without a record
  // copy, and with every appended record handed to on_record.
  const Log seed = testing::make_log("a b ; c ... ; d ...");
  std::vector<LogRecord> taken;
  MonitorOptions opts;
  opts.keep_records = false;
  opts.bad_event_policy = BadEventPolicy::kSkip;
  opts.on_record = [&](const LogRecord& l) { taken.push_back(l); };
  LogMonitor seeded(seed, opts);

  MonitorOptions fed_opts;
  fed_opts.bad_event_policy = BadEventPolicy::kSkip;
  LogMonitor fed(fed_opts);
  for (const LogRecord& l : seed) {
    if (l.activity == seed.start_symbol()) {
      ASSERT_EQ(fed.begin_instance(), l.wid);
    } else if (l.activity == seed.end_symbol()) {
      fed.end_instance(l.wid);
    } else {
      fed.record(l.wid, seed.activity_name(l.activity));
    }
  }
  EXPECT_EQ(seeded.num_records(), fed.num_records());

  for (LogMonitor* m : {&seeded, &fed}) {
    EXPECT_EQ(m->begin_instance(), 4u);
    m->record(2, "x");  // open: continues at is-lsn 3
    m->record(1, "x");  // ended: a bad event
    m->end_instance(3);
    EXPECT_EQ(m->num_bad_events(), 1u);
  }
  EXPECT_EQ(seeded.num_records(), fed.num_records());
  const Log grown = fed.snapshot();
  ASSERT_EQ(taken.size(), 3u);
  for (const LogRecord& l : taken) {
    const LogRecord& want = grown.record(l.lsn);
    EXPECT_EQ(l.wid, want.wid);
    EXPECT_EQ(l.is_lsn, want.is_lsn);
    EXPECT_EQ(seeded.interner().name(l.activity),
              grown.activity_name(want.activity));
  }
}

TEST(MonitorTest, RemoveQueryStopsReporting) {
  LogMonitor mon;
  const auto q = mon.add_query("a");
  const Wid w = mon.begin_instance();
  mon.record(w, "a");
  mon.remove_query(q);
  mon.record(w, "a");
  // Removal releases EVERYTHING the query owned, its match tally
  // included — the id never surfaces again.
  EXPECT_EQ(mon.total_matches(q), 0u);
  EXPECT_EQ(mon.num_queries(), 0u);
}

TEST(MonitorTest, RemoveQueryLeavesNoStateBehind) {
  // Regression: remove_query used to leave state_, match_totals_, and queued
  // matches_ rows behind, so a long-lived monitor with query churn leaked.
  LogMonitor mon;
  const Wid w = mon.begin_instance();
  mon.record(w, "a");
  mon.record(w, "b");
  for (int round = 0; round < 10; ++round) {
    const auto q = mon.add_query("a -> b");
    mon.record(w, "b");  // fresh match each round, left undrained
    EXPECT_GT(mon.total_matches(q), 0u);
    mon.remove_query(q);
    const LogMonitor::MemoryStats stats = mon.memory_stats();
    EXPECT_EQ(stats.state_queries, 0u);
    EXPECT_EQ(stats.state_instances, 0u);
    EXPECT_EQ(stats.tracked_totals, 0u);
    EXPECT_EQ(stats.pending_matches, 0u);
    EXPECT_EQ(mon.total_matches(q), 0u);
  }
  // drain() never yields a removed id, even for matches queued pre-removal.
  const auto q1 = mon.add_query("a");
  const auto q2 = mon.add_query("b");
  mon.record(w, "a");  // queues a q1 match
  mon.remove_query(q1);
  for (const auto& m : mon.drain()) EXPECT_EQ(m.query, q2);
}

TEST(MonitorTest, DrainPerQueryIsSelective) {
  LogMonitor mon;
  const auto qa = mon.add_query("a");
  const auto qb = mon.add_query("b");
  const Wid w = mon.begin_instance();
  mon.record(w, "a");
  mon.record(w, "b");
  mon.record(w, "a");
  const auto only_a = mon.drain(qa);
  ASSERT_EQ(only_a.size(), 2u);
  for (const auto& m : only_a) EXPECT_EQ(m.query, qa);
  // qb's match is still queued, in arrival order.
  const auto rest = mon.drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].query, qb);
  // Totals are untouched by either drain flavor.
  EXPECT_EQ(mon.total_matches(qa), 2u);
  EXPECT_EQ(mon.total_matches(qb), 1u);
}

TEST(MonitorTest, BackfillGuardStopsAndRollsBack) {
  // A late query replays history under the caller's guard; when the budget
  // trips mid-backfill the monitor must be left exactly as before the call.
  LogMonitor mon;
  const Wid w = mon.begin_instance();
  for (int i = 0; i < 8; ++i) mon.record(w, "a");
  const EvalGuard guard(std::chrono::milliseconds{0}, /*max_incidents=*/3,
                        nullptr);
  EXPECT_THROW(mon.add_query("a", &guard), Error);
  EXPECT_EQ(mon.num_queries(), 0u);
  const LogMonitor::MemoryStats stats = mon.memory_stats();
  EXPECT_EQ(stats.state_queries, 0u);
  EXPECT_EQ(stats.tracked_totals, 0u);
  EXPECT_EQ(stats.pending_matches, 0u);
  EXPECT_TRUE(mon.matches().empty());
  // A roomier guard succeeds and replays the full history.
  const EvalGuard roomy(std::chrono::milliseconds{0}, 100, nullptr);
  const auto q = mon.add_query("a", &roomy);
  EXPECT_EQ(mon.total_matches(q), 8u);
}

TEST(MonitorTest, ReservedActivityNamesRejected) {
  LogMonitor mon;
  const Wid w = mon.begin_instance();
  EXPECT_THROW(mon.record(w, "START"), Error);
  EXPECT_THROW(mon.record(w, "END"), Error);
}

// ----- the headline property: incremental == batch -----------------------

class MonitorBatchEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonitorBatchEquivalenceTest, MatchesBatchEvaluationExactly) {
  Rng rng(GetParam());
  const char* queries[] = {
      "a -> b", "a . b",          "a | !b",       "a & b",
      "(a -> b) & c", "a -> (b | c)", "!c . a",  "(a & b) | (a . c)",
  };

  LogMonitor mon;
  std::vector<LogMonitor::QueryId> ids;
  for (const char* q : queries) ids.push_back(mon.add_query(q));

  // Drive a random interleaved workload through the monitor.
  std::vector<Wid> open;
  for (int event = 0; event < 120; ++event) {
    const int action = static_cast<int>(rng.uniform(0, 9));
    if (open.empty() || action == 0) {
      open.push_back(mon.begin_instance());
    } else if (action == 1 && open.size() > 1) {
      const std::size_t i = rng.index(open.size());
      mon.end_instance(open[i]);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const Wid w = open[rng.index(open.size())];
      mon.record(w, std::string(1, static_cast<char>('a' + rng.index(3))));
    }
  }

  // Batch-evaluate the same queries on the snapshot.
  const Log log = mon.snapshot();
  const LogIndex index(log);
  const Evaluator ev(index);
  for (std::size_t i = 0; i < std::size(queries); ++i) {
    const IncidentSet batch = ev.evaluate(*parse_pattern(queries[i]));
    EXPECT_EQ(mon.total_matches(ids[i]), batch.total())
        << queries[i] << " seed " << GetParam();
  }

  // And the reported incidents are exactly the batch incident sets.
  std::vector<IncidentList> reported(std::size(queries));
  for (const auto& m : mon.matches()) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == m.query) reported[i].push_back(m.incident);
    }
  }
  for (std::size_t i = 0; i < std::size(queries); ++i) {
    canonicalize(reported[i]);
    EXPECT_EQ(reported[i],
              ev.evaluate(*parse_pattern(queries[i])).flatten())
        << queries[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorBatchEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 16));

// ----- bad-event policy ----------------------------------------------------

TEST(MonitorTest, RejectPolicyThrowsOnUnknownInstance) {
  LogMonitor m;  // kReject is the default
  EXPECT_THROW(m.record(42, "a"), Error);
  const Wid w = m.begin_instance();
  m.end_instance(w);
  EXPECT_THROW(m.record(w, "a"), Error);      // already completed
  EXPECT_THROW(m.end_instance(w), Error);     // double end
  EXPECT_EQ(m.num_bad_events(), 3u);
}

TEST(MonitorTest, SkipPolicyDropsBadEventsAndKeepsRunning) {
  MonitorOptions options;
  options.bad_event_policy = BadEventPolicy::kSkip;
  LogMonitor m(options);
  const auto q = m.add_query("a -> b");

  m.record(42, "a");  // unknown wid: dropped, not thrown
  const Wid w = m.begin_instance();
  m.record(w, "a");
  m.record(w, "START");  // reserved name: dropped
  m.record(w, "b");
  m.end_instance(w);
  m.end_instance(w);  // double end: dropped

  EXPECT_EQ(m.num_bad_events(), 3u);
  EXPECT_TRUE(m.quarantined().empty());  // kSkip retains nothing
  EXPECT_EQ(m.total_matches(q), 1u);     // the good events still matched
  EXPECT_EQ(m.num_records(), 4u);        // START a b END
}

TEST(MonitorTest, QuarantinePolicyRetainsEventsAndInvokesCallback) {
  MonitorOptions options;
  options.bad_event_policy = BadEventPolicy::kQuarantine;
  std::vector<BadEvent> seen;
  options.on_bad_event = [&seen](const BadEvent& e) { seen.push_back(e); };
  LogMonitor m(options);

  m.record(7, "late-event");
  const Wid w = m.begin_instance();
  m.end_instance(w);
  m.end_instance(w);

  ASSERT_EQ(m.quarantined().size(), 2u);
  EXPECT_EQ(m.quarantined()[0].wid, 7u);
  EXPECT_EQ(m.quarantined()[0].activity, "late-event");
  EXPECT_NE(m.quarantined()[0].reason.find("not open"), std::string::npos);
  EXPECT_EQ(m.quarantined()[1].wid, w);
  EXPECT_EQ(m.num_bad_events(), 2u);
  // The callback saw the same events, in the same order.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].activity, "late-event");
  EXPECT_EQ(seen[1].wid, w);
}

TEST(MonitorTest, QuarantineRingIsCapped) {
  // Regression: quarantined_ grew without bound under kQuarantine, so a
  // misbehaving producer could exhaust memory on a long-lived monitor.
  MonitorOptions options;
  options.bad_event_policy = BadEventPolicy::kQuarantine;
  options.quarantine_capacity = 4;
  LogMonitor m(options);
  for (Wid w = 100; w < 110; ++w) {
    m.record(w, "stray");  // unknown instance: quarantined
  }
  EXPECT_EQ(m.num_bad_events(), 10u);
  ASSERT_EQ(m.quarantined().size(), 4u);
  EXPECT_EQ(m.num_quarantine_dropped(), 6u);
  // The ring keeps the most recent events, oldest evicted first.
  EXPECT_EQ(m.quarantined().front().wid, 106u);
  EXPECT_EQ(m.quarantined().back().wid, 109u);
}

TEST(MonitorTest, QuarantineCapacityZeroRetainsNothing) {
  MonitorOptions options;
  options.bad_event_policy = BadEventPolicy::kQuarantine;
  options.quarantine_capacity = 0;
  LogMonitor m(options);
  m.record(7, "stray");
  m.record(8, "stray");
  EXPECT_TRUE(m.quarantined().empty());
  EXPECT_EQ(m.num_quarantine_dropped(), 2u);
  EXPECT_EQ(m.num_bad_events(), 2u);
}

TEST(MonitorTest, CallbackFiresUnderRejectToo) {
  MonitorOptions options;  // kReject
  std::size_t calls = 0;
  options.on_bad_event = [&calls](const BadEvent&) { ++calls; };
  LogMonitor m(options);
  EXPECT_THROW(m.record(1, "a"), Error);
  EXPECT_EQ(calls, 1u);
}

}  // namespace
}  // namespace wflog
