#include "log/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace wflog {
namespace {

using testing::make_log;
using testing::to_vector;

TEST(LogIndexTest, InstanceRecordsInIsLsnOrder) {
  const Log log = make_log("a b ; c");
  const LogIndex index(log);
  const auto& recs = index.instance(1);
  ASSERT_EQ(recs.size(), 4u);  // START a b END
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i]->is_lsn, i + 1);
  }
}

TEST(LogIndexTest, UnknownWidIsEmpty) {
  const Log log = make_log("a");
  const LogIndex index(log);
  EXPECT_TRUE(index.instance(99).empty());
  EXPECT_EQ(index.instance_length(99), 0u);
}

TEST(LogIndexTest, FindByPosition) {
  const Log log = make_log("a b c");
  const LogIndex index(log);
  const LogRecord* l = index.find(1, 3);  // third record = "b"
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(log.activity_name(l->activity), "b");
  EXPECT_EQ(index.find(1, 0), nullptr);
  EXPECT_EQ(index.find(1, 99), nullptr);
}

TEST(LogIndexTest, OccurrencesSortedPerInstance) {
  const Log log = make_log("a b a b a ; b a");
  const LogIndex index(log);
  const Symbol a = log.activity_symbol("a");
  EXPECT_EQ(to_vector(index.occurrences(1, a)), (std::vector<IsLsn>{2, 4, 6}));
  EXPECT_EQ(to_vector(index.occurrences(2, a)), (std::vector<IsLsn>{3}));
}

TEST(LogIndexTest, OccurrencesOfAbsentActivity) {
  const Log log = make_log("a");
  const LogIndex index(log);
  EXPECT_TRUE(index.occurrences(1, kNoSymbol).empty());
  const Symbol a = log.activity_symbol("a");
  EXPECT_TRUE(index.occurrences(2, a).empty());
}

TEST(LogIndexTest, NonOccurrencesComplement) {
  const Log log = make_log("a b a");
  const LogIndex index(log);
  const Symbol a = log.activity_symbol("a");
  // Instance: START a b a END -> non-"a" at 1 (START), 3 (b), 5 (END).
  EXPECT_EQ(index.non_occurrences(1, a), (std::vector<IsLsn>{1, 3, 5}));
}

TEST(LogIndexTest, TotalCounts) {
  const Log log = make_log("a b a ; a");
  const LogIndex index(log);
  EXPECT_EQ(index.total_count(log.activity_symbol("a")), 3u);
  EXPECT_EQ(index.total_count(log.activity_symbol("b")), 1u);
  EXPECT_EQ(index.total_count(log.start_symbol()), 2u);
  EXPECT_EQ(index.total_count(kNoSymbol), 0u);
}

TEST(LogIndexTest, ActivitiesListsDistinctSymbols) {
  const Log log = make_log("a b a b");
  const LogIndex index(log);
  // START, END, a, b.
  EXPECT_EQ(index.activities().size(), 4u);
}

TEST(LogIndexTest, WidsMatchLog) {
  const Log log = make_log("a ; b ; c");
  const LogIndex index(log);
  EXPECT_EQ(index.wids().size(), 3u);
}

// ----- differential: columnar index vs a naive scan of the log -----------

/// A random well-formed log: instances with sparse, non-contiguous wids,
/// lengths from 1 (a lone START) up to ~14 records, records interleaved
/// across instances, and an alphabet far larger than any one instance's
/// activity table (plus interned names that never occur).
Log random_log(Rng& rng) {
  Interner in;
  const Symbol start = in.intern(kStartActivity);
  const Symbol end = in.intern(kEndActivity);
  std::vector<Symbol> alphabet;
  const std::size_t alphabet_size = rng.uniform(1, 40);
  for (std::size_t i = 0; i < alphabet_size; ++i) {
    alphabet.push_back(in.intern("t" + std::to_string(i)));
  }
  in.intern("never_logged");

  const std::size_t num_instances = rng.uniform(1, 25);
  std::vector<Wid> wids;
  while (wids.size() < num_instances) {
    const Wid wid = rng.uniform(1, 1'000'000'000'000ULL);
    if (std::find(wids.begin(), wids.end(), wid) == wids.end()) {
      wids.push_back(wid);
    }
  }
  // Per instance: its activity sequence (START first, END optional).
  std::vector<std::vector<Symbol>> pending(num_instances);
  for (auto& seq : pending) {
    seq.push_back(start);
    const std::size_t body = rng.bernoulli(0.2) ? 0 : rng.uniform(0, 12);
    // Draw from a small per-instance subset so activities repeat.
    const std::size_t subset = rng.uniform(1, 4);
    const std::size_t base = rng.uniform(0, alphabet.size() - 1);
    for (std::size_t i = 0; i < body; ++i) {
      seq.push_back(
          alphabet[(base + rng.uniform(0, subset - 1)) % alphabet.size()]);
    }
    if (body > 0 && rng.bernoulli(0.7)) seq.push_back(end);
  }
  // Interleave: repeatedly append the next record of a random instance.
  std::vector<std::size_t> next(num_instances, 0);
  std::vector<LogRecord> records;
  std::size_t remaining = 0;
  for (const auto& seq : pending) remaining += seq.size();
  while (remaining > 0) {
    const std::size_t i = rng.uniform(0, num_instances - 1);
    if (next[i] == pending[i].size()) continue;
    LogRecord l;
    l.lsn = records.size() + 1;
    l.wid = wids[i];
    l.is_lsn = static_cast<IsLsn>(next[i] + 1);
    l.activity = pending[i][next[i]++];
    records.push_back(std::move(l));
    --remaining;
  }
  return Log::from_records(std::move(records), std::move(in));
}

/// The naive reference: an instance's records by scanning the whole log.
std::vector<const LogRecord*> scan_instance(const Log& log, Wid wid) {
  std::vector<const LogRecord*> out;
  for (const LogRecord& l : log) {
    if (l.wid == wid) out.push_back(&l);
  }
  return out;
}

TEST(LogIndexDifferentialTest, MatchesNaiveScanOnRandomLogs) {
  Rng rng(4242);
  for (int round = 0; round < 150; ++round) {
    const Log log = random_log(rng);
    const LogIndex index(log);
    const auto num_symbols = static_cast<Symbol>(log.interner().size());

    std::vector<Symbol> want_activities;
    for (const LogRecord& l : log) want_activities.push_back(l.activity);
    std::sort(want_activities.begin(), want_activities.end());
    want_activities.erase(
        std::unique(want_activities.begin(), want_activities.end()),
        want_activities.end());
    EXPECT_EQ(index.activities(), want_activities);
    for (Symbol a = 0; a < num_symbols; ++a) {
      const auto want = static_cast<std::size_t>(
          std::count_if(log.begin(), log.end(),
                        [a](const LogRecord& l) { return l.activity == a; }));
      EXPECT_EQ(index.total_count(a), want) << "symbol " << a;
    }
    EXPECT_EQ(index.total_count(kNoSymbol), 0u);

    std::vector<Wid> probe = log.wids();
    probe.push_back(0);                              // never a wid here
    probe.push_back(1'000'000'000'001ULL);           // above every wid
    for (const Wid wid : probe) {
      const std::vector<const LogRecord*> recs = scan_instance(log, wid);
      const auto inst = index.instance(wid);
      ASSERT_EQ(std::vector<const LogRecord*>(inst.begin(), inst.end()),
                recs)
          << "round " << round << " wid " << wid;
      EXPECT_EQ(index.instance_length(wid), recs.size());
      for (IsLsn n = 0; n <= recs.size() + 1; ++n) {
        const LogRecord* want =
            n >= 1 && n <= recs.size() ? recs[n - 1] : nullptr;
        EXPECT_EQ(index.find(wid, n), want) << "wid " << wid << " n " << n;
      }
      for (Symbol a = 0; a <= num_symbols; ++a) {
        const Symbol sym = a == num_symbols ? kNoSymbol : a;
        std::vector<IsLsn> occ, non;
        for (const LogRecord* l : recs) {
          (l->activity == sym ? occ : non).push_back(l->is_lsn);
        }
        EXPECT_EQ(to_vector(index.occurrences(wid, sym)), occ)
            << "wid " << wid << " symbol " << sym;
        EXPECT_EQ(index.non_occurrences(wid, sym), non)
            << "wid " << wid << " symbol " << sym;
      }
    }
    for (std::size_t i = 0; i < log.wids().size(); ++i) {
      const InstanceView v = index.view_at(i);
      const auto by_wid = index.instance(log.wids()[i]);
      EXPECT_EQ(v.records().data(), by_wid.data());
      ASSERT_EQ(v.symbols().size(), v.length());
      for (std::size_t k = 0; k < v.length(); ++k) {
        EXPECT_EQ(v.symbols()[k], v.records()[k]->activity);
      }
    }
  }
}

}  // namespace
}  // namespace wflog
