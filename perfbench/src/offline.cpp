// offline_batch: the wfq / library path, no HTTP. Set-up opens a compacted
// v2 store of clinic records, loads the instances the batch can match
// (load_pruned) and builds a QueryEngine; the timed part repeats run_batch
// of one fixed 16-query batch with shared subpatterns.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>

#include "core/engine.h"
#include "inputs.h"
#include "log/store.h"
#include "workloads.h"

namespace perfbench {

using namespace wflog;

namespace {

constexpr std::size_t kInstances = 20000;  // about 220k records
constexpr int kSetups = 7;

// A reimbursement-audit dashboard: every query needs GetReimburse, and
// the texts share subpatterns (GetRefer . CheckIn, SeeDoctor . PayTreatment,
// UpdateRefer -> GetReimburse) for run_batch's per-instance memo.
const std::vector<std::string> kBatch = {
    "GetRefer -> GetReimburse",
    "UpdateRefer -> GetReimburse",
    "GetReimburse -> UpdateRefer",
    "(SeeDoctor . PayTreatment) -> GetReimburse",
    "(GetRefer . CheckIn) -> GetReimburse",
    "(GetRefer . CheckIn) -> (UpdateRefer -> GetReimburse)",
    "SeeDoctor -> (UpdateRefer -> GetReimburse)",
    "(SeeDoctor . PayTreatment) & GetReimburse",
    "(UpdateRefer | TakeTreatment) -> GetReimburse",
    "GetReimburse -> (UpdateRefer | CompleteRefer)",
    "GetRefer[out.balance > 3000] -> GetReimburse",
    "(CheckIn -> UpdateRefer) -> GetReimburse",
    "GetReimburse . !UpdateRefer",
    "(SeeDoctor -> PayTreatment) -> GetReimburse",
    "GetRefer -> ((SeeDoctor . PayTreatment) -> GetReimburse)",
    "(GetRefer . CheckIn) & (SeeDoctor -> GetReimburse)",
};

/// Activities every query of the batch requires (the intersection of their
/// required sets), the argument of load_pruned.
std::vector<std::string> batch_required() {
  std::vector<std::string> common;
  bool first = true;
  for (const std::string& q : kBatch) {
    std::vector<std::string> req =
        required_activities(*Query::parse(q).pattern);
    std::sort(req.begin(), req.end());
    if (first) {
      common = req;
      first = false;
    } else {
      std::vector<std::string> both;
      std::set_intersection(common.begin(), common.end(), req.begin(),
                            req.end(), std::back_inserter(both));
      common = both;
    }
  }
  return common;
}

QueryOptions engine_options() {
  QueryOptions o;
  o.shards = 0;  // wfq's default: hardware concurrency
  return o;
}

/// Order-sensitive FNV-1a digest of an incident set: wids and positions.
std::uint64_t digest(const IncidentSet& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ull;
  };
  for (const IncidentSet::Group& g : s.groups()) {
    mix(g.wid);
    for (const Incident& o : g.incidents) {
      for (const IsLsn p : o.positions()) mix(p);
      mix(~0ull);
    }
  }
  return h;
}

/// Digest of each batch query evaluated by run() over a full, unpruned
/// load. Computed in a child process, so the parent starts set-up with the
/// memory of a fresh process, as wfq does.
std::vector<std::uint64_t> reference_digests(const fs::path& store) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int status = 0;
    try {
      const Log full = LogStore::open(store).load();
      const QueryEngine engine(full, engine_options());
      for (const std::string& q : kBatch) {
        const QueryResult r = engine.run(q);
        const std::uint64_t d = r.complete() ? digest(r.incidents) : 0;
        if (write(fds[1], &d, sizeof d) != sizeof d) status = 1;
      }
    } catch (...) {
      status = 1;
    }
    _exit(status);
  }
  close(fds[1]);
  std::vector<std::uint64_t> out(kBatch.size());
  std::size_t got = 0;
  auto* bytes = reinterpret_cast<char*>(out.data());
  const std::size_t want = out.size() * sizeof(std::uint64_t);
  for (ssize_t n; got < want && (n = read(fds[0], bytes + got, want - got)) > 0;) {
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != want || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("reference evaluation failed");
  }
  return out;
}

}  // namespace

Report run_offline_batch(const RunConfig& cfg) {
  Report rep;
  const fs::path dir = cached_inputs(cfg, [&](const fs::path& tmp) {
    write_store(simulate("clinic", kInstances, cfg.seed), tmp / "store");
  });
  const fs::path store_dir = dir / "store";
  const std::vector<std::string> required = batch_required();

  const std::vector<std::uint64_t> reference = reference_digests(store_dir);

  // Set-up, several times: open the store, pruned load, engine build.
  Spans spans(cfg.trace);
  std::vector<double> setups;
  std::optional<LogStore::PrunedLoad> loaded;
  std::unique_ptr<QueryEngine> engine;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    loaded.reset();
    const auto t0 = Clock::now();
    int span = spans.open("log.store.open");
    const LogStore store = LogStore::open(store_dir);
    spans.close(span);
    span = spans.open("log.store.load");
    loaded.emplace(store.load_pruned(required));
    spans.close(span);
    span = spans.open("core.engine.build");
    engine = std::make_unique<QueryEngine>(loaded->log, engine_options());
    spans.close(span);
    setups.push_back(seconds_since(t0));
    if (i == 0) {
      const LogStore::StorageStats ss = store.storage_stats();
      rep.add("log.store.compression_ratio",
              static_cast<double>(ss.uncompressed_payload_bytes) /
                  static_cast<double>(ss.compressed_payload_bytes),
              "ratio");
    }
  }
  rep.add("setup_s", median(setups), "s");
  rep.add("log.store.blocks_skipped_ratio",
          loaded->blocks_total > 0
              ? static_cast<double>(loaded->blocks_skipped) /
                    static_cast<double>(loaded->blocks_total)
              : 0,
          "ratio");
  rep.add("log.store.open_ms", median(spans.durations("log.store.open")) / 1000,
          "ms");
  rep.add("log.store.load_ms", median(spans.durations("log.store.load")) / 1000,
          "ms");
  rep.add("core.engine.build_ms",
          median(spans.durations("core.engine.build")) / 1000, "ms");
  if (cfg.trace) {
    {
      Scoped s(spans, "log.index.build");
      const LogIndex index(loaded->log);
    }
    rep.add("log.index.build_ms",
            spans.durations("log.index.build")[0] / 1000, "ms");
  }

  // Gate before timing: the batch equals per-query run() on the pruned log
  // and the reference on the full log.
  {
    const BatchResult b = engine->run_batch(kBatch, cfg.threads);
    for (std::size_t i = 0; i < kBatch.size(); ++i) {
      const QueryResult single = engine->run(kBatch[i]);
      if (!(b.results[i].incidents == single.incidents)) {
        rep.mismatch("run_batch differs from run() for " + kBatch[i]);
      }
      if (digest(single.incidents) != reference[i]) {
        rep.mismatch("pruned load differs from full load for " + kBatch[i]);
      }
    }
    rep.phase("gate", 2 * kBatch.size(), rep.correct ? 0 : 1);
  }

  // Timed passes; every pass's answers are checked against the reference.
  std::vector<double> eval_ms;  // BatchResult::eval_us of traced passes
  const auto passes = [&](double seconds, bool traced,
                          std::vector<double>& wall_ms) {
    std::uint64_t failed = 0;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < seconds) {
      const int span = traced ? spans.open("core.batch.pass") : -1;
      const auto a = Clock::now();
      const BatchResult b = engine->run_batch(kBatch, cfg.threads);
      wall_ms.push_back(ms_between(a, Clock::now()));
      spans.close(span);
      bool ok = b.results.size() == kBatch.size();
      for (std::size_t i = 0; ok && i < kBatch.size(); ++i) {
        ok = b.results[i].complete() &&
             digest(b.results[i].incidents) == reference[i];
      }
      failed += ok ? 0 : 1;
      if (traced) {
        eval_ms.push_back(b.eval_us / 1000);
        const EvalCounters& c = b.stats.counters;
        rep.add("core.eval.pairs_examined",
                static_cast<double>(c.pairs_examined), "count");
        rep.add("core.eval.incidents_emitted",
                static_cast<double>(c.incidents_emitted), "count");
        rep.add("core.batch.memo_hit_ratio",
                static_cast<double>(c.cache_hits) /
                    static_cast<double>(c.cache_hits + c.cache_misses),
                "ratio");
      }
    }
    rep.phase(traced ? "batch-traced" : "batch", wall_ms.size(), failed);
  };

  const double share = cfg.trace ? 0.5 : 1.0;
  std::vector<double> wall;
  passes(cfg.seconds * share, false, wall);
  const double p50 = median(wall);
  rep.add("op_p50_ms", p50, "ms");
  rep.add("op_tail_ms", quantile(wall, 0.9), "ms");
  double total_ms = 0;
  for (double w : wall) total_ms += w;
  rep.add("batch_queries_per_s",
          static_cast<double>(kBatch.size() * wall.size()) / (total_ms / 1000),
          "1/s");
  rep.add("rss_bytes_per_record",
          rss_bytes_of("self") / static_cast<double>(loaded->log.size()), "B");

  if (cfg.trace) {
    std::vector<double> traced;
    passes(cfg.seconds * 0.5, true, traced);
    rep.add("core.batch.pass_ms", median(eval_ms), "ms");
    rep.add("bench.trace_overhead_frac", median(traced) / p50 - 1, "ratio");
  }
  spans.write(cfg.work / ("offline_batch-" + std::to_string(cfg.seed) +
                          ".spans.jsonl"));
  return rep;
}

}  // namespace perfbench
