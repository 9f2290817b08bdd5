#pragma once

// Wid-sharded scatter/gather evaluation.
//
// Incidents never cross workflow-instance boundaries (Definitions 3-4), so
// a log partitions perfectly by wid: split the instance set into K
// wid-disjoint shards (a stable hash of the wid, identical across runs and
// processes), evaluate the query per shard on a pool of workers that
// outlives any single query, and recombine the per-shard incident sets in
// the global instance order. The merge is deterministic, so the output is
// BYTE-IDENTICAL to unsharded evaluation for every K — the property
// tests/shard_test.cpp enforces differentially.
//
// Three pieces:
//   * ShardPlan      — the partitioner: wid -> shard_of_wid(wid) % K, with
//                      each wid's global position retained so the merge can
//                      reassemble groups in first-appearance order.
//   * ShardPool      — a persistent worker pool shared by every query of an
//                      engine (scatter without per-query thread spawns; the
//                      caller participates, so a 0-worker pool degrades to
//                      the serial loop).
//   * scatter_shards  — the one loop that hands shards to the pool (or
//                      runs them inline); evaluate_sharded / count_sharded /
//                      exists_sharded and evaluate_batch (core/batch.h) are
//                      scatter/gather drivers over it and the ordinary
//                      per-instance evaluator.
//
// Resource guards: one EvalGuard is shared by every shard (it is built for
// exactly that — atomic budget, atomic trip), so the deadline, the
// incident budget, and cancellation are enforced GLOBALLY: the first shard
// to trip stops the siblings at their next poll, and the caller surfaces
// one stop_reason exactly as an unsharded run would.

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/evaluator.h"

namespace wflog {

/// Stable shard assignment: splitmix64-mixed wid modulo num_shards.
/// Depends only on (wid, num_shards) — never on thread timing, pointer
/// values, or std::hash — so a wid lands on the same shard in every run,
/// every process, and every future multi-process router. Inline so the log
/// layer (log/slice.h's shard_instances) shares the exact assignment
/// without linking the core library.
inline std::size_t shard_of_wid(Wid wid, std::size_t num_shards) noexcept {
  if (num_shards <= 1) return 0;
  // splitmix64 finalizer: wids are dense small integers (the monitor
  // assigns them sequentially), so the raw modulo would put consecutive
  // wids on consecutive shards — fine for balance, but any future
  // range-based routing would alias it. The mix makes the assignment a
  // pure function of (wid, num_shards), independent of allocation order.
  std::uint64_t z = static_cast<std::uint64_t>(wid) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::size_t>(z % num_shards);
}

/// Effective shard count: `requested` (0 = hardware_concurrency) clamped
/// to [1, instances] — sharding an instance set finer than one wid per
/// shard only adds empty tasks.
std::size_t resolve_shard_count(std::size_t requested,
                                std::size_t instances) noexcept;

/// The partition of a log's instance set into K wid-disjoint shards.
/// Built once per engine (the wid set is immutable per snapshot) and
/// reused by every query.
class ShardPlan {
 public:
  ShardPlan() = default;
  /// Partitions `wids` (the log's instance list, in first-appearance
  /// order) into resolve_shard_count(num_shards, wids.size()) shards.
  ShardPlan(const std::vector<Wid>& wids, std::size_t num_shards);

  std::size_t num_shards() const noexcept { return shards_.size(); }
  /// Total instances across all shards.
  std::size_t num_instances() const noexcept { return num_instances_; }

  struct Shard {
    std::vector<Wid> wids;            // this shard's instances, log order
    std::vector<std::size_t> global;  // global[i] = position of wids[i] in
                                      // the log's wid list
  };
  const Shard& shard(std::size_t s) const { return shards_[s]; }
  const std::vector<Shard>& shards() const noexcept { return shards_; }

 private:
  std::vector<Shard> shards_;
  std::size_t num_instances_ = 0;
};

/// A persistent pool of shard workers, created once per engine and reused
/// by every query — scatter without per-query thread spawns (E19 showed a
/// thread per whole query cannot scale a multi-core host).
///
/// run(count, work) executes work(i) for i in [0, count) and returns when
/// all items finished. The CALLING thread participates in its own job, so
/// a pool with zero workers degrades to the plain serial loop, and
/// progress never depends on workers being free. Multiple threads may call
/// run() concurrently (wfqd's request workers share one engine): jobs
/// queue FIFO and every worker drains them in order.
///
/// shutdown() (or destruction) stops the workers after their current item;
/// callers inside run() finish their remaining items inline — correctness
/// never depends on the pool being alive. Genuine cancellation of
/// in-flight work is the guard's job: wfqd's drain trips every request's
/// EvalGuard, which the per-shard evaluation polls (the
/// drain-under-sharded-load regression test in tests/server_test.cpp).
class ShardPool {
 public:
  /// Spawns `workers` threads (0 = none; run() then executes inline).
  explicit ShardPool(std::size_t workers);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Executes work(i) for every i in [0, count); blocks until done.
  /// An exception thrown by any item is captured and rethrown here (first
  /// one wins; remaining items still run).
  void run(std::size_t count, const std::function<void(std::size_t)>& work);

  /// Stops the workers after their current item and joins them.
  /// Idempotent. Queued-but-unstarted items are NOT dropped: the callers
  /// blocked in run() execute them inline, so results stay complete.
  void shutdown();

  std::size_t workers() const noexcept { return workers_.size(); }

 private:
  struct Job {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* work = nullptr;
    std::size_t next = 0;    // next unclaimed item (under mu_)
    std::size_t done = 0;    // finished items (under mu_)
    std::exception_ptr error;  // first failure (under mu_)
    std::condition_variable finished;
  };

  /// Claims and runs items of `job` until it is exhausted; returns with
  /// mu_ held. `lock` must hold mu_ on entry.
  void drain_job(Job& job, std::unique_lock<std::mutex>& lock);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<Job*> jobs_;  // FIFO of jobs with unclaimed items
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// One shard's raw gather output: the non-empty incident lists of its
/// instances tagged with each instance's global position. Public so the
/// merge can be property-tested under adversarial completion orders.
struct ShardResult {
  std::vector<std::size_t> positions;  // ascending global positions
  std::vector<Wid> wids;               // parallel to positions
  std::vector<IncidentList> lists;     // parallel, each non-empty
};

/// Deterministic gather: recombines per-shard outputs into one IncidentSet
/// whose groups appear in ascending global-position order — exactly the
/// shape Evaluator::evaluate produces, independent of the order the shards
/// finished in (or are listed in). `num_instances` is the log's total
/// instance count (positions index into it).
IncidentSet merge_shards(std::size_t num_instances,
                         std::vector<ShardResult> results);

/// The one scatter loop of the tree: runs task(s) for every shard s in
/// [0, num_shards) on `pool` when set, else serially on the calling thread
/// — in `completion_order` when set (the test scheduler hook: a
/// permutation of [0, num_shards)), else in shard order. The drivers below
/// and the batch engine (core/batch.h) all scatter through it; a scatter
/// over more than one shard is counted in telemetry.
void scatter_shards(std::size_t num_shards, ShardPool* pool,
                    const std::vector<std::size_t>* completion_order,
                    const std::function<void(std::size_t)>& task);

struct ShardEvalOptions {
  EvalOptions eval;
  /// Shared guard; a trip in any shard early-cancels the siblings at
  /// their next poll. Borrowed; may be null.
  const EvalGuard* guard = nullptr;
  /// Pool to scatter on; null = serial in the calling thread (still
  /// shard-at-a-time, so results are identical either way).
  ShardPool* pool = nullptr;
  /// TEST HOOK: when non-null (and pool is null), shards are evaluated in
  /// exactly this order — the injectable scheduler the merge property
  /// tests use to simulate nondeterministic shard completion. Must be a
  /// permutation of [0, plan.num_shards()).
  const std::vector<std::size_t>* completion_order = nullptr;
  /// When non-null, the per-shard evaluators' work tallies are summed into
  /// it (after the gather) — how the engine folds sharded work into
  /// telemetry exactly as it does for its own serial evaluator.
  EvalCounters* counters = nullptr;
};

/// Scatter/gather inc_L(p): evaluates every shard of `plan` (over the
/// shared read-only index) and merges. `plan` must partition index.wids():
/// shards address instances by their position in that list. Byte-identical to
/// Evaluator(index, options.eval).evaluate(p) for every shard count.
IncidentSet evaluate_sharded(const Pattern& p, const LogIndex& index,
                             const ShardPlan& plan,
                             const ShardEvalOptions& options = {});

/// Scatter/gather |inc_L(p)| (per-shard linear fast path when legal).
std::size_t count_sharded(const Pattern& p, const LogIndex& index,
                          const ShardPlan& plan,
                          const ShardEvalOptions& options = {});

/// Scatter/gather existence: stops scanning once any shard finds a match
/// (siblings exit at their next instance boundary).
bool exists_sharded(const Pattern& p, const LogIndex& index,
                    const ShardPlan& plan,
                    const ShardEvalOptions& options = {});

}  // namespace wflog
