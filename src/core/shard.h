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
//                      the serial loop). Defined in common/shard_pool.h,
//                      where the store load uses it too.
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
#include <functional>
#include <span>
#include <vector>

#include "common/shard_pool.h"
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

/// One shard's raw gather output: the non-empty incident lists of its
/// instances, appended into one flat IncidentSet, each group tagged with
/// its instance's global position. Public so the merge can be
/// property-tested under adversarial completion orders.
struct ShardResult {
  std::vector<std::size_t> positions;  // ascending, one per group
  IncidentSet groups;                  // parallel to positions, non-empty

  /// Appends the instance at global `position`, copying its incidents
  /// out of the evaluator's scratch. Positions must ascend.
  void add(std::size_t position, Wid wid,
           std::span<const Incident> incidents) {
    positions.push_back(position);
    groups.add_group(wid, incidents);
  }
};

/// Deterministic gather: a k-way merge of per-shard outputs by global
/// position into one flat IncidentSet, whose groups appear in ascending
/// position order — exactly the shape Evaluator::evaluate produces,
/// independent of the order the shards finished in (or are listed in).
IncidentSet merge_shards(std::vector<ShardResult> results);

/// The one scatter loop of the tree: runs task(s) for every shard s in
/// [0, num_shards) on `pool` when set, else serially on the calling thread
/// — in `completion_order` when set (the test scheduler hook: a
/// permutation of [0, num_shards)), else in shard order. The drivers below
/// and the batch engine (core/batch.h) all scatter through it; a scatter
/// over more than one shard is counted in telemetry.
void scatter_shards(std::size_t num_shards, ShardPool* pool,
                    const std::vector<std::size_t>* completion_order,
                    const std::function<void(std::size_t)>& task);

/// Counts one shard task early-cancelled by its guard — in telemetry only
/// for a scatter over more than one shard, like scatter_shards.
void count_shard_cancelled(std::size_t num_shards);

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
  /// it (after the gather) — how the engine folds a run's work into
  /// telemetry.
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
