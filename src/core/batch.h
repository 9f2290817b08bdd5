#pragma once

// Shared-scan batch evaluation — N queries, one pass over the log.
//
// The paper's framework (Figure 2) has many analysts querying one log
// concurrently, and overlapping compliance dashboards re-ask near-identical
// patterns. Evaluating each query independently repeats the per-instance
// work of every shared subpattern; the algebraic laws (Theorems 2-4) make
// that sharing detectable even across syntactically different trees.
//
// Pipeline:
//   1. BatchPlan walks every query tree and assigns each node a SLOT: the
//      index of its canonical key (core/pattern.h). Nodes with equal keys
//      — within one query or across queries — share a slot.
//   2. evaluate_batch iterates workflow instances (the outer loop of
//      Algorithm 2); per instance, one SubpatternMemo (core/evaluator.h)
//      is threaded through the evaluation of every query, so each slot is
//      computed at most once per instance. The memo resets between
//      instances.
//   3. Parallelism = the engine's shard count: the instance loop runs per
//      wid-shard of a ShardPlan (core/shard.h), each shard evaluating the
//      WHOLE batch over its instances with its own evaluator and memo,
//      scattered through scatter_shards — the same loop the single-query
//      drivers use. No plan = the whole log as one shard, run inline.
//      QueryEngine::run_batch's `threads` argument is ignored.
//
// Results are gathered per query with merge_shards, in ascending wid
// order, making the output bit-identical to N independent
// Evaluator::evaluate calls (property-tested in tests/batch_test.cpp for
// several shard counts on a worker pool, with and without the cache).

#include <span>

#include "core/evaluator.h"

namespace wflog {

class ShardPlan;
class ShardPool;

struct BatchOptions {
  /// Share subpattern results through the canonical-key memo. Off, the
  /// batch still runs in one pass but every query recomputes its tree.
  bool use_cache = true;
  EvalOptions eval;
  /// Optional resource guard (core/guard.h) shared by the whole pass: a
  /// trip stops every query, each returning its partial set. Borrowed.
  const EvalGuard* guard = nullptr;
  /// The wid partition to scatter over (core/shard.h): the outer work
  /// unit is a whole shard — one evaluator + one memo per shard. Null =
  /// the whole log as one shard. It must partition index.wids(). Results
  /// are bit-identical for every plan. Borrowed.
  const ShardPlan* shard_plan = nullptr;
  /// Pool the shards scatter on; null = serial on the caller's thread.
  /// Borrowed.
  ShardPool* shard_pool = nullptr;
};

/// What the planner found to share.
struct BatchPlanStats {
  std::size_t num_queries = 0;
  std::size_t total_nodes = 0;     // pattern nodes across all query trees
  std::size_t distinct_slots = 0;  // distinct canonical keys among them

  /// Nodes whose evaluation a perfect cache skips (once warm, per
  /// instance): total_nodes - distinct_slots.
  std::size_t shared_nodes() const { return total_nodes - distinct_slots; }
};

/// Slot assignment for one batch: pattern node -> canonical-key slot.
/// Keeps the query trees alive (the SlotMap is keyed by node address).
class BatchPlan {
 public:
  explicit BatchPlan(std::span<const PatternPtr> patterns);

  const SlotMap& slots() const noexcept { return slots_; }
  std::size_t num_slots() const noexcept { return stats_.distinct_slots; }
  const BatchPlanStats& stats() const noexcept { return stats_; }
  const std::vector<PatternPtr>& patterns() const noexcept {
    return patterns_;
  }

  /// A memo sized for this plan, ready for one worker's instance loop.
  SubpatternMemo make_memo() const {
    return SubpatternMemo(&slots_, num_slots());
  }

 private:
  std::vector<PatternPtr> patterns_;
  SlotMap slots_;
  BatchPlanStats stats_;
};

/// Work/traffic tallies of one evaluate_batch call.
struct BatchEvalStats {
  EvalCounters counters;  // summed across queries, instances, shards
  BatchPlanStats plan;
  /// Shards the pass scattered over (named for the /batch JSON key
  /// `stats.threads_used`, which reports it).
  std::size_t threads_used = 1;
  /// Per-query failure isolation: query_errors[q] is empty when query q
  /// evaluated cleanly, else the error that stopped it. A failed query
  /// returns an empty set; the others are unaffected.
  std::vector<std::string> query_errors;
};

/// Evaluates every pattern over the log in one shared pass. Element q of
/// the result is bit-identical to Evaluator(index, options.eval)
/// .evaluate(*patterns[q]). `stats`, when given, receives the cache and
/// plan tallies.
///
/// Failure isolation: a null patterns[q] or a query whose evaluation
/// throws yields an empty result set (and an entry in
/// BatchEvalStats::query_errors) without disturbing the other queries —
/// one bad query cannot take down the batch.
std::vector<IncidentSet> evaluate_batch(std::span<const PatternPtr> patterns,
                                        const LogIndex& index,
                                        const BatchOptions& options = {},
                                        BatchEvalStats* stats = nullptr);

}  // namespace wflog
