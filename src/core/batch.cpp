#include "core/batch.h"

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/shard.h"
#include "obs/telemetry.h"

namespace wflog {

BatchPlan::BatchPlan(std::span<const PatternPtr> patterns)
    : patterns_(patterns.begin(), patterns.end()) {
  stats_.num_queries = patterns_.size();

  // Post-order over every query tree. Shared_ptr sharing means a node can
  // appear in several trees (or twice in one); visit each address once.
  std::unordered_map<std::string, std::uint32_t> slot_of_key;
  std::vector<const Pattern*> stack;
  for (const PatternPtr& root : patterns_) {
    if (root != nullptr) stack.push_back(root.get());
  }
  while (!stack.empty()) {
    const Pattern* node = stack.back();
    stack.pop_back();
    if (slots_.contains(node)) continue;
    ++stats_.total_nodes;
    const auto [it, inserted] = slot_of_key.try_emplace(
        canonical_key(*node),
        static_cast<std::uint32_t>(slot_of_key.size()));
    slots_.emplace(node, it->second);
    if (!node->is_atom()) {
      stack.push_back(node->left().get());
      stack.push_back(node->right().get());
    }
  }
  stats_.distinct_slots = slot_of_key.size();
}

std::vector<IncidentSet> evaluate_batch(std::span<const PatternPtr> patterns,
                                        const LogIndex& index,
                                        const BatchOptions& options,
                                        BatchEvalStats* stats) {
  const std::size_t num_queries = patterns.size();
  // No plan given: the whole log is one shard, run inline.
  std::optional<ShardPlan> whole_log;
  const ShardPlan& splan = options.shard_plan != nullptr
                               ? *options.shard_plan
                               : whole_log.emplace(index.wids(), 1);

  const BatchPlan plan(patterns);
  // Each query's tree bound to the log once, shared by every shard.
  std::vector<std::optional<EvalPlan>> eval_plans(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    if (patterns[q] != nullptr) {
      eval_plans[q].emplace(*patterns[q], index.log(), &plan.slots());
    }
  }

  // per_shard[s][q] = query q's non-empty lists in shard s. Shards write
  // disjoint entries, so no synchronization is needed beyond the join.
  std::vector<std::vector<ShardResult>> per_shard(
      splan.num_shards(), std::vector<ShardResult>(num_queries));
  std::vector<EvalCounters> shard_counters(splan.num_shards());

  // Per-query failure isolation, shared across shards: once a query
  // throws anywhere, every shard skips it (its partial lists are
  // discarded at assembly); the first error message wins.
  std::vector<std::atomic<bool>> failed(num_queries);
  std::vector<std::string> errors(num_queries);
  std::mutex errors_mu;

  const auto shard_task = [&](std::size_t s) {
    WFLOG_SPAN(span, "shard.task");
    const ShardPlan::Shard& shard = splan.shard(s);
    std::vector<ShardResult>& out = per_shard[s];
    const Evaluator ev(index, options.eval);
    SubpatternMemo memo = plan.make_memo();
    SubpatternMemo* memo_ptr = options.use_cache ? &memo : nullptr;
    for (std::size_t j = 0; j < shard.wids.size(); ++j) {
      if (options.guard != nullptr && options.guard->stopped()) {
        count_shard_cancelled(splan.num_shards());
        break;
      }
      if (memo_ptr != nullptr) memo_ptr->reset();
      const std::size_t i = shard.global[j];
      for (std::size_t q = 0; q < num_queries; ++q) {
        if (patterns[q] == nullptr ||
            failed[q].load(std::memory_order_relaxed)) {
          continue;
        }
        try {
          IncidentList list = ev.evaluate_instance(
              *eval_plans[q], i, memo_ptr, nullptr, options.guard);
          if (!list.empty()) {
            out[q].positions.push_back(i);
            out[q].wids.push_back(shard.wids[j]);
            out[q].lists.push_back(std::move(list));
          }
        } catch (const std::exception& e) {
          if (!failed[q].exchange(true, std::memory_order_relaxed)) {
            const std::lock_guard<std::mutex> lock(errors_mu);
            errors[q] = e.what();
          }
        }
      }
    }
    shard_counters[s] = ev.counters();
    if (span.active()) {
      span.arg("shard", static_cast<std::uint64_t>(s));
      span.arg("instances", static_cast<std::uint64_t>(shard.wids.size()));
    }
  };
  scatter_shards(splan.num_shards(), options.shard_pool, nullptr,
                 shard_task);

  // Gather per query exactly as evaluate_sharded does. Failed queries
  // yield empty sets: a half-evaluated query would be misleading.
  std::vector<IncidentSet> results(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    if (failed[q].load(std::memory_order_relaxed)) continue;
    std::vector<ShardResult> parts(splan.num_shards());
    for (std::size_t s = 0; s < splan.num_shards(); ++s) {
      parts[s] = std::move(per_shard[s][q]);
    }
    results[q] = merge_shards(splan.num_instances(), std::move(parts));
  }

  if (stats != nullptr) {
    *stats = BatchEvalStats{};
    stats->plan = plan.stats();
    stats->threads_used = splan.num_shards();
    for (const EvalCounters& c : shard_counters) stats->counters += c;
    stats->query_errors = std::move(errors);
  }
  return results;
}

}  // namespace wflog
