#include "core/batch.h"

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/parallel_eval.h"
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
  const std::vector<Wid>& wids = index.wids();
  const std::size_t threads =
      resolve_worker_count(options.threads, wids.size());
  const ShardPlan* splan =
      options.shard_plan != nullptr && options.shard_plan->num_shards() > 1
          ? options.shard_plan
          : nullptr;

  const BatchPlan plan(patterns);
  // Each query's tree bound to the log once, shared by every worker.
  std::vector<std::optional<EvalPlan>> eval_plans(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    if (patterns[q] != nullptr) {
      eval_plans[q].emplace(*patterns[q], index.log(), &plan.slots());
    }
  }

  // per_wid[i][q] = incidents of query q in instance wids[i]. Workers
  // write disjoint i's, so no synchronization is needed beyond the join.
  std::vector<std::vector<IncidentList>> per_wid(wids.size());
  // One slot per outer work unit (shard or instance).
  std::vector<EvalCounters> unit_counters(
      splan != nullptr ? splan->num_shards() : wids.size());

  // Per-query failure isolation, shared across workers: once a query
  // throws anywhere, every worker skips it (its partial lists are
  // discarded at assembly); the first error message wins.
  std::vector<std::atomic<bool>> failed(num_queries);
  std::vector<std::string> errors(num_queries);
  std::mutex errors_mu;

  // The whole batch for ONE instance, with whatever evaluator/memo the
  // outer scheduler hands in. Identical between the instance-unit and
  // shard-unit paths, so results cannot depend on the scheduler.
  const auto eval_instance = [&](const Evaluator& ev, SubpatternMemo* memo,
                                 std::size_t i) {
    std::vector<IncidentList>& lists = per_wid[i];
    lists.resize(num_queries);
    for (std::size_t q = 0; q < num_queries; ++q) {
      if (patterns[q] == nullptr ||
          failed[q].load(std::memory_order_relaxed)) {
        continue;
      }
      try {
        lists[q] = ev.evaluate_instance(*eval_plans[q], i, memo, nullptr,
                                        options.guard);
      } catch (const std::exception& e) {
        if (!failed[q].exchange(true, std::memory_order_relaxed)) {
          const std::lock_guard<std::mutex> lock(errors_mu);
          errors[q] = e.what();
        }
        lists[q].clear();
      }
    }
  };

  if (splan != nullptr) {
    WFLOG_TELEMETRY(t) {
      t->shard_evals_total->inc();
      t->shard_tasks_total->add(splan->num_shards());
    }
    const auto shard_task = [&](std::size_t s) {
      WFLOG_SPAN(span, "shard.task");
      const ShardPlan::Shard& shard = splan->shard(s);
      const Evaluator ev(index, options.eval);
      SubpatternMemo memo = plan.make_memo();
      SubpatternMemo* memo_ptr = options.use_cache ? &memo : nullptr;
      for (std::size_t j = 0; j < shard.wids.size(); ++j) {
        if (options.guard != nullptr && options.guard->stopped()) {
          WFLOG_TELEMETRY(t) { t->shard_cancelled_total->inc(); }
          break;
        }
        if (memo_ptr != nullptr) memo_ptr->reset();
        eval_instance(ev, memo_ptr, shard.global[j]);
      }
      unit_counters[s] = ev.counters();
      if (span.active()) {
        span.arg("shard", static_cast<std::uint64_t>(s));
        span.arg("instances", static_cast<std::uint64_t>(shard.wids.size()));
      }
    };
    if (options.shard_pool != nullptr) {
      options.shard_pool->run(splan->num_shards(), shard_task);
    } else {
      for (std::size_t s = 0; s < splan->num_shards(); ++s) shard_task(s);
    }
  } else {
    parallel_for_instances(wids.size(), threads, [&](std::size_t i) {
      if (options.guard != nullptr && options.guard->stopped()) return;
      const Evaluator ev(index, options.eval);
      SubpatternMemo memo = plan.make_memo();
      eval_instance(ev, options.use_cache ? &memo : nullptr, i);
      unit_counters[i] = ev.counters();
    });
  }

  // Assemble per query in ascending wid order — the exact shape
  // Evaluator::evaluate produces (empty groups dropped). Failed queries
  // yield empty sets: a half-evaluated query would be misleading.
  std::vector<IncidentSet> results(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    if (failed[q].load(std::memory_order_relaxed)) continue;
    for (std::size_t i = 0; i < wids.size(); ++i) {
      if (!per_wid[i][q].empty()) {
        results[q].add_group(wids[i], std::move(per_wid[i][q]));
      }
    }
  }

  if (stats != nullptr) {
    *stats = BatchEvalStats{};
    stats->plan = plan.stats();
    stats->threads_used = splan != nullptr ? splan->num_shards() : threads;
    for (const EvalCounters& c : unit_counters) stats->counters += c;
    stats->query_errors = std::move(errors);
  }
  return results;
}

}  // namespace wflog
