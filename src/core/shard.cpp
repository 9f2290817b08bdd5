#include "core/shard.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "core/linear.h"
#include "obs/telemetry.h"

namespace wflog {

std::size_t resolve_shard_count(std::size_t requested,
                                std::size_t instances) noexcept {
  std::size_t n = requested != 0
                      ? requested
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
  return std::min(n, std::max<std::size_t>(1, instances));
}

ShardPlan::ShardPlan(const std::vector<Wid>& wids, std::size_t num_shards) {
  shards_.resize(resolve_shard_count(num_shards, wids.size()));
  num_instances_ = wids.size();
  for (std::size_t i = 0; i < wids.size(); ++i) {
    Shard& s = shards_[shard_of_wid(wids[i], shards_.size())];
    s.wids.push_back(wids[i]);
    s.global.push_back(i);
  }
}

// ----- gather --------------------------------------------------------------

IncidentSet merge_shards(std::vector<ShardResult> results) {
  // Positions are wid-disjoint across shards and ascend within each, so
  // always taking the smallest head position emits the groups in the log's
  // first-appearance order — the group order of an unsharded evaluation —
  // whatever order `results` arrives in.
  std::erase_if(results,
                [](const ShardResult& r) { return r.positions.empty(); });
  if (results.size() == 1) return std::move(results[0].groups);
  std::size_t groups = 0, incidents = 0;
  for (const ShardResult& r : results) {
    groups += r.groups.num_groups();
    incidents += r.groups.total();
  }
  IncidentSet merged;
  merged.reserve(groups, incidents);
  std::vector<std::size_t> next(results.size(), 0);
  for (std::size_t emitted = 0; emitted < groups; ++emitted) {
    std::size_t best = results.size();
    for (std::size_t s = 0; s < results.size(); ++s) {
      if (next[s] == results[s].positions.size()) continue;
      if (best == results.size() || results[s].positions[next[s]] <
                                        results[best].positions[next[best]]) {
        best = s;
      }
    }
    const IncidentSet::Group g = results[best].groups[next[best]++];
    merged.add_group(g.wid, g.incidents);
  }
  return merged;
}

void count_shard_cancelled(std::size_t num_shards) {
  if (num_shards > 1) {
    WFLOG_TELEMETRY(t) { t->shard_cancelled_total->inc(); }
  }
}

void scatter_shards(std::size_t num_shards, ShardPool* pool,
                    const std::vector<std::size_t>* completion_order,
                    const std::function<void(std::size_t)>& task) {
  if (num_shards > 1) {
    WFLOG_TELEMETRY(t) {
      t->shard_evals_total->inc();
      t->shard_tasks_total->add(num_shards);
    }
  }
  if (pool != nullptr) {
    pool->run(num_shards, task);
  } else if (completion_order != nullptr) {
    for (const std::size_t s : *completion_order) task(s);
  } else {
    for (std::size_t s = 0; s < num_shards; ++s) task(s);
  }
}

IncidentSet evaluate_sharded(const Pattern& p, const LogIndex& index,
                             const ShardPlan& plan,
                             const ShardEvalOptions& options) {
  std::vector<ShardResult> results(plan.num_shards());
  std::vector<EvalCounters> counters(plan.num_shards());
  const EvalPlan eval_plan(p, index.log());
  const auto shard_task = [&](std::size_t s) {
    WFLOG_SPAN(span, "shard.task");
    const ShardPlan::Shard& shard = plan.shard(s);
    const Evaluator ev(index, options.eval);
    ShardResult& out = results[s];
    for (std::size_t j = 0; j < shard.wids.size(); ++j) {
      if (options.guard != nullptr && options.guard->stopped()) {
        // A sibling (or this shard's own budget) tripped the shared
        // guard: early-cancel, like Evaluator::evaluate's instance loop.
        count_shard_cancelled(plan.num_shards());
        break;
      }
      const std::span<const Incident> list = ev.evaluate_instance(
          eval_plan, shard.global[j], nullptr, nullptr, options.guard);
      if (!list.empty()) out.add(shard.global[j], shard.wids[j], list);
    }
    counters[s] = ev.counters();
    if (span.active()) {
      span.arg("shard", static_cast<std::uint64_t>(s));
      span.arg("instances", static_cast<std::uint64_t>(shard.wids.size()));
      span.arg("groups", static_cast<std::uint64_t>(out.positions.size()));
    }
  };
  scatter_shards(plan.num_shards(), options.pool, options.completion_order,
                 shard_task);
  if (options.counters != nullptr) {
    for (const EvalCounters& c : counters) *options.counters += c;
  }
  return merge_shards(std::move(results));
}

std::size_t count_sharded(const Pattern& p, const LogIndex& index,
                          const ShardPlan& plan,
                          const ShardEvalOptions& options) {
  const auto chain =
      options.eval.max_span == 0 ? as_linear_chain(p) : std::nullopt;
  std::vector<std::size_t> per_shard(plan.num_shards(), 0);
  const EvalPlan eval_plan(p, index.log());
  const auto shard_task = [&](std::size_t s) {
    WFLOG_SPAN(span, "shard.task");
    const ShardPlan::Shard& shard = plan.shard(s);
    std::size_t n = 0;
    if (chain.has_value()) {
      for (const Wid wid : shard.wids) n += count_linear(*chain, index, wid);
    } else {
      const Evaluator ev(index, options.eval);
      for (const std::size_t i : shard.global) {
        n += ev.evaluate_instance(eval_plan, i).size();
      }
    }
    per_shard[s] = n;
    if (span.active()) {
      span.arg("shard", static_cast<std::uint64_t>(s));
      span.arg("count", static_cast<std::uint64_t>(n));
    }
  };
  scatter_shards(plan.num_shards(), options.pool, options.completion_order,
                 shard_task);
  std::size_t total = 0;
  for (const std::size_t n : per_shard) total += n;
  return total;
}

bool exists_sharded(const Pattern& p, const LogIndex& index,
                    const ShardPlan& plan,
                    const ShardEvalOptions& options) {
  const auto chain =
      options.eval.max_span == 0 ? as_linear_chain(p) : std::nullopt;
  std::atomic<bool> found{false};
  const EvalPlan eval_plan(p, index.log());
  const auto shard_task = [&](std::size_t s) {
    WFLOG_SPAN(span, "shard.task");
    const ShardPlan::Shard& shard = plan.shard(s);
    const Evaluator ev(index, options.eval);
    for (std::size_t j = 0; j < shard.wids.size(); ++j) {
      if (found.load(std::memory_order_relaxed)) break;
      const bool hit =
          chain.has_value()
              ? exists_linear(*chain, index, shard.wids[j])
              : !ev.evaluate_instance(eval_plan, shard.global[j]).empty();
      if (hit) {
        found.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (span.active()) span.arg("shard", static_cast<std::uint64_t>(s));
  };
  scatter_shards(plan.num_shards(), options.pool, options.completion_order,
                 shard_task);
  return found.load(std::memory_order_relaxed);
}

}  // namespace wflog
