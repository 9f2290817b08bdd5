#include "core/shard.h"

#include <algorithm>
#include <atomic>
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

// ----- ShardPool -----------------------------------------------------------

ShardPool::ShardPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ShardPool::~ShardPool() { shutdown(); }

void ShardPool::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void ShardPool::drain_job(Job& job, std::unique_lock<std::mutex>& lock) {
  while (job.next < job.count) {
    const std::size_t i = job.next++;
    if (job.next == job.count) {
      // Exhausted: stop routing new claimants here, wherever the job sits
      // in the queue — a job left behind would later reach the head with
      // nothing to claim, and a worker would spin on it holding mu_. (The
      // job outlives this — its owner waits for `done` to catch up.)
      if (const auto it = std::find(jobs_.begin(), jobs_.end(), &job);
          it != jobs_.end()) {
        jobs_.erase(it);
      }
    }
    lock.unlock();
    std::exception_ptr error;
    try {
      (*job.work)(i);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error != nullptr && job.error == nullptr) job.error = error;
    if (++job.done == job.count) job.finished.notify_all();
  }
}

void ShardPool::worker_loop() {
  std::unique_lock lock(mu_);
  while (true) {
    work_ready_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
    if (stop_) return;  // callers finish their own jobs inline
    drain_job(*jobs_.front(), lock);
  }
}

void ShardPool::run(std::size_t count,
                    const std::function<void(std::size_t)>& work) {
  if (count == 0) return;
  Job job;
  job.count = count;
  job.work = &work;
  std::unique_lock lock(mu_);
  if (!stop_ && !workers_.empty()) {
    jobs_.push_back(&job);
    work_ready_.notify_all();
  }
  // The caller always participates: with no workers (or a shut-down pool)
  // this IS the serial loop, and with busy workers it guarantees progress.
  drain_job(job, lock);
  job.finished.wait(lock, [&job] { return job.done == job.count; });
  if (job.error != nullptr) std::rethrow_exception(job.error);
}

// ----- gather --------------------------------------------------------------

IncidentSet merge_shards(std::size_t num_instances,
                         std::vector<ShardResult> results) {
  // Scatter every shard's groups into one global-position-indexed table,
  // then emit in ascending position — the log's first-appearance order,
  // i.e. exactly the group order of an unsharded evaluation. Positions are
  // wid-disjoint across shards, so the scatter never collides and the
  // output is independent of the order `results` arrives in.
  std::vector<std::pair<Wid, IncidentList>> by_pos(num_instances);
  for (ShardResult& r : results) {
    for (std::size_t j = 0; j < r.positions.size(); ++j) {
      by_pos[r.positions[j]] = {r.wids[j], std::move(r.lists[j])};
    }
  }
  IncidentSet merged;
  for (auto& [wid, list] : by_pos) {
    if (!list.empty()) merged.add_group(wid, std::move(list));
  }
  return merged;
}

namespace {

/// Scatters `task(shard)` per the options: pool, injected serial order
/// (the test scheduler hook), or plain serial.
void scatter(const ShardPlan& plan, const ShardEvalOptions& options,
             const std::function<void(std::size_t)>& task) {
  const std::size_t n = plan.num_shards();
  if (options.pool != nullptr) {
    options.pool->run(n, task);
    return;
  }
  if (options.completion_order != nullptr) {
    for (const std::size_t s : *options.completion_order) task(s);
    return;
  }
  for (std::size_t s = 0; s < n; ++s) task(s);
}

void count_shard_telemetry(const ShardPlan& plan) {
  WFLOG_TELEMETRY(t) {
    t->shard_evals_total->inc();
    t->shard_tasks_total->add(plan.num_shards());
  }
}

}  // namespace

IncidentSet evaluate_sharded(const Pattern& p, const LogIndex& index,
                             const ShardPlan& plan,
                             const ShardEvalOptions& options) {
  count_shard_telemetry(plan);
  std::vector<ShardResult> results(plan.num_shards());
  std::vector<EvalCounters> counters(plan.num_shards());
  const EvalPlan eval_plan(p, index.log());
  scatter(plan, options, [&](std::size_t s) {
    WFLOG_SPAN(span, "shard.task");
    const ShardPlan::Shard& shard = plan.shard(s);
    const Evaluator ev(index, options.eval);
    ShardResult& out = results[s];
    for (std::size_t j = 0; j < shard.wids.size(); ++j) {
      if (options.guard != nullptr && options.guard->stopped()) {
        // A sibling (or this shard's own budget) tripped the shared
        // guard: early-cancel, exactly like the unsharded instance loop.
        WFLOG_TELEMETRY(t) { t->shard_cancelled_total->inc(); }
        break;
      }
      IncidentList list = ev.evaluate_instance(
          eval_plan, shard.global[j], nullptr, nullptr, options.guard);
      if (!list.empty()) {
        out.positions.push_back(shard.global[j]);
        out.wids.push_back(shard.wids[j]);
        out.lists.push_back(std::move(list));
      }
    }
    counters[s] = ev.counters();
    if (span.active()) {
      span.arg("shard", static_cast<std::uint64_t>(s));
      span.arg("instances", static_cast<std::uint64_t>(shard.wids.size()));
      span.arg("groups", static_cast<std::uint64_t>(out.lists.size()));
    }
  });
  if (options.counters != nullptr) {
    for (const EvalCounters& c : counters) *options.counters += c;
  }
  return merge_shards(plan.num_instances(), std::move(results));
}

std::size_t count_sharded(const Pattern& p, const LogIndex& index,
                          const ShardPlan& plan,
                          const ShardEvalOptions& options) {
  count_shard_telemetry(plan);
  const auto chain = options.eval.use_linear_fast_path &&
                             options.eval.max_span == 0
                         ? as_linear_chain(p)
                         : std::nullopt;
  std::vector<std::size_t> per_shard(plan.num_shards(), 0);
  const EvalPlan eval_plan(p, index.log());
  scatter(plan, options, [&](std::size_t s) {
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
  });
  std::size_t total = 0;
  for (const std::size_t n : per_shard) total += n;
  return total;
}

bool exists_sharded(const Pattern& p, const LogIndex& index,
                    const ShardPlan& plan,
                    const ShardEvalOptions& options) {
  count_shard_telemetry(plan);
  const auto chain = options.eval.use_linear_fast_path &&
                             options.eval.max_span == 0
                         ? as_linear_chain(p)
                         : std::nullopt;
  std::atomic<bool> found{false};
  const EvalPlan eval_plan(p, index.log());
  scatter(plan, options, [&](std::size_t s) {
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
  });
  return found.load(std::memory_order_relaxed);
}

}  // namespace wflog
