#include "core/parallel_eval.h"

#include <atomic>
#include <thread>

#include "core/linear.h"
#include "obs/telemetry.h"

namespace wflog {

std::size_t resolve_worker_count(std::size_t requested,
                                 std::size_t instances) {
  std::size_t n = requested != 0
                      ? requested
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
  return std::min(n, std::max<std::size_t>(1, instances));
}

void parallel_for_instances(std::size_t count, std::size_t threads,
                            const std::function<void(std::size_t)>& work) {
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) work(i);
    return;
  }
  WFLOG_TELEMETRY(t) { t->parallel_workers_total->add(threads); }
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&cursor, count, &work, t] {
      // One span per worker: its lane in the trace shows the stealing
      // cursor's actual load balance.
      WFLOG_SPAN(span, "parallel.worker");
      std::uint64_t items = 0;
      while (true) {
        const std::size_t i =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        work(i);
        ++items;
      }
      if (span.active()) {
        span.arg("worker", static_cast<std::uint64_t>(t));
        span.arg("items", items);
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

IncidentSet evaluate_parallel(const Pattern& p, const LogIndex& index,
                              const ParallelOptions& options) {
  const std::vector<Wid>& wids = index.wids();
  const std::size_t threads =
      resolve_worker_count(options.threads, wids.size());

  std::vector<IncidentList> per_wid(wids.size());
  const EvalPlan plan(p, index.log());
  parallel_for_instances(
      wids.size(), threads,
      [&per_wid, &index, &options, &plan](std::size_t i) {
        // One evaluator per task: counters stay race-free.
        const Evaluator ev(index, options.eval);
        per_wid[i] = ev.evaluate_instance(plan, i);
      });

  IncidentSet result;
  for (std::size_t i = 0; i < wids.size(); ++i) {
    if (!per_wid[i].empty()) {
      result.add_group(wids[i], std::move(per_wid[i]));
    }
  }
  return result;
}

std::size_t count_parallel(const Pattern& p, const LogIndex& index,
                           const ParallelOptions& options) {
  const std::vector<Wid>& wids = index.wids();
  const std::size_t threads =
      resolve_worker_count(options.threads, wids.size());

  const auto chain = options.eval.use_linear_fast_path &&
                             options.eval.max_span == 0
                         ? as_linear_chain(p)
                         : std::nullopt;

  std::vector<std::size_t> per_wid(wids.size(), 0);
  const EvalPlan plan(p, index.log());
  parallel_for_instances(
      wids.size(), threads,
      [&per_wid, &wids, &index, &options, &plan, &chain](std::size_t i) {
        if (chain.has_value()) {
          per_wid[i] = count_linear(*chain, index, wids[i]);
        } else {
          const Evaluator ev(index, options.eval);
          per_wid[i] = ev.evaluate_instance(plan, i).size();
        }
      });

  std::size_t total = 0;
  for (std::size_t n : per_wid) total += n;
  return total;
}

}  // namespace wflog
