#pragma once

// ShardPool: the project's one parallel executor. Query evaluation
// scatters wid shards on it (core/shard.h); the store load decodes sealed
// v2 blocks on it (log/store.h). It lives in common/ so both layers share
// it without the log layer depending on the query engine.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wflog {

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

}  // namespace wflog
