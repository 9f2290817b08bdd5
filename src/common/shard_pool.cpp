#include "common/shard_pool.h"

#include <algorithm>

namespace wflog {

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

}  // namespace wflog
