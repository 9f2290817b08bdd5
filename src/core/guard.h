#pragma once

// Cooperative resource guards for query evaluation.
//
// Theorem 1 makes the engine's worst case explicit: a k-activity pattern
// over an m-record instance can emit O(m^k) incidents, so one adversarial
// query can monopolize the process. EvalGuard bounds a run three ways — a
// wall-clock deadline, an emitted-incident budget (the memory proxy), and
// a caller-held cancellation token — all checked cooperatively inside the
// operator loops and the tree evaluator. A tripped guard never throws:
// evaluation unwinds cleanly and the caller gets whatever was computed so
// far, a PARTIAL result flagged with the StopReason.
//
// One guard serves one query (or one whole batch, where a trip stops every
// query); it is safe to share across the parallel scheduler's workers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace wflog {

/// Shared flag a caller sets (from any thread) to stop a running query:
///   CancelToken token = make_cancel_token();
///   ... hand token to QueryOptions, evaluate on another thread ...
///   token->store(true);   // the query returns a kCancelled partial result
using CancelToken = std::shared_ptr<std::atomic<bool>>;

inline CancelToken make_cancel_token() {
  return std::make_shared<std::atomic<bool>>(false);
}

/// Why an evaluation stopped early (kNone = it ran to completion).
enum class StopReason : std::uint8_t {
  kNone = 0,
  kDeadline,        // the wall-clock deadline elapsed
  kCancelled,       // the CancelToken was set
  kIncidentBudget,  // emitted incidents exceeded the budget
};

const char* stop_reason_name(StopReason r) noexcept;

class EvalGuard {
 public:
  /// deadline <= 0 disables the clock (and so does one too far out for
  /// steady_clock to represent); max_incidents == 0 disables the budget; a
  /// null token disables cancellation.
  EvalGuard(std::chrono::milliseconds deadline, std::size_t max_incidents,
            CancelToken cancel);

  /// True when evaluation should stop. Cheap enough for inner loops: the
  /// tripped state and the cancel flag cost one relaxed load each; the
  /// clock is only read every kTicksPerClockCheck calls.
  bool check() const noexcept;

  /// Charges `n` emitted incidents against the budget; trips the guard
  /// once the total exceeds it.
  void add_incidents(std::size_t n) const noexcept;

  StopReason reason() const noexcept {
    return static_cast<StopReason>(
        reason_.load(std::memory_order_relaxed));
  }
  bool stopped() const noexcept { return reason() != StopReason::kNone; }
  std::uint64_t incidents_charged() const noexcept {
    return incidents_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t kTicksPerClockCheck = 64;

  /// First trip wins; later causes are ignored.
  void trip(StopReason r) const noexcept {
    std::uint8_t expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<std::uint8_t>(r),
                                    std::memory_order_relaxed);
  }

  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::uint64_t max_incidents_ = 0;
  CancelToken cancel_;
  mutable std::atomic<std::uint32_t> ticks_{0};
  mutable std::atomic<std::uint64_t> incidents_{0};
  mutable std::atomic<std::uint8_t> reason_{0};
};

/// Amortizes EvalGuard::check() over a tight loop: one check every
/// kStride iterations, zero cost (one null test, one decrement) otherwise.
///
///   GuardPoll poll{guard};
///   for (...) { if (poll.should_stop()) break; ... }
struct GuardPoll {
  static constexpr std::uint32_t kStride = 256;

  const EvalGuard* guard;
  std::uint32_t countdown = kStride;

  bool should_stop() {
    if (guard == nullptr) return false;
    if (--countdown != 0) return false;
    countdown = kStride;
    return guard->check();
  }
};

}  // namespace wflog
