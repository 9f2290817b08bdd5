#include "core/guard.h"

namespace wflog {

const char* stop_reason_name(StopReason r) noexcept {
  switch (r) {
    case StopReason::kNone:
      return "none";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kIncidentBudget:
      return "incident-budget";
  }
  return "unknown";
}

EvalGuard::EvalGuard(std::chrono::milliseconds deadline,
                     std::size_t max_incidents, CancelToken cancel)
    : max_incidents_(max_incidents), cancel_(std::move(cancel)) {
  if (deadline.count() > 0) {
    using std::chrono::steady_clock;
    const steady_clock::time_point now = steady_clock::now();
    // A deadline past the end of the clock's range never expires, and
    // adding it to `now` would overflow the time_point.
    if (deadline < std::chrono::duration_cast<std::chrono::milliseconds>(
                       steady_clock::time_point::max() - now)) {
      deadline_ = now + deadline;
      has_deadline_ = true;
    }
  }
}

bool EvalGuard::check() const noexcept {
  if (reason_.load(std::memory_order_relaxed) != 0) return true;
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    trip(StopReason::kCancelled);
    return true;
  }
  if (has_deadline_) {
    const std::uint32_t tick =
        ticks_.fetch_add(1, std::memory_order_relaxed);
    if (tick % kTicksPerClockCheck == 0 &&
        std::chrono::steady_clock::now() >= deadline_) {
      trip(StopReason::kDeadline);
      return true;
    }
  }
  return false;
}

void EvalGuard::add_incidents(std::size_t n) const noexcept {
  if (max_incidents_ == 0) return;
  const std::uint64_t total =
      incidents_.fetch_add(n, std::memory_order_relaxed) + n;
  if (total > max_incidents_) trip(StopReason::kIncidentBudget);
}

}  // namespace wflog
