#include "server/subscribe.h"

#include <algorithm>
#include <chrono>

#include "obs/telemetry.h"

namespace wflog::server {
namespace {

using Clock = std::chrono::steady_clock;

/// Wait slice between interruption checks: a draining server ends every
/// consumer within one slice, well inside the drain grace period.
constexpr auto kWaitSlice = std::chrono::milliseconds(250);

void publish_active_gauge(std::size_t active) {
  WFLOG_TELEMETRY(t) {
    t->metrics
        .gauge("wflog_server_subscriptions_active",
               "Standing-query subscriptions currently registered")
        ->set(static_cast<double>(active));
  }
}

}  // namespace

SubscriptionRegistry::SubscriptionRegistry(SubscribeOptions options)
    : options_(options) {
  options_.max_subscriptions =
      std::max<std::size_t>(1, options_.max_subscriptions);
  options_.pending_cap = std::max<std::size_t>(1, options_.pending_cap);
}

std::shared_ptr<Subscription> SubscriptionRegistry::create(
    std::string query_text, Query parsed, std::string cache_key_base,
    std::uint64_t fed_raw, std::vector<std::string> initial_events) {
  std::lock_guard lock(mu_);
  if (subs_.size() >= options_.max_subscriptions) return nullptr;
  auto sub = std::make_shared<Subscription>();
  sub->id = "sub-" + std::to_string(next_id_++);
  sub->query_text = std::move(query_text);
  sub->parsed = std::move(parsed);
  sub->cache_key_base = std::move(cache_key_base);
  sub->fed_raw = fed_raw;
  for (std::string& json : initial_events) {
    sub->pending.push_back(SubEvent{sub->next_seq++, std::move(json)});
  }
  subs_.emplace(sub->id, sub);
  ++created_total_;
  publish_active_gauge(subs_.size());
  cv_.notify_all();
  return sub;
}

std::shared_ptr<Subscription> SubscriptionRegistry::find(
    const std::string& id) const {
  std::lock_guard lock(mu_);
  const auto it = subs_.find(id);
  return it == subs_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Subscription>> SubscriptionRegistry::live()
    const {
  std::lock_guard lock(mu_);
  std::vector<std::shared_ptr<Subscription>> out;
  out.reserve(subs_.size());
  for (const auto& [id, sub] : subs_) out.push_back(sub);
  return out;
}

bool SubscriptionRegistry::enqueue(Subscription& sub,
                                   std::vector<std::string> events,
                                   std::uint64_t raw) {
  bool overflow = false;
  {
    std::lock_guard lock(mu_);
    sub.fed_raw += raw;
    for (std::string& json : events) {
      if (sub.pending.size() >= options_.pending_cap) {
        // Slow-consumer policy: the consumer never acknowledged and the
        // retained backlog hit the cap — drop the whole subscription
        // (visibly, with a terminal reason) rather than grow unboundedly
        // or silently skip events (which would break exactly-once).
        sub.closed = true;
        sub.close_reason = "overflow";
        subs_.erase(sub.id);
        ++overflow_dropped_;
        overflow = true;
        break;
      }
      sub.pending.push_back(SubEvent{sub.next_seq++, std::move(json)});
    }
    publish_active_gauge(subs_.size());
  }
  cv_.notify_all();
  WFLOG_TELEMETRY(t) {
    if (overflow) {
      t->metrics
          .counter("wflog_server_subscribe_overflow_total",
                   "Subscriptions dropped by the slow-consumer policy "
                   "(unacknowledged backlog hit the cap)")
          ->inc();
    }
  }
  return !overflow;
}

bool SubscriptionRegistry::close(const std::string& id, std::string reason) {
  std::shared_ptr<Subscription> sub;
  {
    std::lock_guard lock(mu_);
    const auto it = subs_.find(id);
    if (it == subs_.end()) return false;
    sub = it->second;
    sub->closed = true;
    sub->close_reason = std::move(reason);
    subs_.erase(it);
    publish_active_gauge(subs_.size());
  }
  cv_.notify_all();
  return true;
}

void SubscriptionRegistry::set_paused(bool paused) {
  {
    std::lock_guard lock(mu_);
    paused_ = paused;
  }
  cv_.notify_all();
}

bool SubscriptionRegistry::paused() const {
  std::lock_guard lock(mu_);
  return paused_;
}

void SubscriptionRegistry::ack_locked(Subscription& sub,
                                      std::uint64_t after) {
  while (!sub.pending.empty() && sub.pending.front().seq <= after) {
    sub.pending.pop_front();
    ++acked_total_;
  }
}

SubPollResult SubscriptionRegistry::poll(
    const std::string& id, std::uint64_t after, std::int64_t wait_ms,
    std::size_t max_events, const std::function<bool()>& interrupted) {
  SubPollResult out;
  std::shared_ptr<Subscription> sub;
  {
    std::lock_guard lock(mu_);
    const auto it = subs_.find(id);
    if (it == subs_.end()) return out;
    sub = it->second;
  }
  out.found = true;
  out.next_after = after;

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(std::max<std::int64_t>(
                         0, wait_ms));
  std::unique_lock lock(mu_);
  ack_locked(*sub, after);
  while (sub->pending.empty() && !sub->closed && !paused_) {
    const auto now = Clock::now();
    if (now >= deadline) break;
    if (interrupted && interrupted()) break;
    const auto slice = std::min<Clock::duration>(kWaitSlice, deadline - now);
    cv_.wait_for(lock, slice);
  }
  out.paused = paused_;
  out.closed = sub->closed;
  out.close_reason = sub->close_reason;
  if (!paused_) {
    const std::size_t n =
        max_events == 0 ? sub->pending.size()
                        : std::min(max_events, sub->pending.size());
    out.events.assign(sub->pending.begin(),
                      sub->pending.begin() + static_cast<std::ptrdiff_t>(n));
    if (n > 0) out.next_after = out.events.back().seq;
    out.pending_left = sub->pending.size() - n;
    sub->delivered += n;
    delivered_total_ += n;
  } else {
    out.pending_left = sub->pending.size();
  }
  return out;
}

std::string SubscriptionRegistry::stream(
    const std::string& id, std::uint64_t after, std::int64_t heartbeat_ms,
    const std::function<bool(const SubEvent&)>& on_event,
    const std::function<bool()>& on_heartbeat,
    const std::function<bool()>& interrupted) {
  std::shared_ptr<Subscription> sub;
  {
    std::lock_guard lock(mu_);
    const auto it = subs_.find(id);
    if (it == subs_.end()) return "not-found";
    if (streams_ >= options_.max_streams) return "busy";
    ++streams_;
    sub = it->second;
    ack_locked(*sub, after);
  }

  const auto beat = std::chrono::milliseconds(
      std::max<std::int64_t>(100, heartbeat_ms));
  auto last_activity = Clock::now();
  std::uint64_t cursor = after;
  std::string end_reason;

  while (end_reason.empty()) {
    std::vector<SubEvent> batch;
    bool closed = false;
    std::string close_reason;
    {
      std::unique_lock lock(mu_);
      // Collect undelivered events (seq > cursor; acked ones are gone,
      // retained-but-streamed ones sit at the front below the cursor).
      if (!paused_) {
        for (const SubEvent& e : sub->pending) {
          if (e.seq <= cursor) continue;
          batch.push_back(e);
          if (batch.size() >= 64) break;
        }
      }
      closed = sub->closed;
      close_reason = sub->close_reason;
      if (batch.empty() && !closed) {
        cv_.wait_for(lock, kWaitSlice);
      } else if (!batch.empty()) {
        sub->delivered += batch.size();
        delivered_total_ += batch.size();
      }
    }
    for (const SubEvent& e : batch) {
      if (!on_event(e)) {
        end_reason = "client";
        break;
      }
      cursor = e.seq;
    }
    if (!end_reason.empty()) break;
    if (batch.empty() && closed) {
      end_reason = close_reason.empty() ? "closed" : close_reason;
      break;
    }
    if (interrupted && interrupted()) {
      end_reason = "draining";
      break;
    }
    const auto now = Clock::now();
    if (!batch.empty()) {
      last_activity = now;
    } else if (now - last_activity >= beat) {
      last_activity = now;
      {
        std::lock_guard lock(mu_);
        ++heartbeats_total_;
      }
      WFLOG_TELEMETRY(t) {
        t->metrics
            .counter("wflog_server_subscribe_heartbeats_total",
                     "Keep-alive heartbeats written to subscribe streams")
            ->inc();
      }
      if (!on_heartbeat()) {
        end_reason = "client";
        break;
      }
    }
  }

  {
    std::lock_guard lock(mu_);
    --streams_;
  }
  cv_.notify_all();
  return end_reason;
}

SubscribeStats SubscriptionRegistry::stats() const {
  std::lock_guard lock(mu_);
  SubscribeStats s;
  s.active = subs_.size();
  s.streams = streams_;
  for (const auto& [id, sub] : subs_) s.pending += sub->pending.size();
  s.paused = paused_;
  s.created_total = created_total_;
  s.delivered_total = delivered_total_;
  s.acked_total = acked_total_;
  s.heartbeats_total = heartbeats_total_;
  s.overflow_dropped = overflow_dropped_;
  return s;
}

std::size_t SubscriptionRegistry::size() const {
  std::lock_guard lock(mu_);
  return subs_.size();
}

}  // namespace wflog::server
