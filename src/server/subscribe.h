#pragma once

// SubscriptionRegistry — wfqd's standing-query state (the server half of
// "incremental == batch", ROADMAP item 3).
//
// A subscription pairs one parsed query with a durable per-client event
// queue. QueryService evaluates it on the snapshots it publishes: the
// whole snapshot at registration, and after each /ingest the instances
// the request touched (Definition 4: an incident never leaves its
// instance), delivering the incidents that end in the new records.
//
//   POST /subscribe          register pattern [+ where]; history is
//                            delivered first, in the order the log
//                            completed it, so the event stream is
//                            identical to having subscribed before the
//                            first record
//   GET  /subscribe/{id}     long-poll (?wait_ms=) or chunked stream
//                            (?stream=1); ?after=N acknowledges events
//                            with seq <= N (they are then released)
//   DELETE /subscribe/{id}   unsubscribe, releasing its queue
//
// Delivery contract (exactly-once): every event carries a per-subscription
// monotonically increasing `seq`. Events are RETAINED until acknowledged
// by `?after=` on a later attach, so a consumer that reconnects with the
// last seq it processed sees each incident exactly once, across client
// disconnects and server degrade/recover cycles. The retained backlog is
// capped (Options::pending_cap); a consumer that never acknowledges —
// the slow-consumer case — has its subscription dropped at the cap with a
// terminal "overflow" event rather than growing without bound.
//
// Threading: one registry mutex guards all subscription state (low
// contention — events are enqueued once per applied ingest request).
// Evaluation happens in QueryService under ingest_mu_, which also
// serializes create()/enqueue()/close(). Lock order is always
// ingest_mu_ -> registry mutex, never the reverse: poll()/stream() take
// only the registry mutex, so delivery never blocks ingest.
//
// Degraded mode: set_paused(true) (store failure) stops event delivery —
// streams emit only heartbeats, polls return empty with "paused": true —
// while every queued event is retained; recovery re-evaluates every
// subscription on the durable snapshot, reconciles via
// Subscription::fed_raw, and resumes delivery.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"

namespace wflog::server {

struct SubscribeOptions {
  /// Concurrent subscriptions; registration beyond this answers 503.
  std::size_t max_subscriptions = 64;
  /// Concurrent chunked streams. Each stream occupies one worker thread
  /// for its lifetime, so this must stay well below ServerOptions::threads
  /// (long-poll is the scalable consumption path).
  std::size_t max_streams = 2;
  /// Unacknowledged events retained per subscription before the
  /// slow-consumer policy drops it.
  std::size_t pending_cap = 4096;
};

/// One delivered (or deliverable) event. `json` is the rendered incident
/// BODY ("wid":W,"positions":[..]) — delivery paths wrap it with the
/// envelope and the seq, which only the registry assigns.
struct SubEvent {
  std::uint64_t seq = 0;
  std::string json;
};

struct Subscription {
  std::string id;          // "sub-<n>", stable for the subscription's life
  std::string query_text;  // as registered
  Query parsed;            // pattern [+ where]; where is filtered on feed
  std::string cache_key_base;  // canonical cache identity (version-free)
  /// Raw matches routed to this subscription so far, counted BEFORE
  /// where-filtering. Matches are routed in the order the log completed
  /// them, so recovery re-evaluates the durable snapshot and skips exactly
  /// this many — re-aligning the stream without re-delivering (or losing)
  /// anything.
  std::uint64_t fed_raw = 0;
  std::uint64_t next_seq = 1;  // seq the next event will get
  std::deque<SubEvent> pending;  // retained until acked via ?after=
  bool closed = false;
  std::string close_reason;  // "unsubscribed" | "overflow" | ...
  std::uint64_t delivered = 0;  // events handed to any consumer
};

/// Outcome of one poll (?wait_ms=) attach.
struct SubPollResult {
  bool found = false;   // false -> 404
  bool closed = false;  // subscription ended (reason below)
  std::string close_reason;
  bool paused = false;  // degraded mode: delivery suspended
  std::vector<SubEvent> events;
  std::uint64_t next_after = 0;  // cursor to ack these events
  std::size_t pending_left = 0;  // events still queued after this batch
};

/// Point-in-time counters for /stats and /metrics.
struct SubscribeStats {
  std::size_t active = 0;
  std::size_t streams = 0;
  std::size_t pending = 0;  // retained events across subscriptions
  bool paused = false;
  std::uint64_t created_total = 0;
  std::uint64_t delivered_total = 0;
  std::uint64_t acked_total = 0;
  std::uint64_t heartbeats_total = 0;
  std::uint64_t overflow_dropped = 0;  // subscriptions killed at the cap
};

class SubscriptionRegistry {
 public:
  explicit SubscriptionRegistry(SubscribeOptions options);

  SubscriptionRegistry(const SubscriptionRegistry&) = delete;
  SubscriptionRegistry& operator=(const SubscriptionRegistry&) = delete;

  /// Registers a subscription; `initial_events` are the where-filtered
  /// historical matches (they get seqs 1..N). `fed_raw` counts the
  /// PRE-filter historical matches. Returns nullptr at max_subscriptions.
  /// Caller holds ingest_mu_.
  std::shared_ptr<Subscription> create(std::string query_text, Query parsed,
                                       std::string cache_key_base,
                                       std::uint64_t fed_raw,
                                       std::vector<std::string> initial_events);

  /// The subscription with `id`, or nullptr. (The returned pointer is
  /// shared state — mutate it only through registry methods.)
  std::shared_ptr<Subscription> find(const std::string& id) const;

  /// Live subscriptions, for ingest routing and recovery resync.
  /// Caller holds ingest_mu_ (the set is stable only under it).
  std::vector<std::shared_ptr<Subscription>> live() const;

  /// Appends where-filtered events to `sub` (assigning seqs) and counts
  /// `raw` pre-filter matches against fed_raw. Returns false when the
  /// pending cap was hit: the subscription is closed ("overflow").
  /// Caller holds ingest_mu_.
  bool enqueue(Subscription& sub, std::vector<std::string> events,
               std::uint64_t raw);

  /// Marks closed (waking consumers with the terminal reason) and removes
  /// it from the registry. False if unknown. Caller holds ingest_mu_.
  bool close(const std::string& id, std::string reason);

  /// Degraded-mode delivery gate.
  void set_paused(bool paused);
  bool paused() const;

  /// Acks events with seq <= `after`, then waits up to `wait_ms` for an
  /// event (0 = return immediately) and collects up to `max_events`.
  /// `interrupted` is polled about every 250ms — server drain ends the
  /// wait early. Never blocks while paused (returns empty, paused=true).
  SubPollResult poll(const std::string& id, std::uint64_t after,
                     std::int64_t wait_ms, std::size_t max_events,
                     const std::function<bool()>& interrupted);

  /// Streaming consumption: acks <= `after`, then delivers every retained
  /// and future event through `on_event` (false = client gone / stop) and
  /// `on_heartbeat` about every `heartbeat_ms` of idleness. Runs until the
  /// subscription closes, `interrupted` fires, or a callback declines.
  /// Returns the end reason ("unsubscribed", "overflow", "draining",
  /// "client", "not-found", "busy" when max_streams was hit).
  std::string stream(const std::string& id, std::uint64_t after,
                     std::int64_t heartbeat_ms,
                     const std::function<bool(const SubEvent&)>& on_event,
                     const std::function<bool()>& on_heartbeat,
                     const std::function<bool()>& interrupted);

  SubscribeStats stats() const;
  std::size_t size() const;
  const SubscribeOptions& options() const noexcept { return options_; }

 private:
  void ack_locked(Subscription& sub, std::uint64_t after);

  SubscribeOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, std::shared_ptr<Subscription>> subs_;
  bool paused_ = false;
  std::size_t streams_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t created_total_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::uint64_t acked_total_ = 0;
  std::uint64_t heartbeats_total_ = 0;
  std::uint64_t overflow_dropped_ = 0;
};

}  // namespace wflog::server
