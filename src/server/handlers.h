#pragma once

// QueryService — wfqd's application layer: owns the live log (a LogMonitor
// fed by POST /ingest, optionally mirrored into a durable LogStore) and a
// QueryEngine over the latest snapshot, and binds the HTTP endpoints:
//
//   POST /query    one pattern [+ where], per-request deadline/max-incidents
//                  mapped onto EvalGuard via RunLimits
//   POST /batch    N queries through run_batch (shared canonical subplans)
//   POST /ingest   append begin/record/end events (monitor bad-event policy;
//                  applied events are durably mirrored to the store)
//   GET  /metrics  Prometheus text of the ambient MetricsRegistry, plus the
//                  request observer's per-endpoint/per-pattern histograms
//   GET  /stats    engine + store + server counters as JSON
//   GET  /healthz  liveness ("ok", plain fast path) — readiness detail as
//                  JSON when the client sends Accept: application/json
//   GET  /version  build info (version, obs support, compiler)
//   GET  /debug/requests  last-N request summaries (request observer ring)
//   GET  /debug/slow      captured slow queries with plans + span summaries
//
// Concurrency model: queries share an immutable snapshot (shared_ptr<const
// State>) and run lock-free against it; ingest is serialized by a mutex,
// appends through the monitor + store, then atomically publishes a fresh
// snapshot. Readers in flight keep the old snapshot alive until they
// finish — no reader/writer blocking, no dangling Log references.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/monitor.h"
#include "log/store.h"
#include "server/cache.h"
#include "server/health.h"
#include "server/server.h"
#include "server/subscribe.h"

namespace wflog::server {

struct ServiceOptions {
  /// Engine-wide query options (optimize, eval semantics, ...). The
  /// deadline/max_incidents inside are NOT used directly — the per-request
  /// clamps below are.
  QueryOptions engine;

  /// Default and cap for per-request "deadline_ms". 0 default = no
  /// deadline unless the client asks; the cap bounds what a client may
  /// request (0 = uncapped).
  std::int64_t default_deadline_ms = 0;
  std::int64_t max_deadline_ms = 0;
  /// Same for "max_incidents".
  std::size_t default_max_incidents = 0;
  std::size_t max_incidents_cap = 0;
  /// Incident groups rendered per /query response unless the request sets
  /// "limit" (bounds response size, not evaluation).
  std::size_t default_render_limit = 1000;
  /// Ingest feed behavior (monitor.h). kReject turns a bad event into a
  /// 400 aborting the rest of its request; kSkip/kQuarantine apply the
  /// good events and report the bad ones in the response.
  BadEventPolicy bad_event_policy = BadEventPolicy::kReject;
  /// Byte budget of the cross-request result cache (server/cache.h).
  /// 0 = caching off: /query and /batch run their one flow against a cache
  /// that never hits, and send no X-Wfq-Cache header and no
  /// result_cache_* batch stats. wfqd enables it by default
  /// (--cache-mb / --cache-off).
  std::size_t cache_bytes = 0;
  /// Shards of the result cache (contention knob; clamped to >= 1).
  std::size_t cache_shards = 8;

  // ---- standing queries (server/subscribe.h) -----------------------------
  /// Subscription capacity / stream concurrency / retained-backlog caps.
  SubscribeOptions subscribe;
  /// Heartbeat cadence on idle subscribe streams (clamped to >= 100ms).
  std::int64_t subscribe_heartbeat_ms = 5000;
  /// Longest ?wait_ms= a long-poll may request.
  std::int64_t subscribe_wait_cap_ms = 30000;
  /// Bad events retained per ingest request for the response's
  /// "bad_events" array; excess is counted in "bad_events_dropped".
  std::size_t last_bad_cap = 1024;
  /// LogMonitor quarantine ring capacity (kQuarantine policy only).
  std::size_t quarantine_capacity = 1024;

  // ---- store-failure degraded mode (health.h) ----------------------------
  /// First recovery-probe delay after a store write failure degrades the
  /// server; doubles per failed probe up to the cap (wfqd:
  /// --recovery-backoff-ms).
  std::int64_t recovery_backoff_ms = 100;
  std::int64_t recovery_backoff_cap_ms = 5000;
  /// Consecutive failed probes before recovery gives up and the server
  /// stays degraded for an operator; 0 = retry forever (wfqd:
  /// --max-recovery-attempts).
  int max_recovery_attempts = 0;
  /// Observes every health transition (wfqd logs them to the access log);
  /// called off the request path, may be null.
  std::function<void(HealthState from, HealthState to,
                     const std::string& detail)>
      on_health_transition;
};

class QueryService {
 public:
  /// Serves `initial` (replayed into the monitor so ingest continues its
  /// wid sequence). With a store, ingested events are mirrored durably;
  /// the store's log must equal `initial` (wfqd opens the store and loads
  /// it). `drain` comes from the HttpServer so in-flight evaluations stop
  /// when the drain grace period expires.
  QueryService(std::optional<Log> initial, ServiceOptions options,
               CancelToken drain, std::optional<LogStore> store);

  /// Registers every endpoint on the router.
  void bind(Router& router, const HttpServer* server = nullptr);

  /// Late-binds the server for /stats counters. The Router is moved INTO
  /// HttpServer at construction, so bind() necessarily runs first; call
  /// this after the server exists (and before start()).
  void attach_server(const HttpServer* server) { server_ = server; }

  /// Borrowed request observer backing /debug/requests, /debug/slow and
  /// the observability blocks of /metrics and /stats. Null (the default)
  /// turns the debug endpoints into 404s. Usually the same observer given
  /// to ServerOptions::observer; must outlive the service.
  void attach_observer(const RequestObserver* observer) {
    observer_ = observer;
  }

  std::size_t num_records() const;

  /// The degraded-mode state machine; null when the service has no store
  /// (nothing durable can fail structurally). Exposed for tests and for
  /// wfqd's shutdown path (monitor.stop() before the store dies).
  HealthMonitor* health() noexcept { return health_.get(); }
  const HealthMonitor* health() const noexcept { return health_.get(); }

 private:
  /// An immutable snapshot queries run against; replaced wholesale by
  /// ingest. `log` is owned here so `engine` (which borrows it) can never
  /// dangle while a request holds the shared_ptr. Always complete: an
  /// empty service holds an empty log and an engine over it.
  struct State {
    State(Log snapshot, const QueryOptions& options, std::uint64_t v)
        : log(std::move(snapshot)),
          engine(std::make_unique<QueryEngine>(log, options)),
          version(v) {}

    Log log;
    std::unique_ptr<QueryEngine> engine;  // over `log`; never null
    /// Monotonic snapshot version; part of every cache key, so an ingest
    /// that publishes a new snapshot implicitly invalidates all cached
    /// results (old-version entries age out of the LRU).
    std::uint64_t version;
  };

  std::shared_ptr<const State> state() const;
  void rebuild_state();
  RunLimits limits_from(const class JsonValue& body) const;
  MonitorOptions monitor_options();
  /// Feeds `log` through the monitor event-by-event, asserting wid
  /// identity (LogMonitor assigns wids sequentially). Throws on mismatch.
  void replay_into_monitor(const Log& log);
  /// HealthMonitor's RecoverFn: under ingest_mu_, reopens the store in
  /// place (quarantine recovery), rebuilds the monitor from the durable
  /// log, and republishes the snapshot. False + *error when the store is
  /// still unreadable.
  bool recover_store(std::string* error);

  HttpResponse handle_query(const HttpRequest& req, RequestContext& ctx);
  HttpResponse handle_batch(const HttpRequest& req, RequestContext& ctx);
  HttpResponse handle_ingest(const HttpRequest& req, RequestContext& ctx);
  HttpResponse handle_subscribe(const HttpRequest& req, RequestContext& ctx);
  /// GET (poll or ?stream=1) and DELETE on /subscribe/{id}.
  HttpResponse handle_subscription(const HttpRequest& req,
                                   RequestContext& ctx);
  HttpResponse handle_metrics(const HttpRequest& req) const;
  HttpResponse handle_stats(const HttpRequest& req) const;
  HttpResponse handle_healthz(const HttpRequest& req) const;
  HttpResponse handle_version(const HttpRequest& req) const;
  HttpResponse handle_debug_requests(const HttpRequest& req) const;
  HttpResponse handle_debug_slow(const HttpRequest& req) const;

  /// Renders a raw monitor match into the subscribe event JSON, or empty
  /// when the subscription's where clause rejects it. `index` must belong
  /// to a snapshot containing the incident's positions.
  static std::string render_sub_event(const Query& parsed,
                                      const Incident& incident,
                                      const LogIndex& index);
  /// Routes freshly drained monitor matches to their subscriptions
  /// (where-filtering against `st`) and repairs cached entries for the
  /// subscribed queries from old_version to st->version. Caller holds
  /// ingest_mu_; `st` is the snapshot just published.
  void route_matches(const std::vector<LogMonitor::Match>& raw,
                     const std::shared_ptr<const State>& st,
                     std::uint64_t old_version);
  /// Re-registers every live subscription on the freshly rebuilt monitor
  /// (recovery path) and reconciles delivery via Subscription::fed_raw.
  /// Caller holds ingest_mu_.
  void reattach_subscriptions();
  /// True while a streaming/long-polling consumer should stop waiting.
  bool delivery_interrupted() const;

  ServiceOptions options_;
  CancelToken drain_;
  const HttpServer* server_ = nullptr;  // for /stats; borrowed
  const RequestObserver* observer_ = nullptr;  // for /debug/*; borrowed
  /// Null when options_.cache_bytes == 0 (cache off).
  std::unique_ptr<ResultCache> cache_;

  mutable std::mutex state_mu_;
  std::shared_ptr<const State> state_;

  /// Mutable: handle_stats (const) must hold it while reading the store's
  /// segment/zone vectors, which ingest grows concurrently.
  mutable std::mutex ingest_mu_;
  /// Next snapshot version (mutated in rebuild_state, which runs from the
  /// constructor and then only under ingest_mu_).
  std::uint64_t version_seq_ = 1;
  LogMonitor monitor_;
  std::optional<LogStore> store_;
  /// Degraded-mode machine (see health.h); created iff store_ is set.
  /// Declared after store_ so its recovery thread is stopped (by the
  /// destructor, reverse member order) before the store goes away.
  std::unique_ptr<HealthMonitor> health_;
  std::vector<BadEvent> last_bad_;  // callback sink, under ingest_mu_
  std::size_t last_bad_dropped_ = 0;  // beyond last_bad_cap, under ingest_mu_
  /// Atomic so /stats can read it without taking ingest_mu_ (which an
  /// ingest holding the store open could pin for a while). Writes stay
  /// under ingest_mu_.
  std::atomic<bool> ingest_enabled_{true};
  /// The human-readable reason behind ingest_enabled_ == false. Guarded by
  /// its own leaf mutex (NOT ingest_mu_) so /stats can snapshot it without
  /// waiting behind a long ingest — writers hold ingest_mu_ AND take this.
  mutable std::mutex ingest_reason_mu_;
  std::string ingest_disabled_reason_;

  /// Standing queries (server/subscribe.h). The registry has its own
  /// mutex; monitor-coupled mutations stay under ingest_mu_.
  SubscriptionRegistry subs_;
  /// Cache entries repaired in place on ingest (subscribed queries only).
  std::atomic<std::uint64_t> cache_repairs_{0};

  void set_ingest_disabled(std::string reason);  // under ingest_mu_
  std::string ingest_disabled_reason() const;
};

}  // namespace wflog::server
