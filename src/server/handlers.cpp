#include "server/handlers.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "core/join.h"
#include "core/optimizer.h"
#include "core/pattern.h"
#include "core/printer.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "server/json.h"

// Stamped by the build (src/CMakeLists.txt) for GET /version.
#ifndef WFLOG_VERSION_STRING
#define WFLOG_VERSION_STRING "0.0.0"
#endif

namespace wflog::server {
namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Marks the tracer position at handler entry so a slow capture can
/// summarize exactly this request's spans (observer.h).
void mark_spans(RequestContext& ctx) {
  WFLOG_TELEMETRY(t) {
    ctx.span_mark = t->tracer.thread_mark();
    ctx.has_span_mark = true;
  }
}

/// JSON scalar -> attribute Value; arrays/objects are not attribute
/// material and fail the request.
Value to_attr_value(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      return Value{};
    case JsonValue::Kind::kBool:
      return Value(v.as_bool());
    case JsonValue::Kind::kInt:
      return Value(v.as_int());
    case JsonValue::Kind::kDouble:
      return Value(v.as_double());
    case JsonValue::Kind::kString:
      return Value(v.as_string());
    default:
      throw Error("attribute values must be JSON scalars");
  }
}

/// Borrow an object's members as NamedAttrs (string_views into `obj`,
/// which must outlive the call they are passed to).
NamedAttrs to_named_attrs(const JsonValue* obj) {
  NamedAttrs attrs;
  if (obj == nullptr || obj->is_null()) return attrs;
  if (!obj->is_object()) throw Error("\"in\"/\"out\" must be objects");
  for (const auto& [name, value] : obj->members()) {
    attrs.emplace_back(name, to_attr_value(value));
  }
  return attrs;
}

/// Renders one QueryResult as the /query (and /batch slot) shape. `limit`
/// caps rendered incidents (the response size), never the evaluation —
/// "total" always reports the full count.
JsonValue render_result(const QueryResult& r, std::size_t limit) {
  JsonValue out;
  if (!r.ok()) {
    out.set("error", r.error);
    return out;
  }
  out.set("pattern", r.parsed != nullptr ? to_text(*r.parsed) : "");
  out.set("optimized", r.executed != nullptr ? to_text(*r.executed) : "");
  out.set("instances", r.incidents.groups().size());
  out.set("total", r.total());
  out.set("complete", r.complete());
  out.set("stop_reason", std::string(stop_reason_name(r.stop_reason)));

  JsonArray groups;
  std::size_t rendered = 0;
  for (const IncidentSet::Group& g : r.incidents.groups()) {
    if (rendered >= limit) break;
    JsonArray incidents;
    for (const Incident& o : g.incidents) {
      if (rendered >= limit) break;
      JsonArray positions;
      for (const IsLsn n : o.positions()) {
        positions.emplace_back(static_cast<std::int64_t>(n));
      }
      incidents.emplace_back(std::move(positions));
      ++rendered;
    }
    JsonValue group;
    group.set("wid", static_cast<std::int64_t>(g.wid));
    group.set("incidents", std::move(incidents));
    groups.emplace_back(std::move(group));
  }
  out.set("incidents", std::move(groups));
  out.set("rendered", rendered);
  out.set("render_truncated", rendered < r.total());

  JsonValue timings;
  timings.set("parse_us", r.parse_us);
  timings.set("optimize_us", r.optimize_us);
  timings.set("eval_us", r.eval_us);
  out.set("timings", std::move(timings));
  return out;
}

std::size_t read_size(const JsonValue& body, std::string_view key,
                      std::size_t fallback) {
  const JsonValue* v = body.find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_number() || v->as_int() < 0) {
    throw Error("\"" + std::string(key) + "\" must be a non-negative number");
  }
  return static_cast<std::size_t>(v->as_int());
}

/// Per-request cache opt-out: "Cache-Control: no-cache" skips the lookup
/// (the response is freshly evaluated) but the fresh result is still
/// stored — standard HTTP revalidation semantics.
bool no_cache_requested(const HttpRequest& req) {
  return req.header("cache-control").find("no-cache") !=
         std::string_view::npos;
}

void set_cache_header(HttpResponse& resp, bool hit) {
  resp.extra_headers.emplace_back("x-wfq-cache", hit ? "hit" : "miss");
}

/// A cache hit may have been populated by a DIFFERENT (canonically equal)
/// spelling of the pattern, whose stored trees would leak the populating
/// query's text through the "pattern"/"optimized" echo fields. Re-derive
/// both from the request's own parse — the optimizer is deterministic and
/// runs without touching the log, so a hit stays byte-identical to what an
/// uncached evaluation of THIS spelling would have returned.
void reecho_pattern_texts(JsonValue& slot, const Query& q,
                          const QueryEngine& engine,
                          const QueryResult& cached) {
  const std::string req_text = to_text(*q.pattern);
  if (cached.parsed != nullptr && to_text(*cached.parsed) == req_text) {
    return;  // the entry was populated by this very spelling
  }
  PatternPtr executed = q.pattern;
  if (engine.options().optimize) {
    executed =
        optimize(q.pattern, engine.cost_model(), engine.options().optimizer)
            .pattern;
  }
  for (auto& [k, v] : slot.members()) {
    if (k == "pattern") {
      v = JsonValue(req_text);
    } else if (k == "optimized") {
      v = JsonValue(to_text(*executed));
    }
  }
}

}  // namespace

QueryService::QueryService(std::optional<Log> initial, ServiceOptions options,
                           CancelToken drain, std::optional<LogStore> store)
    : options_(std::move(options)),
      drain_(std::move(drain)),
      monitor_(monitor_options()),
      store_(std::move(store)),
      subs_(options_.subscribe) {
  if (options_.cache_bytes > 0) {
    CacheOptions co;
    co.max_bytes = options_.cache_bytes;
    co.shards = options_.cache_shards;
    cache_ = std::make_unique<ResultCache>(co);
  }
  // Replay the initial log into the monitor so ingest continues its wid
  // sequence. The replay asserts wid identity: LogMonitor assigns wids
  // sequentially, so a log whose wids are not 1..N cannot be extended
  // in-place — queries still work, ingest reports 409.
  if (initial.has_value() && initial->size() > 0) {
    try {
      replay_into_monitor(*initial);
    } catch (const std::exception& e) {
      set_ingest_disabled(
          std::string("initial log could not seed the monitor: ") + e.what());
    }
  }
  last_bad_.clear();  // replay noise is not request-level bad events
  last_bad_dropped_ = 0;

  // Only a durable mirror can fail structurally mid-flight; a store-less
  // service has no degraded mode (its only failure is the 409 above).
  if (store_.has_value()) {
    HealthOptions ho;
    ho.backoff_initial = std::chrono::milliseconds(
        std::max<std::int64_t>(1, options_.recovery_backoff_ms));
    ho.backoff_cap = std::chrono::milliseconds(
        std::max<std::int64_t>(1, options_.recovery_backoff_cap_ms));
    ho.max_attempts = options_.max_recovery_attempts;
    health_ = std::make_unique<HealthMonitor>(
        ho, [this](std::string* error) { return recover_store(error); },
        options_.on_health_transition);
  }

  // Initial snapshot straight from the given log (no revalidation).
  auto state = std::make_shared<State>();
  state->version = version_seq_;
  if (initial.has_value() && initial->size() > 0) {
    state->log = std::move(initial);
    state->engine =
        std::make_unique<QueryEngine>(*state->log, options_.engine);
  }
  state_ = std::move(state);
}

MonitorOptions QueryService::monitor_options() {
  MonitorOptions mo;
  mo.keep_records = true;  // snapshot() is the rebuild path
  mo.bad_event_policy = options_.bad_event_policy;
  mo.quarantine_capacity = options_.quarantine_capacity;
  mo.negation_matches_sentinels =
      options_.engine.eval.negation_matches_sentinels;
  mo.on_bad_event = [this](const BadEvent& e) {
    // The per-request sink is capped like the monitor's quarantine ring: a
    // hostile ingest full of bad events must not grow memory unboundedly.
    if (last_bad_.size() >= options_.last_bad_cap) {
      ++last_bad_dropped_;
      return;
    }
    last_bad_.push_back(e);
  };
  return mo;
}

void QueryService::set_ingest_disabled(std::string reason) {
  ingest_enabled_ = false;
  std::lock_guard lock(ingest_reason_mu_);
  ingest_disabled_reason_ = std::move(reason);
}

std::string QueryService::ingest_disabled_reason() const {
  std::lock_guard lock(ingest_reason_mu_);
  return ingest_disabled_reason_;
}

bool QueryService::delivery_interrupted() const {
  return (server_ != nullptr && server_->draining()) ||
         (drain_ && drain_->load());
}

void QueryService::replay_into_monitor(const Log& log) {
  for (const LogRecord& l : log) {
    const std::string_view name = log.activity_name(l.activity);
    if (l.activity == log.start_symbol()) {
      const Wid got = monitor_.begin_instance();
      if (got != l.wid) {
        throw Error("initial log wid " + std::to_string(l.wid) +
                    " is not the monitor's next wid " + std::to_string(got));
      }
    } else if (l.activity == log.end_symbol()) {
      monitor_.end_instance(l.wid);
    } else {
      NamedAttrs in;
      NamedAttrs out;
      for (const AttrEntry& e : l.in) {
        in.emplace_back(log.interner().name(e.attr), e.value);
      }
      for (const AttrEntry& e : l.out) {
        out.emplace_back(log.interner().name(e.attr), e.value);
      }
      monitor_.record(l.wid, name, in, out);
    }
  }
}

bool QueryService::recover_store(std::string* error) {
  std::lock_guard lock(ingest_mu_);
  if (!store_.has_value()) {
    if (error != nullptr) *error = "no store to recover";
    return false;
  }
  try {
    // Reopen from what is durably on disk (quarantining any corrupt
    // suffix), then rebuild the monitor to match it exactly: acked
    // records were fsynced before they were acked, so they all survive;
    // at most the one unacked event that triggered the degrade (applied
    // to the monitor but never to the store, never reported "applied")
    // is dropped — which also heals any monitor/store divergence.
    const RecoveryReport report = store_->reopen_in_place();
    (void)report;
    const Log durable = store_->load();
    monitor_ = LogMonitor(monitor_options());
    if (durable.size() > 0) replay_into_monitor(durable);
    last_bad_.clear();
    last_bad_dropped_ = 0;
    rebuild_state();  // strictly newer snapshot version
    // Rebuilding the monitor dropped every standing query with it:
    // re-register them against the durable replay and reconcile delivery
    // (fed_raw skips the already-routed prefix), then resume.
    reattach_subscriptions();
    subs_.set_paused(false);
    ingest_enabled_ = true;
    {
      std::lock_guard reason_lock(ingest_reason_mu_);
      ingest_disabled_reason_.clear();
    }
    return true;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

namespace {

/// Sorted-unique insert preserving the IncidentList canonical invariant.
void insert_incident(IncidentList& list, const Incident& o) {
  const auto it = std::lower_bound(list.begin(), list.end(), o);
  if (it != list.end() && *it == o) return;
  list.insert(it, o);
}

}  // namespace

std::string QueryService::render_sub_event(const Query& parsed,
                                           const Incident& incident,
                                           const LogIndex& index) {
  if (parsed.where != nullptr) {
    // Filter with the UNOPTIMIZED pattern, exactly like the engine
    // (bindings live on the parsed tree): streamed events and a batch
    // /query of the same text must agree on every incident. The where
    // verdict depends only on records at the incident's own positions,
    // which are immutable once appended — so filtering against the
    // newest snapshot is sound for incidents matched at any version.
    IncidentSet one;
    one.add_group(incident.wid(), IncidentList{incident});
    const IncidentSet kept =
        filter_where(one, *parsed.pattern, *parsed.where, index, nullptr);
    if (kept.empty()) return {};
  }
  std::string json =
      "\"wid\":" + std::to_string(incident.wid()) + ",\"positions\":[";
  bool first = true;
  for (const IsLsn n : incident.positions()) {
    if (!first) json += ',';
    first = false;
    json += std::to_string(n);
  }
  json += ']';
  return json;
}

void QueryService::route_matches(const std::vector<LogMonitor::Match>& raw,
                                 const std::shared_ptr<const State>& st,
                                 std::uint64_t old_version) {
  const auto subs = subs_.live();
  if (subs.empty()) return;

  std::unordered_map<std::size_t, std::vector<const Incident*>> by_query;
  for (const LogMonitor::Match& m : raw) {
    by_query[m.query].push_back(&m.incident);
  }

  for (const auto& sub : subs) {
    std::vector<std::string> events;
    std::vector<const Incident*> delta;  // where-passing, for cache repair
    std::uint64_t raw_count = 0;
    if (const auto it = by_query.find(sub->monitor_id);
        it != by_query.end() && st->engine != nullptr) {
      raw_count = it->second.size();
      events.reserve(it->second.size());
      for (const Incident* o : it->second) {
        std::string json =
            render_sub_event(sub->parsed, *o, st->engine->index());
        if (!json.empty()) {
          events.push_back(std::move(json));
          delta.push_back(o);
        }
      }
    }
    if (!subs_.enqueue(*sub, std::move(events), raw_count)) {
      // Slow-consumer overflow: the registry already closed it; release
      // the monitor query so its per-instance state stops growing.
      monitor_.remove_query(sub->monitor_id);
      continue;
    }

    // Incremental cache repair: a complete cached result for this exact
    // query at the pre-ingest version plus the monitor's delta IS the
    // result at the new version (incremental == batch) — re-insert it
    // under the new key instead of letting the ingest invalidate it.
    if (cache_ == nullptr || !cache_->enabled()) continue;
    RunLimits produced;
    const auto old =
        cache_->peek(ResultCache::key(sub->parsed, old_version), &produced);
    if (old == nullptr || !old->ok() || !old->complete()) continue;
    auto repaired = std::make_shared<QueryResult>();
    repaired->parsed = old->parsed;
    repaired->executed = old->executed;
    repaired->where = old->where;
    repaired->parse_us = old->parse_us;
    repaired->optimize_us = old->optimize_us;
    repaired->eval_us = old->eval_us;
    repaired->estimated_cost_before = old->estimated_cost_before;
    repaired->estimated_cost_after = old->estimated_cost_after;
    repaired->shards_used = old->shards_used;
    repaired->stop_reason = old->stop_reason;
    std::map<Wid, IncidentList> merged;
    for (const IncidentSet::Group& g : old->incidents.groups()) {
      merged.emplace(g.wid, g.incidents);
    }
    for (const Incident* o : delta) {
      insert_incident(merged[o->wid()], *o);
    }
    for (auto& [wid, incidents] : merged) {
      repaired->incidents.add_group(wid, std::move(incidents));
    }
    cache_->insert(ResultCache::key(sub->parsed, st->version),
                   std::move(repaired), produced);
    ++cache_repairs_;
  }
}

void QueryService::reattach_subscriptions() {
  const auto subs = subs_.live();
  if (subs.empty()) return;
  const auto st = state();
  for (const auto& sub : subs) {
    // Re-register on the fresh monitor; backfill replays the durable log
    // deterministically, reproducing the exact raw match sequence the
    // subscription already consumed — plus anything that became durable
    // without having been routed yet. No guard: this history was already
    // admitted once.
    const std::size_t qid = monitor_.add_query(sub->parsed.pattern);
    std::vector<LogMonitor::Match> raw = monitor_.drain(qid);
    sub->monitor_id = qid;
    const std::uint64_t seen = sub->fed_raw;
    if (raw.size() < seen) {
      // Defensive: the durable log replays FEWER matches than were routed
      // — only possible if un-fsynced data was lost beyond the single
      // in-flight event recovery guarantees. Realign and carry on.
      sub->fed_raw = raw.size();
      continue;
    }
    std::vector<std::string> events;
    for (std::size_t i = seen; i < raw.size(); ++i) {
      if (st->engine == nullptr) break;
      std::string json = render_sub_event(sub->parsed, raw[i].incident,
                                          st->engine->index());
      if (!json.empty()) events.push_back(std::move(json));
    }
    if (!subs_.enqueue(*sub, std::move(events), raw.size() - seen)) {
      monitor_.remove_query(qid);
    }
  }
}

std::shared_ptr<const QueryService::State> QueryService::state() const {
  std::lock_guard lock(state_mu_);
  return state_;
}

std::size_t QueryService::num_records() const {
  const auto st = state();
  return st->log.has_value() ? st->log->size() : 0;
}

void QueryService::rebuild_state() {
  auto fresh = std::make_shared<State>();
  fresh->version = ++version_seq_;
  if (monitor_.num_records() > 0) {
    fresh->log = monitor_.snapshot();
    fresh->engine =
        std::make_unique<QueryEngine>(*fresh->log, options_.engine);
  }
  std::lock_guard lock(state_mu_);
  state_ = std::move(fresh);
}

RunLimits QueryService::limits_from(const JsonValue& body) const {
  RunLimits limits;
  std::int64_t deadline_ms = options_.default_deadline_ms;
  const JsonValue* d = body.find("deadline_ms");
  if (d != nullptr && !d->is_null()) {
    if (!d->is_number() || d->as_int() < 0) {
      throw Error("\"deadline_ms\" must be a non-negative number");
    }
    deadline_ms = d->as_int();
  }
  // The cap binds even "unlimited" (0) requests: a server with a
  // max_deadline_ms never runs an unbounded query.
  if (options_.max_deadline_ms > 0 &&
      (deadline_ms == 0 || deadline_ms > options_.max_deadline_ms)) {
    deadline_ms = options_.max_deadline_ms;
  }
  limits.deadline = std::chrono::milliseconds(deadline_ms);

  std::size_t max_incidents =
      read_size(body, "max_incidents", options_.default_max_incidents);
  if (options_.max_incidents_cap > 0 &&
      (max_incidents == 0 || max_incidents > options_.max_incidents_cap)) {
    max_incidents = options_.max_incidents_cap;
  }
  limits.max_incidents = max_incidents;
  limits.cancel = drain_;
  return limits;
}

void QueryService::bind(Router& router, const HttpServer* server) {
  server_ = server;
  router.add("POST", "/query",
             [this](const HttpRequest& req, RequestContext& ctx) {
               return handle_query(req, ctx);
             });
  router.add("POST", "/batch",
             [this](const HttpRequest& req, RequestContext& ctx) {
               return handle_batch(req, ctx);
             });
  router.add("POST", "/ingest",
             [this](const HttpRequest& req, RequestContext& ctx) {
               return handle_ingest(req, ctx);
             });
  router.add("POST", "/subscribe",
             [this](const HttpRequest& req, RequestContext& ctx) {
               return handle_subscribe(req, ctx);
             });
  router.add_prefix("GET", "/subscribe/",
                    [this](const HttpRequest& req, RequestContext& ctx) {
                      return handle_subscription(req, ctx);
                    });
  router.add_prefix("DELETE", "/subscribe/",
                    [this](const HttpRequest& req, RequestContext& ctx) {
                      return handle_subscription(req, ctx);
                    });
  router.add("GET", "/metrics",
             [this](const HttpRequest& req, RequestContext&) {
               return handle_metrics(req);
             });
  router.add("GET", "/stats",
             [this](const HttpRequest& req, RequestContext&) {
               return handle_stats(req);
             });
  router.add("GET", "/healthz",
             [this](const HttpRequest& req, RequestContext&) {
               return handle_healthz(req);
             });
  router.add("GET", "/version",
             [this](const HttpRequest& req, RequestContext&) {
               return handle_version(req);
             });
  router.add("GET", "/debug/requests",
             [this](const HttpRequest& req, RequestContext&) {
               return handle_debug_requests(req);
             });
  router.add("GET", "/debug/slow",
             [this](const HttpRequest& req, RequestContext&) {
               return handle_debug_slow(req);
             });
}

HttpResponse QueryService::handle_query(const HttpRequest& req,
                                        RequestContext& ctx) {
  const auto t0 = Clock::now();
  mark_spans(ctx);
  JsonValue body;
  std::string query_text;
  RunLimits limits;
  std::size_t render_limit = options_.default_render_limit;
  bool stream_requested = false;
  try {
    body = parse_json(req.body);
    const JsonValue* q = body.find("query");
    if (q == nullptr || !q->is_string()) {
      throw Error("body must be an object with a string \"query\"");
    }
    query_text = q->as_string();
    limits = limits_from(body);
    render_limit = read_size(body, "limit", options_.default_render_limit);
    const JsonValue* sv = body.find("stream");
    if (sv != nullptr && !sv->is_null()) {
      if (!sv->is_bool()) throw Error("\"stream\" must be a boolean");
      stream_requested = sv->as_bool();
    }
  } catch (const std::exception& e) {
    ctx.parse_us = us_since(t0);
    return HttpResponse::error(400, e.what());
  }

  const auto st = state();
  try {
    // Parse-first, on both the cached and uncached path: the observability
    // layer attributes the request to its canonical pattern key, and
    // run(pattern, where) produces the same result run(text) would (the
    // text overload is parse + this call).
    const auto tq0 = Clock::now();
    Query parsed = Query::parse(query_text);
    const double query_parse_us = us_since(tq0);
    ctx.query = query_text;
    ctx.canonical_key = canonical_key(*parsed.pattern);
    ctx.parse_us = us_since(t0);

    if (st->engine == nullptr) {
      // Empty log: the query was already validated above.
      JsonValue out;
      out.set("query", query_text);
      out.set("instances", 0);
      out.set("total", 0);
      out.set("complete", true);
      out.set("stop_reason", std::string(stop_reason_name(StopReason::kNone)));
      out.set("incidents", JsonArray{});
      ctx.stop_reason = stop_reason_name(StopReason::kNone);
      const auto ts0 = Clock::now();
      if (stream_requested) {
        HttpResponse resp;
        resp.content_type = "application/x-ndjson";
        std::string line = out.dump() + "\n";
        resp.streamer = [line = std::move(line)](ChunkedWriter& w) {
          w.write_chunk(line);
        };
        ctx.serialize_us = us_since(ts0);
        return resp;
      }
      HttpResponse resp = HttpResponse::json(200, out.dump());
      ctx.serialize_us = us_since(ts0);
      return resp;
    }
    const bool cache_on = cache_ != nullptr && cache_->enabled();
    std::shared_ptr<const QueryResult> result;
    bool cache_hit = false;
    if (cache_on) {
      const auto tc0 = Clock::now();
      const std::string key = ResultCache::key(parsed, st->version);
      if (!no_cache_requested(req)) {
        result = cache_->lookup(key, limits);
        cache_hit = result != nullptr;
      }
      ctx.cache_us += us_since(tc0);
      if (result == nullptr) {
        const auto te0 = Clock::now();
        auto fresh = std::make_shared<QueryResult>(
            st->engine->run(parsed.pattern, parsed.where, limits));
        ctx.eval_us = us_since(te0);
        ctx.shards = fresh->shards_used;
        fresh->parse_us = query_parse_us;
        const auto ti0 = Clock::now();
        cache_->insert(key, fresh, limits);
        ctx.cache_us += us_since(ti0);
        result = std::move(fresh);
      }
      ctx.cache = cache_hit ? 1 : 0;
    } else {
      const auto te0 = Clock::now();
      auto fresh = std::make_shared<QueryResult>(
          st->engine->run(parsed.pattern, parsed.where, limits));
      ctx.eval_us = us_since(te0);
      ctx.shards = fresh->shards_used;
      fresh->parse_us = query_parse_us;
      result = std::move(fresh);
    }
    if (stream_requested && result->ok()) {
      const auto ts0 = Clock::now();
      ctx.stop_reason = stop_reason_name(result->stop_reason);
      ctx.plan =
          result->executed != nullptr ? to_text(*result->executed) : "";
      // Same spelling guarantee reecho_pattern_texts gives the buffered
      // path: echo THIS request's text, not the cache populator's.
      std::string pattern_text =
          result->parsed != nullptr ? to_text(*result->parsed) : "";
      std::string optimized_text = ctx.plan;
      if (cache_hit && pattern_text != to_text(*parsed.pattern)) {
        pattern_text = to_text(*parsed.pattern);
        PatternPtr executed = parsed.pattern;
        if (st->engine->options().optimize) {
          executed = optimize(parsed.pattern, st->engine->cost_model(),
                              st->engine->options().optimizer)
                         .pattern;
        }
        optimized_text = to_text(*executed);
      }
      HttpResponse resp;
      resp.content_type = "application/x-ndjson";
      if (cache_on) set_cache_header(resp, cache_hit);
      resp.streamer = [result, query_text, pattern_text, optimized_text,
                       render_limit](ChunkedWriter& w) {
        // One chunk for the header, one per instance group, one summary —
        // a huge incident set never materializes as a single buffer.
        JsonValue head;
        head.set("query", query_text);
        head.set("pattern", pattern_text);
        head.set("optimized", optimized_text);
        head.set("instances", result->incidents.groups().size());
        head.set("total", result->total());
        head.set("complete", result->complete());
        head.set("stop_reason",
                 std::string(stop_reason_name(result->stop_reason)));
        if (!w.write_chunk(head.dump() + "\n")) return;
        std::size_t rendered = 0;
        for (const IncidentSet::Group& g : result->incidents.groups()) {
          if (rendered >= render_limit || w.failed()) break;
          JsonArray incidents;
          for (const Incident& o : g.incidents) {
            if (rendered >= render_limit) break;
            JsonArray positions;
            for (const IsLsn n : o.positions()) {
              positions.emplace_back(static_cast<std::int64_t>(n));
            }
            incidents.emplace_back(std::move(positions));
            ++rendered;
          }
          JsonValue group;
          group.set("wid", static_cast<std::int64_t>(g.wid));
          group.set("incidents", std::move(incidents));
          if (!w.write_chunk(group.dump() + "\n")) return;
        }
        JsonValue tail;
        tail.set("rendered", rendered);
        tail.set("render_truncated", rendered < result->total());
        JsonValue timings;
        timings.set("parse_us", result->parse_us);
        timings.set("optimize_us", result->optimize_us);
        timings.set("eval_us", result->eval_us);
        tail.set("timings", std::move(timings));
        w.write_chunk(tail.dump() + "\n");
      };
      ctx.serialize_us = us_since(ts0);
      return resp;
    }
    // Plan rendering for the slow capture counts as serialization work,
    // and so does tearing down the rendered JSON tree and (when the
    // cache didn't take ownership) the result itself — both scale with
    // the response and would otherwise be an untimed gap in the
    // breakdown.
    const auto ts0 = Clock::now();
    ctx.stop_reason = stop_reason_name(result->stop_reason);
    ctx.plan = result->executed != nullptr ? to_text(*result->executed) : "";
    HttpResponse resp;
    {
      JsonValue out;
      out.set("query", query_text);
      JsonValue rendered = render_result(*result, render_limit);
      if (cache_hit) {
        reecho_pattern_texts(rendered, parsed, *st->engine, *result);
      }
      for (auto& [k, v] : rendered.members()) {
        out.set(k, std::move(v));
      }
      resp = HttpResponse::json(200, out.dump());
    }
    result.reset();
    if (cache_on) set_cache_header(resp, cache_hit);
    ctx.serialize_us = us_since(ts0);
    return resp;
  } catch (const ParseError& e) {
    return HttpResponse::error(400, e.what());
  } catch (const QueryError& e) {
    return HttpResponse::error(400, e.what());
  }
}

namespace {

/// Batch requests land in the access log under a synthetic "query" field:
/// the first texts joined, capped so a 1000-query batch cannot bloat the
/// slow-capture ring.
std::string batch_query_label(const std::vector<std::string>& texts) {
  std::string label;
  for (const std::string& t : texts) {
    if (!label.empty()) label += " ; ";
    if (label.size() + t.size() > 256) {
      label += "... (+" + std::to_string(texts.size()) + " queries)";
      break;
    }
    label += t;
  }
  return label;
}

/// First non-clean stop reason across the batch (the shared guard trips
/// for every slot at once, so "first" is representative).
const char* batch_stop_reason(const std::vector<QueryResult>& results) {
  for (const QueryResult& r : results) {
    if (r.ok() && r.stop_reason != StopReason::kNone) {
      return stop_reason_name(r.stop_reason);
    }
  }
  return stop_reason_name(StopReason::kNone);
}

}  // namespace

HttpResponse QueryService::handle_batch(const HttpRequest& req,
                                        RequestContext& ctx) {
  const auto t0 = Clock::now();
  mark_spans(ctx);
  std::vector<std::string> texts;
  RunLimits limits;
  std::size_t render_limit = options_.default_render_limit;
  try {
    const JsonValue body = parse_json(req.body);
    const JsonValue* queries = body.find("queries");
    if (queries == nullptr || !queries->is_array() ||
        queries->as_array().empty()) {
      throw Error(
          "body must be an object with a nonempty \"queries\" array");
    }
    for (const JsonValue& q : queries->as_array()) {
      if (!q.is_string()) throw Error("\"queries\" must hold strings");
      texts.push_back(q.as_string());
    }
    limits = limits_from(body);
    render_limit = read_size(body, "limit", options_.default_render_limit);
  } catch (const std::exception& e) {
    ctx.parse_us = us_since(t0);
    return HttpResponse::error(400, e.what());
  }
  ctx.parse_us = us_since(t0);
  ctx.query = batch_query_label(texts);

  const auto st = state();
  JsonValue out;
  JsonArray results;
  if (st->engine == nullptr) {
    // Empty log: every query parses (for its error slot) over no data.
    for (const std::string& text : texts) {
      JsonValue slot;
      try {
        Query::parse(text);
        slot.set("total", 0);
        slot.set("complete", true);
        slot.set("incidents", JsonArray{});
      } catch (const std::exception& e) {
        slot.set("error", std::string(e.what()));
      }
      results.emplace_back(std::move(slot));
    }
    out.set("results", std::move(results));
    return HttpResponse::json(200, out.dump());
  }

  const bool cache_on = cache_ != nullptr && cache_->enabled();
  if (!cache_on) {
    const auto te0 = Clock::now();
    const BatchResult batch =
        st->engine->run_batch(texts, /*threads (ignored)=*/1,
                              /*use_cache=*/true, limits);
    ctx.eval_us = us_since(te0);
    ctx.shards = st->engine->shards();
    ctx.stop_reason = batch_stop_reason(batch.results);
    const auto ts0 = Clock::now();
    for (const QueryResult& r : batch.results) {
      results.emplace_back(render_result(r, render_limit));
    }
    out.set("results", std::move(results));

    JsonValue stats;
    stats.set("queries", batch.stats.plan.num_queries);
    stats.set("total_nodes", batch.stats.plan.total_nodes);
    stats.set("distinct_slots", batch.stats.plan.distinct_slots);
    stats.set("shared_nodes", batch.stats.plan.shared_nodes());
    stats.set("cache_hits", static_cast<std::int64_t>(batch.cache_hits()));
    stats.set("cache_misses",
              static_cast<std::int64_t>(batch.cache_misses()));
    stats.set("threads_used", batch.stats.threads_used);
    stats.set("eval_us", batch.eval_us);
    out.set("stats", std::move(stats));
    HttpResponse resp = HttpResponse::json(200, out.dump());
    ctx.serialize_us = us_since(ts0);
    return resp;
  }

  // Cached path: serve each slot from the cache when possible; the misses
  // still go through ONE run_batch call so intra-batch canonical sharing
  // is preserved among them. Slot rendering is identical to the uncached
  // path (render_result), so answers are bit-identical either way; only
  // the "stats" block shrinks to describe the pass that actually ran.
  const bool bypass = no_cache_requested(req);
  std::vector<std::shared_ptr<const QueryResult>> slots(texts.size());
  std::vector<std::string> keys(texts.size());
  std::vector<std::optional<Query>> hit_query(texts.size());
  std::vector<Query> miss_queries;
  std::vector<std::size_t> miss_index;
  std::size_t served_hits = 0;
  const auto tc0 = Clock::now();
  for (std::size_t i = 0; i < texts.size(); ++i) {
    try {
      Query q = Query::parse(texts[i]);
      keys[i] = ResultCache::key(q, st->version);
      if (!bypass) slots[i] = cache_->lookup(keys[i], limits);
      if (slots[i] != nullptr) {
        ++served_hits;
        hit_query[i] = std::move(q);
      } else {
        miss_index.push_back(i);
        miss_queries.push_back(std::move(q));
      }
    } catch (const std::exception& e) {
      // Same error-slot isolation (and message) the text overload of
      // run_batch produces; parse failures are never cached.
      auto err = std::make_shared<QueryResult>();
      err->error = e.what();
      slots[i] = std::move(err);
    }
  }
  ctx.cache_us += us_since(tc0);

  BatchResult batch;
  if (!miss_queries.empty()) {
    const auto te0 = Clock::now();
    batch = st->engine->run_batch(std::span<const Query>(miss_queries),
                                  /*threads (ignored)=*/1,
                                  /*use_cache=*/true, limits);
    ctx.eval_us = us_since(te0);
    ctx.shards = st->engine->shards();
    const auto ti0 = Clock::now();
    for (std::size_t j = 0; j < miss_index.size(); ++j) {
      auto r = std::make_shared<QueryResult>(std::move(batch.results[j]));
      cache_->insert(keys[miss_index[j]], r, limits);
      slots[miss_index[j]] = std::move(r);
    }
    ctx.cache_us += us_since(ti0);
  }
  ctx.cache = served_hits == texts.size() ? 1 : 0;
  for (const auto& slot : slots) {
    if (slot != nullptr && slot->ok() &&
        slot->stop_reason != StopReason::kNone) {
      ctx.stop_reason = stop_reason_name(slot->stop_reason);
      break;
    }
  }
  if (ctx.stop_reason.empty()) {
    ctx.stop_reason = stop_reason_name(StopReason::kNone);
  }

  const auto ts0 = Clock::now();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    JsonValue rendered = render_result(*slots[i], render_limit);
    if (hit_query[i].has_value()) {
      reecho_pattern_texts(rendered, *hit_query[i], *st->engine, *slots[i]);
    }
    results.emplace_back(std::move(rendered));
  }
  out.set("results", std::move(results));

  JsonValue stats;
  stats.set("queries", batch.stats.plan.num_queries);
  stats.set("total_nodes", batch.stats.plan.total_nodes);
  stats.set("distinct_slots", batch.stats.plan.distinct_slots);
  stats.set("shared_nodes", batch.stats.plan.shared_nodes());
  stats.set("cache_hits", static_cast<std::int64_t>(batch.cache_hits()));
  stats.set("cache_misses",
            static_cast<std::int64_t>(batch.cache_misses()));
  stats.set("threads_used", batch.stats.threads_used);
  stats.set("eval_us", batch.eval_us);
  stats.set("result_cache_hits", served_hits);
  stats.set("result_cache_misses", miss_index.size());
  out.set("stats", std::move(stats));
  HttpResponse resp = HttpResponse::json(200, out.dump());
  set_cache_header(resp, served_hits == texts.size());
  ctx.serialize_us = us_since(ts0);
  return resp;
}

HttpResponse QueryService::handle_ingest(const HttpRequest& req,
                                         RequestContext& ctx) {
  const auto t0 = Clock::now();
  mark_spans(ctx);
  JsonValue body;
  try {
    body = parse_json(req.body);
    const JsonValue* events = body.find("events");
    if (events == nullptr || !events->is_array()) {
      throw Error("body must be an object with an \"events\" array");
    }
  } catch (const std::exception& e) {
    ctx.parse_us = us_since(t0);
    return HttpResponse::error(400, e.what());
  }
  ctx.parse_us = us_since(t0);
  const JsonArray& events = body.find("events")->as_array();
  const auto te0 = Clock::now();

  std::lock_guard lock(ingest_mu_);
  if (health_ != nullptr && !health_->writable()) {
    // Degraded mode: reads keep serving the last good snapshot; writes
    // wait for the background recovery to reopen the store.
    const HealthStats hs = health_->stats();
    HttpResponse resp = HttpResponse::error(
        503, "ingest unavailable: store " + std::string(to_string(hs.state)) +
                 (hs.last_error.empty() ? "" : " (" + hs.last_error + ")"));
    resp.extra_headers.emplace_back(
        "retry-after", std::to_string(health_->retry_after_seconds()));
    return resp;
  }
  if (!ingest_enabled_) {
    return HttpResponse::error(409,
                               "ingest disabled: " + ingest_disabled_reason());
  }

  last_bad_.clear();
  last_bad_dropped_ = 0;
  std::size_t applied = 0;
  JsonArray new_wids;
  std::string abort_error;
  int abort_status = 0;
  // Matches drained after each DURABLY applied event; routed to standing
  // subscriptions once the new snapshot is published. Matches of an event
  // whose store mirror failed are deliberately left queued — the degraded
  // gate blocks ingest until recovery rebuilds the monitor (wiping them),
  // so a non-durable incident can never be delivered.
  std::vector<LogMonitor::Match> routed;
  const auto collect = [&] {
    std::vector<LogMonitor::Match> batch = monitor_.drain();
    routed.insert(routed.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
  };

  for (const JsonValue& ev : events) {
    try {
      if (!ev.is_object()) throw Error("each event must be an object");
      const JsonValue* op = ev.find("op");
      if (op == nullptr || !op->is_string()) {
        throw Error("each event needs a string \"op\"");
      }
      const std::string& kind = op->as_string();
      const std::size_t bad_before = monitor_.num_bad_events();

      if (kind == "begin") {
        const Wid wid = monitor_.begin_instance();
        if (store_.has_value()) {
          const Wid store_wid = store_->begin_instance();
          if (store_wid != wid) {
            // Recoverable: rebuilding the monitor from the store during
            // recovery realigns the wid sequences.
            throw IoError("monitor/store wid divergence (" +
                          std::to_string(wid) + " vs " +
                          std::to_string(store_wid) + ")");
          }
        }
        new_wids.emplace_back(static_cast<std::int64_t>(wid));
        ++applied;
        collect();
        continue;
      }

      const JsonValue* wid_v = ev.find("wid");
      if (wid_v == nullptr || !wid_v->is_number() || wid_v->as_int() <= 0) {
        throw Error("\"" + kind + "\" event needs a positive \"wid\"");
      }
      const Wid wid = static_cast<Wid>(wid_v->as_int());

      if (kind == "record") {
        const JsonValue* act = ev.find("activity");
        if (act == nullptr || !act->is_string()) {
          throw Error("\"record\" event needs a string \"activity\"");
        }
        const NamedAttrs in = to_named_attrs(ev.find("in"));
        const NamedAttrs out = to_named_attrs(ev.find("out"));
        monitor_.record(wid, act->as_string(), in, out);
        if (monitor_.num_bad_events() == bad_before) {
          if (store_.has_value()) store_->record(wid, act->as_string(), in, out);
          ++applied;
          collect();
        }
      } else if (kind == "end") {
        monitor_.end_instance(wid);
        if (monitor_.num_bad_events() == bad_before) {
          if (store_.has_value()) store_->end_instance(wid);
          ++applied;
          collect();
        }
      } else {
        throw Error("unknown event op \"" + kind + "\"");
      }
    } catch (const IoError& e) {
      // The durable mirror failed: the monitor and the store no longer
      // agree, so stop accepting writes rather than silently diverging.
      // With a health monitor this is the degraded-mode trigger — reads
      // keep working, recovery probes start, and the client gets a
      // retryable 503; without one (store-less constructor failure modes)
      // it stays the permanent 500 it always was.
      abort_error = e.what();
      if (health_ != nullptr) {
        health_->degrade(std::string("store append failed: ") + e.what());
        // Pause standing-query delivery (events stay queued and acked
        // cursors stay put); recovery reattaches and resumes.
        subs_.set_paused(true);
        abort_status = 503;
      } else {
        set_ingest_disabled(std::string("store append failed: ") + e.what());
        abort_status = 500;
      }
      break;
    } catch (const std::exception& e) {
      // Bad event under kReject, or a malformed event object: abort the
      // rest of the request; prior events stay applied.
      abort_error = e.what();
      abort_status = 400;
      break;
    }
  }

  if (applied > 0) {
    const std::uint64_t old_version = version_seq_;
    rebuild_state();
    route_matches(routed, state(), old_version);
  }
  ctx.eval_us = us_since(te0);  // monitor+store appends + snapshot rebuild

  const auto ts0 = Clock::now();
  JsonValue out;
  out.set("applied", applied);
  out.set("wids", std::move(new_wids));
  JsonArray bad;
  for (const BadEvent& e : last_bad_) {
    JsonValue b;
    b.set("wid", static_cast<std::int64_t>(e.wid));
    b.set("activity", e.activity);
    b.set("reason", e.reason);
    bad.emplace_back(std::move(b));
  }
  out.set("bad_events", std::move(bad));
  out.set("bad_events_dropped", last_bad_dropped_);
  out.set("records", monitor_.num_records());
  if (abort_status != 0) {
    out.set("error", abort_error);
    HttpResponse resp = HttpResponse::json(abort_status, out.dump());
    if (abort_status == 503 && health_ != nullptr) {
      resp.extra_headers.emplace_back(
          "retry-after", std::to_string(health_->retry_after_seconds()));
    }
    ctx.serialize_us = us_since(ts0);
    return resp;
  }
  HttpResponse resp = HttpResponse::json(200, out.dump());
  ctx.serialize_us = us_since(ts0);
  return resp;
}

HttpResponse QueryService::handle_subscribe(const HttpRequest& req,
                                            RequestContext& ctx) {
  const auto t0 = Clock::now();
  mark_spans(ctx);
  std::string query_text;
  RunLimits limits;
  try {
    const JsonValue body = parse_json(req.body);
    const JsonValue* q = body.find("query");
    if (q == nullptr || !q->is_string()) {
      throw Error("body must be an object with a string \"query\"");
    }
    query_text = q->as_string();
    limits = limits_from(body);
  } catch (const std::exception& e) {
    ctx.parse_us = us_since(t0);
    return HttpResponse::error(400, e.what());
  }
  Query parsed;
  try {
    parsed = Query::parse(query_text);
  } catch (const std::exception& e) {
    ctx.parse_us = us_since(t0);
    return HttpResponse::error(400, e.what());
  }
  ctx.query = query_text;
  ctx.canonical_key = canonical_key(*parsed.pattern);
  ctx.parse_us = us_since(t0);

  std::lock_guard lock(ingest_mu_);
  if (health_ != nullptr && !health_->writable()) {
    // Degraded: the monitor may hold the one event whose durable mirror
    // failed. Backfilling from it would misalign fed_raw against the
    // durable replay recovery performs — register after recovery.
    HttpResponse resp = HttpResponse::error(
        503, "subscribe unavailable: store is not writable");
    resp.extra_headers.emplace_back(
        "retry-after", std::to_string(health_->retry_after_seconds()));
    return resp;
  }
  if (!ingest_enabled_) {
    return HttpResponse::error(
        409, "subscribe disabled: " + ingest_disabled_reason());
  }
  if (subs_.size() >= subs_.options().max_subscriptions) {
    return HttpResponse::error(503, "subscription capacity reached");
  }

  // Registration replays retained history through the fresh query under
  // the request's own budget — a standing query starts with the exact
  // match set a batch /query would report right now.
  const auto te0 = Clock::now();
  EvalGuard guard(limits.deadline, limits.max_incidents, limits.cancel);
  std::size_t qid = 0;
  try {
    qid = monitor_.add_query(parsed.pattern, &guard);
  } catch (const Error& e) {
    // Backfill tripped the budget; the monitor rolled the query back.
    return HttpResponse::error(503, e.what());
  }
  std::vector<LogMonitor::Match> raw = monitor_.drain(qid);
  ctx.eval_us = us_since(te0);

  const auto st = state();
  std::vector<std::string> events;
  events.reserve(raw.size());
  if (st->engine != nullptr) {
    for (const LogMonitor::Match& m : raw) {
      std::string json =
          render_sub_event(parsed, m.incident, st->engine->index());
      if (!json.empty()) events.push_back(std::move(json));
    }
  }
  const std::size_t matched = events.size();
  auto sub =
      subs_.create(query_text, parsed, canonical_key(*parsed.pattern), qid,
                   raw.size(), std::move(events));
  if (sub == nullptr) {
    monitor_.remove_query(qid);
    return HttpResponse::error(503, "subscription capacity reached");
  }

  const auto ts0 = Clock::now();
  JsonValue out;
  out.set("id", sub->id);
  out.set("query", query_text);
  out.set("matched", matched);
  out.set("next_after", 0);
  HttpResponse resp = HttpResponse::json(201, out.dump());
  ctx.serialize_us = us_since(ts0);
  return resp;
}

namespace {

/// Strict non-negative decimal; false on junk or overflow.
bool parse_nonneg(const std::string& s, std::int64_t& out) {
  if (s.empty()) return false;
  std::int64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (INT64_MAX - (c - '0')) / 10) return false;
    v = v * 10 + (c - '0');
  }
  out = v;
  return true;
}

}  // namespace

HttpResponse QueryService::handle_subscription(const HttpRequest& req,
                                               RequestContext& ctx) {
  const auto t0 = Clock::now();
  mark_spans(ctx);
  constexpr std::string_view kPrefix = "/subscribe/";
  const std::string id = req.target.substr(kPrefix.size());
  if (id.empty() || id.find('/') != std::string::npos) {
    ctx.parse_us = us_since(t0);
    return HttpResponse::error(404, "no such subscription");
  }

  if (req.method == "DELETE") {
    ctx.parse_us = us_since(t0);
    std::lock_guard lock(ingest_mu_);
    const auto sub = subs_.find(id);
    if (sub == nullptr) {
      return HttpResponse::error(404, "no such subscription: " + id);
    }
    monitor_.remove_query(sub->monitor_id);
    subs_.close(id, "unsubscribed");
    JsonValue out;
    out.set("id", id);
    out.set("closed", true);
    return HttpResponse::json(200, out.dump());
  }

  // GET: long-poll by default, chunked stream with ?stream=1. ?after=N
  // acknowledges (releases) events with seq <= N first — the consumer's
  // exactly-once cursor.
  std::uint64_t after = 0;
  std::int64_t wait_ms = 0;
  std::size_t max_events = 0;
  bool stream = false;
  std::int64_t heartbeat_ms = options_.subscribe_heartbeat_ms;
  {
    std::int64_t v = 0;
    if (const auto p = req.query_param("after")) {
      if (!parse_nonneg(*p, v)) {
        return HttpResponse::error(400, "\"after\" must be a non-negative "
                                        "integer");
      }
      after = static_cast<std::uint64_t>(v);
    }
    if (const auto p = req.query_param("wait_ms")) {
      if (!parse_nonneg(*p, v)) {
        return HttpResponse::error(400, "\"wait_ms\" must be a non-negative "
                                        "integer");
      }
      wait_ms = v;
    }
    if (const auto p = req.query_param("max")) {
      if (!parse_nonneg(*p, v)) {
        return HttpResponse::error(400,
                                   "\"max\" must be a non-negative integer");
      }
      max_events = static_cast<std::size_t>(v);
    }
    if (const auto p = req.query_param("heartbeat_ms")) {
      if (!parse_nonneg(*p, v)) {
        return HttpResponse::error(400, "\"heartbeat_ms\" must be a "
                                        "non-negative integer");
      }
      heartbeat_ms = v;
    }
    if (const auto p = req.query_param("stream")) {
      stream = *p != "0" && *p != "false";
    }
  }
  wait_ms = std::clamp<std::int64_t>(wait_ms, 0,
                                     options_.subscribe_wait_cap_ms);
  ctx.parse_us = us_since(t0);

  if (stream) {
    if (subs_.find(id) == nullptr) {
      return HttpResponse::error(404, "no such subscription: " + id);
    }
    HttpResponse resp;
    resp.status = 200;
    resp.content_type = "application/x-ndjson";
    const std::int64_t beat = heartbeat_ms;
    resp.streamer = [this, id, after, beat](ChunkedWriter& w) {
      const auto on_event = [&](const SubEvent& e) {
        return w.write_chunk("{\"type\":\"incident\",\"seq\":" +
                             std::to_string(e.seq) + "," + e.json + "}\n");
      };
      const auto on_heartbeat = [&] {
        return w.write_chunk("{\"type\":\"heartbeat\"}\n");
      };
      const auto interrupted = [&] {
        return delivery_interrupted() || w.failed();
      };
      const std::string reason =
          subs_.stream(id, after, beat, on_event, on_heartbeat, interrupted);
      w.write_chunk("{\"type\":\"end\",\"reason\":\"" + reason + "\"}\n");
    };
    return resp;
  }

  const SubPollResult res =
      subs_.poll(id, after, wait_ms, max_events,
                 [this] { return delivery_interrupted(); });
  if (!res.found) {
    return HttpResponse::error(404, "no such subscription: " + id);
  }
  const auto ts0 = Clock::now();
  // Events carry pre-rendered JSON bodies; assemble the response directly.
  std::string body = "{\"id\":\"" + id + "\",\"events\":[";
  bool first = true;
  for (const SubEvent& e : res.events) {
    if (!first) body += ',';
    first = false;
    body += "{\"seq\":" + std::to_string(e.seq) + "," + e.json + "}";
  }
  body += "],\"next_after\":" + std::to_string(res.next_after);
  body += ",\"pending\":" + std::to_string(res.pending_left);
  body += std::string(",\"paused\":") + (res.paused ? "true" : "false");
  body += std::string(",\"closed\":") + (res.closed ? "true" : "false");
  if (res.closed) {
    body += ",\"reason\":\"" +
            (res.close_reason.empty() ? std::string("closed")
                                      : res.close_reason) +
            "\"";
  }
  body += "}";
  HttpResponse resp = HttpResponse::json(200, std::move(body));
  ctx.serialize_us = us_since(ts0);
  return resp;
}

HttpResponse QueryService::handle_metrics(const HttpRequest&) const {
  obs::Telemetry* t = obs::telemetry();
  if (t == nullptr) {
    return HttpResponse::error(503, "telemetry is not installed");
  }
  std::string text = to_prometheus_text(t->metrics.snapshot());
  if (observer_ != nullptr) {
    // Fold in the request observer's labeled per-endpoint and
    // per-canonical-key latency histograms.
    text += observer_->prometheus_text();
  }
  HttpResponse resp = HttpResponse::text(200, std::move(text));
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  return resp;
}

HttpResponse QueryService::handle_stats(const HttpRequest&) const {
  JsonValue out;
  const auto st = state();
  out.set("records", st->log.has_value() ? st->log->size() : 0);
  out.set("instances",
          st->log.has_value() ? st->log->wids().size() : 0);
  out.set("ingest_enabled", ingest_enabled_.load());
  out.set("ingest_disabled_reason", ingest_disabled_reason());
  out.set("snapshot_version", static_cast<std::int64_t>(st->version));
  {
    const SubscribeStats ss = subs_.stats();
    JsonValue s;
    s.set("active", ss.active);
    s.set("streams", ss.streams);
    s.set("pending_events", ss.pending);
    s.set("paused", ss.paused);
    s.set("created", static_cast<std::int64_t>(ss.created_total));
    s.set("delivered", static_cast<std::int64_t>(ss.delivered_total));
    s.set("acked", static_cast<std::int64_t>(ss.acked_total));
    s.set("heartbeats", static_cast<std::int64_t>(ss.heartbeats_total));
    s.set("overflow_dropped",
          static_cast<std::int64_t>(ss.overflow_dropped));
    s.set("cache_repairs",
          static_cast<std::int64_t>(cache_repairs_.load()));
    out.set("subscriptions", std::move(s));
  }
  {
    // Sharded evaluation: the configured request (0 = hw concurrency),
    // what it resolved to against this snapshot, and the scatter tallies.
    JsonValue sh;
    sh.set("configured",
           static_cast<std::int64_t>(options_.engine.shards));
    sh.set("effective",
           static_cast<std::int64_t>(
               st->engine != nullptr ? st->engine->shards() : 0));
    sh.set("pool_workers",
           static_cast<std::int64_t>(
               st->engine != nullptr && st->engine->shard_pool() != nullptr
                   ? st->engine->shard_pool()->workers()
                   : 0));
    WFLOG_TELEMETRY(t) {
      sh.set("evals", static_cast<std::int64_t>(t->shard_evals_total->value()));
      sh.set("tasks", static_cast<std::int64_t>(t->shard_tasks_total->value()));
      sh.set("cancelled",
             static_cast<std::int64_t>(t->shard_cancelled_total->value()));
    }
    out.set("shards", std::move(sh));
  }
  if (cache_ != nullptr) {
    const CacheStats cs = cache_->stats();
    JsonValue c;
    c.set("enabled", cache_->enabled());
    c.set("hits", static_cast<std::int64_t>(cs.hits));
    c.set("misses", static_cast<std::int64_t>(cs.misses));
    c.set("insertions", static_cast<std::int64_t>(cs.insertions));
    c.set("evictions", static_cast<std::int64_t>(cs.evictions));
    c.set("limit_rejects", static_cast<std::int64_t>(cs.limit_rejects));
    c.set("entries", cs.entries);
    c.set("bytes", cs.bytes);
    c.set("max_bytes", cs.max_bytes);
    out.set("cache", std::move(c));
  } else {
    out.set("cache", JsonValue(nullptr));
  }
  if (store_.has_value()) {
    // The store's segment list and zone maps grow during ingest; reading
    // them unlocked races with flush_pending_block's push_backs, so the
    // whole store snapshot sits under ingest_mu_. A stats call may wait
    // behind an in-flight batch, never behind an idle server.
    std::lock_guard lock(ingest_mu_);
    JsonValue s;
    s.set("directory", store_->directory().string());
    s.set("records", store_->num_records());
    s.set("segments", store_->num_segments());
    const LogStore::StorageStats ss = store_->storage_stats();
    JsonValue storage;
    storage.set("segments_v1", static_cast<std::int64_t>(ss.segments_v1));
    storage.set("segments_v2", static_cast<std::int64_t>(ss.segments_v2));
    storage.set("sealed_blocks",
                static_cast<std::int64_t>(ss.sealed_blocks));
    storage.set("compressed_payload_bytes",
                static_cast<std::int64_t>(ss.compressed_payload_bytes));
    storage.set("uncompressed_payload_bytes",
                static_cast<std::int64_t>(ss.uncompressed_payload_bytes));
    storage.set("blocks_read", static_cast<std::int64_t>(ss.blocks_read));
    storage.set("blocks_skipped",
                static_cast<std::int64_t>(ss.blocks_skipped));
    s.set("storage", std::move(storage));
    out.set("store", std::move(s));
  } else {
    out.set("store", JsonValue(nullptr));
  }
  if (health_ != nullptr) {
    const HealthStats hs = health_->stats();
    JsonValue h;
    h.set("state", to_string(hs.state));
    h.set("writable", health_->writable());
    h.set("transitions", static_cast<std::int64_t>(hs.transitions));
    h.set("degradations", static_cast<std::int64_t>(hs.degradations));
    h.set("recovery_attempts", static_cast<std::int64_t>(hs.attempts));
    h.set("recoveries", static_cast<std::int64_t>(hs.recoveries));
    h.set("gave_up", hs.gave_up);
    h.set("last_error", hs.last_error);
    out.set("health", std::move(h));
  } else {
    out.set("health", JsonValue(nullptr));
  }
  if (server_ != nullptr) {
    const ServerStats stats = server_->stats();
    JsonValue s;
    s.set("accepted", static_cast<std::int64_t>(stats.accepted));
    s.set("served", static_cast<std::int64_t>(stats.served));
    s.set("rejected", static_cast<std::int64_t>(stats.rejected));
    s.set("bad_requests", static_cast<std::int64_t>(stats.bad_requests));
    s.set("dropped_responses",
          static_cast<std::int64_t>(stats.dropped_responses));
    s.set("queue_depth", static_cast<std::int64_t>(stats.queue_depth));
    s.set("lane_served", static_cast<std::int64_t>(stats.lane_served));
    s.set("draining", server_->draining());
    out.set("server", std::move(s));
  }
  out.set("observability",
          observer_ != nullptr ? observer_->stats_json() : JsonValue(nullptr));
  return HttpResponse::json(200, out.dump());
}

HttpResponse QueryService::handle_healthz(const HttpRequest& req) const {
  const HealthState hstate =
      health_ != nullptr ? health_->state() : HealthState::kHealthy;
  // Plain fast path for load-balancer probes: always 200 (the process is
  // alive and still answering reads), body names the state so a plain
  // probe sees degradation too. Readiness detail is opt-in via Accept.
  if (req.header("accept").find("application/json") == std::string_view::npos) {
    return HttpResponse::text(200, hstate == HealthState::kHealthy
                                       ? "ok\n"
                                       : std::string(to_string(hstate)) + "\n");
  }
  const auto st = state();
  const bool draining = server_ != nullptr && server_->draining();
  JsonValue out;
  out.set("status", hstate == HealthState::kHealthy ? "ok"
                                                    : to_string(hstate));
  out.set("ready", !draining);
  out.set("draining", draining);
  out.set("snapshot_version", static_cast<std::int64_t>(st->version));
  out.set("records", st->log.has_value() ? st->log->size() : 0);
  out.set("queue_depth",
          server_ != nullptr
              ? JsonValue(static_cast<std::int64_t>(
                    server_->stats().queue_depth))
              : JsonValue(nullptr));
  out.set("ingest_enabled", ingest_enabled_.load());
  if (health_ != nullptr) {
    const HealthStats hs = health_->stats();
    JsonValue h;
    h.set("state", to_string(hs.state));
    h.set("writable", health_->writable());
    h.set("transitions", static_cast<std::int64_t>(hs.transitions));
    h.set("degradations", static_cast<std::int64_t>(hs.degradations));
    h.set("recovery_attempts", static_cast<std::int64_t>(hs.attempts));
    h.set("recoveries", static_cast<std::int64_t>(hs.recoveries));
    h.set("gave_up", hs.gave_up);
    h.set("last_error", hs.last_error);
    h.set("next_backoff_ms",
          static_cast<std::int64_t>(hs.next_backoff.count()));
    out.set("health", std::move(h));
  } else {
    out.set("health", JsonValue(nullptr));
  }
  return HttpResponse::json(200, out.dump());
}

HttpResponse QueryService::handle_version(const HttpRequest&) const {
  JsonValue out;
  out.set("server", "wfqd");
  out.set("version", WFLOG_VERSION_STRING);
  out.set("obs_enabled", WFLOG_OBS_ENABLED != 0);
#if defined(__clang__)
  out.set("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  out.set("compiler", "gcc " __VERSION__);
#else
  out.set("compiler", "unknown");
#endif
  out.set("cxx_standard", static_cast<std::int64_t>(__cplusplus));
  return HttpResponse::json(200, out.dump());
}

HttpResponse QueryService::handle_debug_requests(const HttpRequest&) const {
  if (observer_ == nullptr) {
    return HttpResponse::error(
        404, "request observability is not enabled on this server");
  }
  return HttpResponse::json(200, observer_->requests_json().dump());
}

HttpResponse QueryService::handle_debug_slow(const HttpRequest&) const {
  if (observer_ == nullptr) {
    return HttpResponse::error(
        404, "request observability is not enabled on this server");
  }
  return HttpResponse::json(200, observer_->slow_json().dump());
}

}  // namespace wflog::server
