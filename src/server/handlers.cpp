#include "server/handlers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <optional>
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

// One QueryResult renders in three pieces: the head (echo texts and the
// answer summary), one object per instance group, and the tail (how much
// was rendered, timings). A buffered /query body or /batch slot is all
// three in one object; a streamed /query sends the same fields as NDJSON
// chunks — head, each group, tail. `limit` caps rendered incidents (the
// response size), never the evaluation: "total" always reports the full
// count.

/// Appends the head: "error" alone for an error slot, else the answer
/// summary.
void render_head(JsonValue& out, const QueryResult& r) {
  if (!r.ok()) {
    out.set("error", r.error);
    return;
  }
  out.set("pattern", r.parsed != nullptr ? to_text(*r.parsed) : "");
  out.set("optimized", r.executed != nullptr ? to_text(*r.executed) : "");
  out.set("instances", r.incidents.groups().size());
  out.set("total", r.total());
  out.set("complete", r.complete());
  out.set("stop_reason", std::string(stop_reason_name(r.stop_reason)));
}

/// Renders r's groups in order while fewer than `limit` incidents are
/// rendered, handing each to `emit` (which returns false to stop early).
/// Returns the number of incidents rendered.
template <typename Emit>
std::size_t render_groups(const QueryResult& r, std::size_t limit,
                          Emit&& emit) {
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
    if (!emit(std::move(group))) break;
  }
  return rendered;
}

/// Appends the tail.
void render_tail(JsonValue& out, const QueryResult& r, std::size_t rendered) {
  out.set("rendered", rendered);
  out.set("render_truncated", rendered < r.total());
  JsonValue timings;
  timings.set("parse_us", r.parse_us);
  timings.set("optimize_us", r.optimize_us);
  timings.set("eval_us", r.eval_us);
  out.set("timings", std::move(timings));
}

/// Appends the buffered rest of an ok result after its head: every
/// rendered group under "incidents", then the tail.
void render_body(JsonValue& out, const QueryResult& r, std::size_t limit) {
  JsonArray groups;
  const std::size_t rendered =
      render_groups(r, limit, [&groups](JsonValue group) {
        groups.emplace_back(std::move(group));
        return true;
      });
  out.set("incidents", std::move(groups));
  render_tail(out, r, rendered);
}

/// Strict integer read of a client-supplied JSON number: an integer, or a
/// double with no fractional part inside int64's range (1e3 is 1000).
/// Nullopt for anything else — never a truncation (-0.5 is not 0) and
/// never an out-of-range float-to-int cast (1e300).
std::optional<std::int64_t> exact_int(const JsonValue& v) {
  if (v.kind() == JsonValue::Kind::kInt) return v.as_int();
  if (v.kind() != JsonValue::Kind::kDouble) return std::nullopt;
  const double d = v.as_double();
  // [-2^63, 2^63): both bounds are exact doubles, and NaN fails both.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (!(d >= -kTwo63 && d < kTwo63) || d != std::trunc(d)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(d);
}

/// body[key] as a non-negative integer; nullopt when absent or null.
std::optional<std::int64_t> read_nonneg(const JsonValue& body,
                                        std::string_view key) {
  const JsonValue* v = body.find(key);
  if (v == nullptr || v->is_null()) return std::nullopt;
  const std::optional<std::int64_t> n = exact_int(*v);
  if (!n.has_value() || *n < 0) {
    throw Error("\"" + std::string(key) +
                "\" must be a non-negative integer");
  }
  return n;
}

std::size_t read_size(const JsonValue& body, std::string_view key,
                      std::size_t fallback) {
  const std::optional<std::int64_t> n = read_nonneg(body, key);
  return n.has_value() ? static_cast<std::size_t>(*n) : fallback;
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
  // Only a durable mirror can fail structurally mid-flight; a store-less
  // service has no degraded mode.
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

  // Initial snapshot straight from the given log (no revalidation); an
  // empty service serves an empty log through the same engine. The
  // monitor continues it without a copy of its records.
  state_ = std::make_shared<const State>(
      std::move(initial).value_or(Log::from_records_unchecked({}, {})),
      options_.engine, version_seq_);
  monitor_ = LogMonitor(state_->log, monitor_options());
}

MonitorOptions QueryService::monitor_options() {
  MonitorOptions mo;
  // The published snapshot holds the log; the monitor only checks events
  // and numbers the records, which it hands over through on_record.
  mo.keep_records = false;
  mo.on_record = [this](const LogRecord& l) { staged_.push_back(l); };
  mo.bad_event_policy = options_.bad_event_policy;
  mo.quarantine_capacity = options_.quarantine_capacity;
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

bool QueryService::delivery_interrupted() const {
  return (server_ != nullptr && server_->draining()) ||
         (drain_ && drain_->load());
}

bool QueryService::recover_store(std::string* error) {
  std::lock_guard lock(ingest_mu_);
  if (!store_.has_value()) {
    if (error != nullptr) *error = "no store to recover";
    return false;
  }
  try {
    // Reopen from what is durably on disk (quarantining any corrupt
    // suffix) and publish it: acked records were fsynced before they were
    // acked, so they all survive. The monitor is re-seeded from it, which
    // drops the one unacked event that triggered the degrade (applied to
    // the monitor but never to the store, never reported "applied") and
    // heals any monitor/store divergence.
    store_->reopen_in_place();
    publish(store_->load());  // strictly newer snapshot version
    monitor_ = LogMonitor(state()->log, monitor_options());
    last_bad_.clear();
    last_bad_dropped_ = 0;
    // Reconcile delivery against the durable snapshot (fed_raw skips the
    // already-routed prefix), then resume.
    resync_subscriptions();
    subs_.set_paused(false);
    return true;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

std::vector<Incident> QueryService::standing_matches(
    const State& st, const Pattern& pattern, std::span<const Wid> wids,
    const State* before, const EvalGuard* guard, IncidentSet* full) {
  // Definition 4: an incident never leaves its instance, so what a record
  // adds to inc_L(p) is found by evaluating its instance again — with the
  // engine's evaluator, so standing answers are batch answers.
  const LogIndex& index = st.engine->index();
  const Evaluator ev(index, st.engine->options().eval);
  std::vector<std::pair<Lsn, Incident>> fresh;
  for (const Wid wid : wids) {
    if (guard != nullptr && guard->check()) break;
    const std::size_t seen =
        before != nullptr ? before->engine->index().instance_length(wid) : 0;
    const std::span<const Incident> list =
        ev.evaluate_instance(pattern, wid, nullptr, nullptr, guard);
    for (const Incident& o : list) {
      if (o.last() > seen) {
        fresh.emplace_back(index.find(wid, o.last())->lsn, o);
      }
    }
    if (full != nullptr && !list.empty()) full->add_group(wid, list);
  }
  // The order a record-at-a-time feed completes them in: by the record
  // that closed each incident, then incident order.
  std::sort(fresh.begin(), fresh.end());
  std::vector<Incident> out;
  out.reserve(fresh.size());
  for (auto& [lsn, o] : fresh) out.push_back(std::move(o));
  return out;
}

std::vector<std::string> QueryService::render_sub_events(
    const Query& parsed, const std::vector<Incident>& raw, std::size_t from,
    const LogIndex& index) {
  std::vector<std::string> events;
  for (std::size_t i = from; i < raw.size(); ++i) {
    const Incident& incident = raw[i];
    if (parsed.where != nullptr) {
      // Filter with the UNOPTIMIZED pattern, exactly like the engine
      // (bindings live on the parsed tree): streamed events and a batch
      // /query of the same text must agree on every incident.
      IncidentSet one;
      one.add_group(incident.wid(), {incident});
      if (filter_where(one, *parsed.pattern, *parsed.where, index, nullptr)
              .empty()) {
        continue;
      }
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
    events.push_back(std::move(json));
  }
  return events;
}

void QueryService::route_matches(const State& before, const State& st,
                                 const std::vector<Wid>& touched) {
  for (const auto& sub : subs_.live()) {
    IncidentSet spliced;  // the touched instances' whole lists
    const std::vector<Incident> raw = standing_matches(
        st, *sub->parsed.pattern, touched, &before, nullptr, &spliced);
    if (!subs_.enqueue(
            *sub, render_sub_events(sub->parsed, raw, 0, st.engine->index()),
            raw.size())) {
      continue;  // slow-consumer overflow: the registry closed it
    }

    // Incremental cache repair: a complete cached result for this exact
    // query at the pre-ingest version, with the touched instances' lists
    // replaced by their lists now, IS the result at the new version
    // (incremental == batch) — re-insert it under the new key instead of
    // letting the ingest invalidate it.
    if (cache_ == nullptr || !cache_->enabled()) continue;
    RunLimits produced;
    const auto old = cache_->peek(
        ResultCache::key(sub->parsed, before.version), &produced);
    if (old == nullptr || !old->ok() || !old->complete()) continue;
    if (sub->parsed.where != nullptr) {
      spliced = filter_where(spliced, *sub->parsed.pattern,
                             *sub->parsed.where, st.engine->index(), nullptr);
    }
    // Empty: the instance has no incident now.
    std::unordered_map<Wid, std::span<const Incident>> now;
    for (const Wid wid : touched) now.emplace(wid, std::span<const Incident>{});
    for (const IncidentSet::Group& g : spliced.groups()) {
      now[g.wid] = g.incidents;
    }
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
    // Groups in the snapshot's instance order, as the engine emits them;
    // the old groups follow that order too (an ingest only appends).
    const IncidentSet& old_set = old->incidents;
    std::size_t old_group = 0;
    for (const Wid wid : st.log.wids()) {
      std::span<const Incident> list;
      if (old_group < old_set.num_groups() && old_set[old_group].wid == wid) {
        list = old_set[old_group++].incidents;
      }
      if (const auto it = now.find(wid); it != now.end()) list = it->second;
      if (!list.empty()) repaired->incidents.add_group(wid, list);
    }
    cache_->insert(ResultCache::key(sub->parsed, st.version),
                   std::move(repaired), produced);
    ++cache_repairs_;
  }
}

void QueryService::resync_subscriptions() {
  const auto st = state();
  for (const auto& sub : subs_.live()) {
    // The durable snapshot's match sequence starts with exactly the raw
    // matches the subscription already consumed — plus anything that
    // became durable without having been routed yet. No guard: this
    // history was already admitted once.
    const std::vector<Incident> raw = standing_matches(
        *st, *sub->parsed.pattern, st->log.wids(), nullptr, nullptr, nullptr);
    const std::uint64_t seen = sub->fed_raw;
    if (raw.size() < seen) {
      // Defensive: the durable log holds FEWER matches than were routed —
      // only possible if un-fsynced data was lost beyond the single
      // in-flight event recovery guarantees. Realign and carry on.
      sub->fed_raw = raw.size();
      continue;
    }
    subs_.enqueue(*sub,
                  render_sub_events(sub->parsed, raw, seen,
                                    st->engine->index()),
                  raw.size() - seen);
  }
}

std::shared_ptr<const QueryService::State> QueryService::state() const {
  std::lock_guard lock(state_mu_);
  return state_;
}

std::size_t QueryService::num_records() const { return state()->log.size(); }

void QueryService::publish(Log log) {
  auto fresh =
      std::make_shared<const State>(std::move(log), options_.engine,
                                    ++version_seq_);
  std::lock_guard lock(state_mu_);
  state_ = std::move(fresh);
}

RunLimits QueryService::limits_from(const JsonValue& body) const {
  RunLimits limits;
  std::int64_t deadline_ms =
      read_nonneg(body, "deadline_ms").value_or(options_.default_deadline_ms);
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
    // Parse-first: the observability layer attributes the request to its
    // canonical pattern key, the cache keys on it, and run(pattern, where)
    // produces the same result run(text) would (the text overload is parse
    // + this call).
    const auto tq0 = Clock::now();
    Query parsed = Query::parse(query_text);
    const double query_parse_us = us_since(tq0);
    ctx.query = query_text;
    ctx.canonical_key = canonical_key(*parsed.pattern);
    ctx.parse_us = us_since(t0);

    // Cache off is a cache that never hits: no lookup, no insert.
    const bool cache_on = cache_ != nullptr && cache_->enabled();
    std::string key;
    std::shared_ptr<const QueryResult> result;
    if (cache_on) {
      const auto tc0 = Clock::now();
      key = ResultCache::key(parsed, st->version);
      if (!no_cache_requested(req)) result = cache_->lookup(key, limits);
      ctx.cache_us += us_since(tc0);
    }
    const bool cache_hit = result != nullptr;
    if (!cache_hit) {
      const auto te0 = Clock::now();
      auto fresh = std::make_shared<QueryResult>(
          st->engine->run(parsed.pattern, parsed.where, limits));
      ctx.eval_us = us_since(te0);
      ctx.shards = fresh->shards_used;
      fresh->parse_us = query_parse_us;
      if (cache_on) {
        const auto ti0 = Clock::now();
        cache_->insert(key, fresh, limits);
        ctx.cache_us += us_since(ti0);
      }
      result = std::move(fresh);
    }
    if (cache_on) ctx.cache = cache_hit ? 1 : 0;

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
      render_head(out, *result);
      if (cache_hit) reecho_pattern_texts(out, parsed, *st->engine, *result);
      if (stream_requested && result->ok()) {
        // The head, one chunk per instance group, then the tail — a huge
        // incident set never materializes as a single buffer.
        resp.content_type = "application/x-ndjson";
        resp.streamer = [result, head = out.dump() + "\n",
                         render_limit](ChunkedWriter& w) {
          if (!w.write_chunk(head)) return;
          const std::size_t rendered =
              render_groups(*result, render_limit, [&w](JsonValue group) {
                return w.write_chunk(group.dump() + "\n");
              });
          JsonValue tail;
          render_tail(tail, *result, rendered);
          w.write_chunk(tail.dump() + "\n");
        };
      } else {
        if (result->ok()) render_body(out, *result, render_limit);
        resp = HttpResponse::json(200, out.dump());
      }
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

  // One flow for both cache modes: each text is parsed once, and its slot
  // is a cache hit, a parse error, or a miss; the misses go through ONE
  // run_batch call so intra-batch canonical sharing is preserved among
  // them. Cache off is a cache that never hits.
  const auto st = state();
  const bool cache_on = cache_ != nullptr && cache_->enabled();
  const bool lookups = cache_on && !no_cache_requested(req);
  std::vector<std::shared_ptr<const QueryResult>> slots(texts.size());
  std::vector<std::string> keys(texts.size());
  std::vector<std::optional<Query>> hit_query(texts.size());
  std::vector<Query> miss_queries;
  std::vector<std::size_t> miss_index;
  std::size_t served_hits = 0;
  const auto tc0 = Clock::now();
  for (std::size_t i = 0; i < texts.size(); ++i) {
    Query q;
    try {
      q = Query::parse(texts[i]);
    } catch (const std::exception& e) {
      // The error slot (and message) run_batch's text overload produces;
      // parse failures are never cached. With the cache off the slot still
      // rides in the batch as an empty query, so "stats.queries" counts
      // it, as it always has in that mode.
      auto err = std::make_shared<QueryResult>();
      err->error = e.what();
      slots[i] = std::move(err);
      if (!cache_on) {
        miss_index.push_back(i);
        miss_queries.emplace_back();
      }
      continue;
    }
    if (cache_on) {
      keys[i] = ResultCache::key(q, st->version);
      if (lookups) slots[i] = cache_->lookup(keys[i], limits);
      if (slots[i] != nullptr) {
        ++served_hits;
        hit_query[i] = std::move(q);
        continue;
      }
    }
    miss_index.push_back(i);
    miss_queries.push_back(std::move(q));
  }
  if (cache_on) ctx.cache_us += us_since(tc0);

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
      std::shared_ptr<const QueryResult>& slot = slots[miss_index[j]];
      if (slot != nullptr) continue;  // a parse error riding along
      auto r = std::make_shared<QueryResult>(std::move(batch.results[j]));
      if (cache_on) cache_->insert(keys[miss_index[j]], r, limits);
      slot = std::move(r);
    }
    if (cache_on) ctx.cache_us += us_since(ti0);
  }
  if (cache_on) ctx.cache = served_hits == texts.size() ? 1 : 0;
  // First non-clean stop reason across the batch (the shared guard trips
  // for every slot at once, so "first" is representative).
  ctx.stop_reason = stop_reason_name(StopReason::kNone);
  for (const auto& slot : slots) {
    if (slot->ok() && slot->stop_reason != StopReason::kNone) {
      ctx.stop_reason = stop_reason_name(slot->stop_reason);
      break;
    }
  }

  const auto ts0 = Clock::now();
  JsonArray results;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    JsonValue slot;
    render_head(slot, *slots[i]);
    if (hit_query[i].has_value()) {
      reecho_pattern_texts(slot, *hit_query[i], *st->engine, *slots[i]);
    }
    if (slots[i]->ok()) render_body(slot, *slots[i], render_limit);
    results.emplace_back(std::move(slot));
  }
  JsonValue out;
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
  if (cache_on) {
    stats.set("result_cache_hits", served_hits);
    stats.set("result_cache_misses", miss_index.size());
  }
  out.set("stats", std::move(stats));
  HttpResponse resp = HttpResponse::json(200, out.dump());
  if (cache_on) set_cache_header(resp, served_hits == texts.size());
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

  last_bad_.clear();
  last_bad_dropped_ = 0;
  staged_.clear();
  std::size_t applied = 0;
  JsonArray new_wids;
  std::string abort_error;
  int abort_status = 0;
  // The records of DURABLY applied events, taken from the monitor after
  // each one; the next snapshot is the current one plus these. The record
  // of an event whose store mirror failed stays behind in staged_ — the
  // degraded gate blocks ingest until recovery re-seeds the monitor from
  // the store, so a non-durable record is never published.
  std::vector<LogRecord> appended;
  const auto collect = [&] {
    ++applied;
    std::move(staged_.begin(), staged_.end(), std::back_inserter(appended));
    staged_.clear();
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
        collect();
        continue;
      }

      const JsonValue* wid_v = ev.find("wid");
      const std::optional<std::int64_t> wid_n =
          wid_v != nullptr ? exact_int(*wid_v) : std::nullopt;
      if (!wid_n.has_value() || *wid_n <= 0) {
        throw Error("\"" + kind + "\" event needs a positive integer \"wid\"");
      }
      const Wid wid = static_cast<Wid>(*wid_n);

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
          collect();
        }
      } else if (kind == "end") {
        monitor_.end_instance(wid);
        if (monitor_.num_bad_events() == bad_before) {
          if (store_.has_value()) store_->end_instance(wid);
          collect();
        }
      } else {
        throw Error("unknown event op \"" + kind + "\"");
      }
    } catch (const IoError& e) {
      // The durable mirror failed (only a store throws IoError, and a
      // service with a store has a health monitor): the monitor and the
      // store no longer agree, so stop accepting writes rather than
      // silently diverging. This is the degraded-mode trigger — reads
      // keep working, recovery probes start, and the client gets a
      // retryable 503.
      abort_error = e.what();
      health_->degrade(std::string("store append failed: ") + e.what());
      // Pause standing-query delivery (events stay queued and acked
      // cursors stay put); recovery resyncs and resumes.
      subs_.set_paused(true);
      abort_status = 503;
      break;
    } catch (const std::exception& e) {
      // Bad event under kReject, or a malformed event object: abort the
      // rest of the request; prior events stay applied.
      abort_error = e.what();
      abort_status = 400;
      break;
    }
  }

  if (!appended.empty()) {
    const auto before = state();
    std::vector<Wid> touched;
    for (const LogRecord& l : appended) touched.push_back(l.wid);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    std::vector<LogRecord> records;
    records.reserve(before->log.size() + appended.size());
    records.assign(before->log.begin(), before->log.end());
    std::move(appended.begin(), appended.end(), std::back_inserter(records));
    publish(Log::from_records_unchecked(std::move(records),
                                        monitor_.interner()));
    route_matches(*before, *state(), touched);
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
  out.set("records", state()->log.size());
  if (abort_status != 0) {
    out.set("error", abort_error);
    HttpResponse resp = HttpResponse::json(abort_status, out.dump());
    if (abort_status == 503) {
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
    // Degraded: delivery is paused until recovery republishes the durable
    // snapshot and resyncs every subscription — register after it.
    HttpResponse resp = HttpResponse::error(
        503, "subscribe unavailable: store is not writable");
    resp.extra_headers.emplace_back(
        "retry-after", std::to_string(health_->retry_after_seconds()));
    return resp;
  }
  if (subs_.size() >= subs_.options().max_subscriptions) {
    return HttpResponse::error(503, "subscription capacity reached");
  }

  // Registration evaluates the current snapshot under the request's own
  // budget — a standing query starts with the exact match set a batch
  // /query would report right now, in the order the log completed it.
  const auto te0 = Clock::now();
  const EvalGuard guard(limits.deadline, limits.max_incidents, limits.cancel);
  const auto st = state();
  const std::vector<Incident> raw = standing_matches(
      *st, *parsed.pattern, st->log.wids(), nullptr, &guard, nullptr);
  if (guard.stopped()) {
    return HttpResponse::error(503, std::string("history replay stopped (") +
                                        stop_reason_name(guard.reason()) +
                                        ")");
  }
  std::vector<std::string> events =
      render_sub_events(parsed, raw, 0, st->engine->index());
  ctx.eval_us = us_since(te0);
  const std::size_t matched = events.size();
  auto sub = subs_.create(query_text, parsed, canonical_key(*parsed.pattern),
                          raw.size(), std::move(events));
  if (sub == nullptr) {
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
  out.set("records", st->log.size());
  out.set("instances", st->log.wids().size());
  const bool writable = health_ == nullptr || health_->writable();
  out.set("ingest_enabled", writable);
  out.set("ingest_disabled_reason",
          writable ? std::string() : health_->stats().last_error);
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
    sh.set("effective", static_cast<std::int64_t>(st->engine->shards()));
    sh.set("pool_workers",
           static_cast<std::int64_t>(st->engine->shard_pool() != nullptr
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
  out.set("records", st->log.size());
  out.set("queue_depth",
          server_ != nullptr
              ? JsonValue(static_cast<std::int64_t>(
                    server_->stats().queue_depth))
              : JsonValue(nullptr));
  out.set("ingest_enabled", health_ == nullptr || health_->writable());
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
