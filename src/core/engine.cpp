#include "core/engine.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/error.h"
#include "core/printer.h"
#include "obs/telemetry.h"

namespace wflog {
namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Folds the evaluator-work delta of one run into the ambient registry.
void fold_counters(obs::Telemetry* t, EvalCounters delta) {
  t->eval_operator_nodes_total->add(delta.operator_nodes_evaluated);
  t->eval_pairs_examined_total->add(delta.pairs_examined);
  t->eval_incidents_emitted_total->add(delta.incidents_emitted);
  t->eval_cache_hits_total->add(delta.cache_hits);
  t->eval_cache_misses_total->add(delta.cache_misses);
  t->eval_cache_bytes_total->add(delta.cache_bytes);
}

/// Guard for one run()/run_batch() call, or nullopt when neither the
/// engine-wide QueryOptions nor the per-call RunLimits set a limit (the
/// zero-overhead common case). A set RunLimits field overrides its
/// engine-wide counterpart. Built per call, not per engine: the deadline
/// clock starts when evaluation does.
std::optional<EvalGuard> make_guard(const QueryOptions& options,
                                    const RunLimits& limits) {
  const std::chrono::milliseconds deadline =
      limits.deadline.count() > 0 ? limits.deadline : options.deadline;
  const std::size_t max_incidents =
      limits.max_incidents != 0 ? limits.max_incidents : options.max_incidents;
  const CancelToken cancel =
      limits.cancel != nullptr ? limits.cancel : options.cancel;
  if (deadline.count() <= 0 && max_incidents == 0 && cancel == nullptr) {
    return std::nullopt;
  }
  return std::optional<EvalGuard>(std::in_place, deadline, max_incidents,
                                  cancel);
}

void count_stop(StopReason reason) {
  WFLOG_TELEMETRY(t) {
    switch (reason) {
      case StopReason::kNone:
        break;
      case StopReason::kDeadline:
        t->query_deadline_exceeded_total->inc();
        break;
      case StopReason::kCancelled:
        t->query_cancelled_total->inc();
        break;
      case StopReason::kIncidentBudget:
        t->query_truncated_total->inc();
        break;
    }
  }
}

}  // namespace

namespace {

LogIndex build_index_instrumented(const Log& log) {
  WFLOG_SPAN(span, "engine.index_build");
  LogIndex index(log);
  if (span.active()) {
    span.arg("records", static_cast<std::uint64_t>(log.size()));
    span.arg("instances", static_cast<std::uint64_t>(log.wids().size()));
  }
  return index;
}

}  // namespace

QueryEngine::QueryEngine(const Log& log, QueryOptions options)
    : log_(&log),
      options_(options),
      index_(build_index_instrumented(log)),
      cost_model_(index_),
      shard_plan_(log.wids(), options.shards) {
  if (shard_plan_.num_shards() > 1) {
    // The calling thread participates in every scatter, so the pool only
    // needs shards-1 workers to keep all K shards in flight at once.
    shard_pool_ = std::make_unique<ShardPool>(shard_plan_.num_shards() - 1);
  }
}

QueryResult QueryEngine::run(std::string_view query_text) const {
  return run(query_text, RunLimits{});
}

QueryResult QueryEngine::run(std::string_view query_text,
                             const RunLimits& limits) const {
  WFLOG_SPAN(span, "query");
  if (span.active()) span.arg("query", std::string(query_text));
  const auto t0 = Clock::now();
  QueryResult r;
  {
    WFLOG_SPAN(parse_span, "query.parse");
    ParsedQuery parsed = parse_query(query_text);
    const double parse_us = us_since(t0);
    parse_span.end();
    r = run(std::move(parsed.pattern), std::move(parsed.where), limits);
    r.parse_us = parse_us;
  }
  WFLOG_TELEMETRY(t) { t->query_parse_seconds->observe(r.parse_us * 1e-6); }
  return r;
}

QueryResult QueryEngine::run(PatternPtr pattern, JoinExprPtr where) const {
  return run(std::move(pattern), std::move(where), RunLimits{});
}

QueryResult QueryEngine::run(PatternPtr pattern, JoinExprPtr where,
                             const RunLimits& limits) const {
  QueryResult r;
  r.parsed = pattern;
  r.where = std::move(where);
  r.estimated_cost_before = cost_model_.cost(*pattern);

  if (options_.optimize) {
    WFLOG_SPAN(opt_span, "query.optimize");
    const auto t0 = Clock::now();
    OptimizeResult opt =
        optimize(std::move(pattern), cost_model_, options_.optimizer);
    r.optimize_us = us_since(t0);
    r.executed = std::move(opt.pattern);
    r.estimated_cost_after = opt.final_cost;
    if (opt_span.active()) {
      opt_span.arg("cost_before", r.estimated_cost_before);
      opt_span.arg("cost_after", r.estimated_cost_after);
    }
  } else {
    r.executed = std::move(pattern);
    r.estimated_cost_after = r.estimated_cost_before;
  }

  obs::Telemetry* telemetry = obs::telemetry();
  const std::optional<EvalGuard> guard = make_guard(options_, limits);
  const EvalGuard* guard_ptr = guard.has_value() ? &*guard : nullptr;
  // Node-traced runs stay on one serial evaluator: per-node spans
  // interleaved across shard workers would scramble the explain() tree.
  // Every other run is the shard plan's instance loop (an unsharded
  // engine: one shard, run inline).
  const bool trace_nodes = telemetry != nullptr && telemetry->trace_nodes;
  r.shards_used = trace_nodes ? 1 : shard_plan_.num_shards();
  EvalCounters counters;
  const auto t1 = Clock::now();
  {
    WFLOG_SPAN(eval_span, "query.eval");
    if (trace_nodes) {
      // explain()-grade detail: a span per operator node per instance.
      const Evaluator ev(index_, options_.eval);
      const NodeTracer node_trace(telemetry->tracer, *r.executed);
      r.incidents = ev.evaluate(*r.executed, &node_trace, guard_ptr);
      counters = ev.counters();
    } else {
      r.incidents = evaluate_sharded(*r.executed, index_, shard_plan_,
                                     shard_options(guard_ptr, &counters));
    }
    if (eval_span.active()) {
      eval_span.arg("incidents",
                    static_cast<std::uint64_t>(r.incidents.total()));
      if (r.shards_used > 1) {
        eval_span.arg("shards", static_cast<std::uint64_t>(r.shards_used));
      }
    }
  }
  if (r.where != nullptr) {
    // Existential where semantics over assignments; derivation runs
    // against the PARSED pattern (its variables), not the optimized tree
    // (rewrites preserve incidents but may reshape the atom layout). The
    // guard keeps counting here: binding derivation over a large incident
    // set can dominate the deadline.
    WFLOG_SPAN(where_span, "query.where");
    r.incidents =
        filter_where(r.incidents, *r.parsed, *r.where, index_, guard_ptr);
  }
  if (guard_ptr != nullptr) {
    r.stop_reason = guard_ptr->reason();
    count_stop(r.stop_reason);
  }
  r.eval_us = us_since(t1);

  if (telemetry != nullptr) {
    telemetry->queries_total->inc();
    telemetry->query_optimize_seconds->observe(r.optimize_us * 1e-6);
    telemetry->query_eval_seconds->observe(r.eval_us * 1e-6);
    if (r.shards_used > 1) {
      telemetry->shard_eval_seconds->observe(r.eval_us * 1e-6);
    }
    fold_counters(telemetry, counters);
  }
  return r;
}

Query Query::parse(std::string_view text) {
  ParsedQuery parsed = parse_query(text);
  return Query(std::move(parsed.pattern), std::move(parsed.where));
}

std::size_t BatchResult::total() const {
  std::size_t n = 0;
  for (const QueryResult& r : results) n += r.total();
  return n;
}

BatchResult QueryEngine::run_batch(std::span<const Query> queries,
                                   std::size_t threads,
                                   bool use_cache) const {
  return run_batch(queries, threads, use_cache, RunLimits{});
}

BatchResult QueryEngine::run_batch(std::span<const Query> queries,
                                   std::size_t /*threads*/, bool use_cache,
                                   const RunLimits& limits) const {
  WFLOG_SPAN(span, "batch");
  if (span.active()) {
    span.arg("queries", static_cast<std::uint64_t>(queries.size()));
    span.arg("shards", static_cast<std::uint64_t>(shard_plan_.num_shards()));
  }
  BatchResult batch;
  batch.results.resize(queries.size());

  // Per-query front end, identical to run(): cost estimate + optimize.
  // Sharing happens downstream on the EXECUTED trees, where canonical
  // keys absorb whatever commutations/rotations the optimizer chose.
  // A query that fails here becomes an error slot (null executed tree);
  // the rest of the batch is unaffected.
  std::vector<PatternPtr> executed;
  executed.reserve(queries.size());
  {
    WFLOG_SPAN(opt_span, "batch.optimize");
    for (std::size_t q = 0; q < queries.size(); ++q) {
      QueryResult& r = batch.results[q];
      r.parsed = queries[q].pattern;
      r.where = queries[q].where;
      if (r.parsed == nullptr) {
        if (r.error.empty()) r.error = "empty query";
        executed.push_back(nullptr);
        continue;
      }
      try {
        r.estimated_cost_before = cost_model_.cost(*r.parsed);
        if (options_.optimize) {
          const auto t0 = Clock::now();
          OptimizeResult opt =
              optimize(r.parsed, cost_model_, options_.optimizer);
          r.optimize_us = us_since(t0);
          r.executed = std::move(opt.pattern);
          r.estimated_cost_after = opt.final_cost;
        } else {
          r.executed = r.parsed;
          r.estimated_cost_after = r.estimated_cost_before;
        }
      } catch (const std::exception& e) {
        r.error = e.what();
        r.executed = nullptr;
      }
      executed.push_back(r.executed);
    }
  }

  const std::optional<EvalGuard> guard = make_guard(options_, limits);
  BatchOptions opts;
  opts.use_cache = use_cache;
  opts.eval = options_.eval;
  opts.guard = guard.has_value() ? &*guard : nullptr;
  // The pass scatters whole shards (one memo per shard) on the engine's
  // pool; an unsharded engine is a 1-shard plan with no pool, run inline.
  opts.shard_plan = &shard_plan_;
  opts.shard_pool = shard_pool_.get();
  const auto t1 = Clock::now();
  {
    WFLOG_SPAN(eval_span, "batch.eval");
    std::vector<IncidentSet> sets =
        evaluate_batch(executed, index_, opts, &batch.stats);
    if (eval_span.active()) {
      eval_span.arg("slots",
                    static_cast<std::uint64_t>(batch.stats.plan.distinct_slots));
      eval_span.arg("cache_hits", batch.stats.counters.cache_hits);
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
      QueryResult& r = batch.results[q];
      if (r.error.empty() && !batch.stats.query_errors.empty()) {
        r.error = batch.stats.query_errors[q];
      }
      if (!r.ok()) continue;  // error slot: no incidents
      r.shards_used = shard_plan_.num_shards();
      r.incidents = std::move(sets[q]);
      if (r.where != nullptr) {
        try {
          r.incidents =
              filter_where(r.incidents, *r.parsed, *r.where, index_,
                           guard.has_value() ? &*guard : nullptr);
        } catch (const std::exception& e) {
          r.error = e.what();
          r.incidents = IncidentSet{};
        }
      }
      // Read AFTER the where pass: the shared guard may trip while
      // filtering, and that slot's result is then partial too.
      if (guard.has_value()) r.stop_reason = guard->reason();
    }
    if (guard.has_value()) count_stop(guard->reason());
  }
  batch.eval_us = us_since(t1);
  // Deterministic, documented attribution (engine.h): the pass is shared,
  // so every query reports the full shared-pass wall time rather than an
  // invented pro-rated share.
  for (QueryResult& r : batch.results) {
    r.eval_us = batch.eval_us;
  }

  WFLOG_TELEMETRY(t) {
    t->batches_total->inc();
    t->batch_queries_total->add(queries.size());
    t->batch_eval_seconds->observe(batch.eval_us * 1e-6);
    fold_counters(t, batch.stats.counters);
  }
  return batch;
}

BatchResult QueryEngine::run_batch(std::span<const std::string> query_texts,
                                   std::size_t threads,
                                   bool use_cache) const {
  return run_batch(query_texts, threads, use_cache, RunLimits{});
}

BatchResult QueryEngine::run_batch(std::span<const std::string> query_texts,
                                   std::size_t threads, bool use_cache,
                                   const RunLimits& limits) const {
  // Parse failures become error slots rather than aborting the batch.
  std::vector<Query> queries(query_texts.size());
  std::vector<std::string> parse_errors(query_texts.size());
  for (std::size_t q = 0; q < query_texts.size(); ++q) {
    try {
      queries[q] = Query::parse(query_texts[q]);
    } catch (const std::exception& e) {
      parse_errors[q] = e.what();
    }
  }
  BatchResult batch = run_batch(queries, threads, use_cache, limits);
  for (std::size_t q = 0; q < query_texts.size(); ++q) {
    if (!parse_errors[q].empty()) {
      batch.results[q].error = std::move(parse_errors[q]);
    }
  }
  return batch;
}

bool QueryEngine::exists(std::string_view query_text) const {
  WFLOG_SPAN(span, "query.exists");
  ParsedQuery parsed = parse_query(query_text);
  if (parsed.where == nullptr) {
    WFLOG_TELEMETRY(t) { t->queries_total->inc(); }
    return exists_sharded(*parsed.pattern, index_, shard_plan_,
                          shard_options(nullptr, nullptr));
  }
  // where clauses need materialized incidents + binding derivation.
  return run(std::move(parsed.pattern), std::move(parsed.where)).any();
}

std::size_t QueryEngine::count(std::string_view query_text) const {
  WFLOG_SPAN(span, "query.count");
  ParsedQuery parsed = parse_query(query_text);
  if (parsed.where == nullptr) {
    WFLOG_TELEMETRY(t) { t->queries_total->inc(); }
    return count_sharded(*parsed.pattern, index_, shard_plan_,
                         shard_options(nullptr, nullptr));
  }
  return run(std::move(parsed.pattern), std::move(parsed.where)).total();
}

ShardEvalOptions QueryEngine::shard_options(const EvalGuard* guard,
                                            EvalCounters* counters) const {
  ShardEvalOptions sopts;
  sopts.eval = options_.eval;
  sopts.guard = guard;
  sopts.pool = shard_pool_.get();
  sopts.counters = counters;
  return sopts;
}

}  // namespace wflog
