#pragma once

// QueryEngine — the public facade: parse -> optimize -> evaluate.
//
//   Log log = read_csv(...);
//   QueryEngine engine(log);
//   QueryResult r = engine.run("UpdateRefer -> GetReimburse");
//   if (!r.incidents.empty()) { ... }
//
// The engine owns the LogIndex and CostModel for its log; the Log itself
// is borrowed and must outlive the engine.

#include <chrono>
#include <span>
#include <string>

#include <memory>

#include "core/batch.h"
#include "core/evaluator.h"
#include "core/join.h"
#include "core/optimizer.h"
#include "core/parser.h"
#include "core/shard.h"

namespace wflog {

struct QueryOptions {
  /// Rewrite the pattern with the cost-based optimizer before evaluating.
  bool optimize = true;
  /// Wall-clock budget per run()/run_batch() evaluation; 0 = unlimited.
  /// On expiry the query returns the incidents found so far with
  /// stop_reason == kDeadline — never an exception.
  std::chrono::milliseconds deadline{0};
  /// Emitted-incident budget (Theorem 1 memory guard) per evaluation;
  /// 0 = unlimited. Exceeding it yields a partial result flagged
  /// kIncidentBudget.
  std::size_t max_incidents = 0;
  /// Cooperative cancellation (core/guard.h): set the token from any
  /// thread and the running evaluation returns a kCancelled partial
  /// result. Null = not cancellable.
  CancelToken cancel;
  /// Wid-shards per evaluation (core/shard.h): 1 = unsharded (the
  /// default), 0 = hardware concurrency, K = scatter the instance set
  /// over K wid-disjoint shards evaluated on an engine-owned worker pool
  /// reused across queries. Results are byte-identical for every value —
  /// sharding changes latency, never answers.
  std::size_t shards = 1;
  EvalOptions eval;
  OptimizerOptions optimizer;
};

/// Per-call resource limits layered over an engine's QueryOptions — the
/// unit a server maps one request's budget onto without rebuilding the
/// engine (the LogIndex is the expensive part). A zero/null field defers
/// to the engine-wide default; a set field overrides it for this call.
struct RunLimits {
  std::chrono::milliseconds deadline{0};  // 0 = engine default
  std::size_t max_incidents = 0;          // 0 = engine default
  CancelToken cancel;                     // null = engine default
};

struct QueryResult {
  PatternPtr parsed;    // as written
  PatternPtr executed;  // after optimization (== parsed when disabled)
  JoinExprPtr where;    // the query's where clause, when present
  IncidentSet incidents;
  double parse_us = 0;
  double optimize_us = 0;
  double eval_us = 0;
  double estimated_cost_before = 0;
  double estimated_cost_after = 0;
  /// Wid-shards the evaluation actually scattered over: 1 = serial, K > 1
  /// = scatter/gather on the engine's shard pool, 0 = no evaluation ran
  /// (error slot). Request observability (server/observer.h) attributes
  /// per-request eval time to this.
  std::size_t shards_used = 0;
  /// kNone when the evaluation ran to completion; otherwise the incidents
  /// are a valid but PARTIAL subset (deadline / cancel / budget).
  StopReason stop_reason = StopReason::kNone;
  /// Batch isolation: why THIS query failed (parse/optimize/eval error)
  /// while the rest of its batch completed. Empty on success; a failed
  /// query carries no incidents.
  std::string error;

  std::size_t total() const { return incidents.total(); }
  bool any() const { return !incidents.empty(); }
  bool ok() const { return error.empty(); }
  /// True iff the incident set is the full answer.
  bool complete() const { return ok() && stop_reason == StopReason::kNone; }
  bool timed_out() const { return stop_reason == StopReason::kDeadline; }
  bool cancelled() const { return stop_reason == StopReason::kCancelled; }
  bool truncated() const {
    return stop_reason == StopReason::kIncidentBudget;
  }
};

/// One query of a batch: a pattern with an optional where clause,
/// built programmatically or parsed from "PATTERN [where EXPR]" text.
struct Query {
  PatternPtr pattern;
  JoinExprPtr where;  // null when absent

  Query() = default;
  Query(PatternPtr p, JoinExprPtr w = nullptr)
      : pattern(std::move(p)), where(std::move(w)) {}

  /// Parses a full query. Throws ParseError / QueryError.
  static Query parse(std::string_view text);
};

/// Result of running a batch: per-query results (input order) plus the
/// sharing tallies of the one shared evaluation pass.
///
/// Timing attribution: evaluation is ONE pass shared by every query, so a
/// per-query share of `eval_us` would be an invention. Deterministically,
/// `eval_us` below is the shared pass's wall time and every
/// `results[q].eval_us` reports that same figure — "this query's answer
/// took the whole pass". Per-query `parse_us`/`optimize_us` are genuine
/// (the front end runs per query). The shared figure is also exported as
/// the `wflog_batch_eval_seconds` histogram when telemetry is installed
/// (obs/telemetry.h).
struct BatchResult {
  std::vector<QueryResult> results;
  BatchEvalStats stats;
  double eval_us = 0;  // wall time of the one shared evaluation pass

  std::size_t num_queries() const { return results.size(); }
  /// Incidents across all queries.
  std::size_t total() const;
  std::uint64_t cache_hits() const { return stats.counters.cache_hits; }
  std::uint64_t cache_misses() const { return stats.counters.cache_misses; }
  std::uint64_t cache_bytes() const { return stats.counters.cache_bytes; }
};

class QueryEngine {
 public:
  explicit QueryEngine(const Log& log, QueryOptions options = {});
  /// The engine borrows the log; a temporary would dangle immediately.
  explicit QueryEngine(Log&& log, QueryOptions options = {}) = delete;

  /// Parse, optimize, evaluate. The text form accepts a full query —
  /// "PATTERN [where JOIN-EXPR]" (core/join.h); incidents failing the
  /// where clause are filtered out. Throws ParseError / QueryError.
  QueryResult run(std::string_view query_text) const;
  QueryResult run(PatternPtr pattern, JoinExprPtr where = nullptr) const;
  /// run() with per-call limits overriding the engine-wide defaults
  /// (deadline / incident budget / cancel) — one engine, many callers,
  /// each with its own budget.
  QueryResult run(std::string_view query_text, const RunLimits& limits) const;
  QueryResult run(PatternPtr pattern, JoinExprPtr where,
                  const RunLimits& limits) const;

  /// Evaluates N queries in ONE shared pass over the log (core/batch.h):
  /// each query is parsed/optimized exactly as run() would, then all
  /// executed patterns are evaluated together, sharing every subtree with
  /// an equal canonical key (Theorems 2-4) through a per-instance memo.
  /// results[q] is bit-identical to run(queries[q]). Parallelism = the
  /// engine's shard count (QueryOptions::shards): the pass scatters whole
  /// shards on the engine's pool. `threads` is ignored (kept for source
  /// compatibility); `use_cache` toggles the subpattern memo.
  ///
  /// Failure isolation: a query that fails to parse, optimize, or
  /// evaluate becomes an error slot (results[q].error set, no incidents)
  /// while every other query completes normally — run_batch itself only
  /// throws for infrastructure failures, not per-query ones.
  BatchResult run_batch(std::span<const Query> queries,
                        std::size_t threads = 1,
                        bool use_cache = true) const;
  BatchResult run_batch(std::span<const Query> queries, std::size_t threads,
                        bool use_cache, const RunLimits& limits) const;
  /// Convenience: parses each text with Query::parse first.
  BatchResult run_batch(std::span<const std::string> query_texts,
                        std::size_t threads = 1,
                        bool use_cache = true) const;
  BatchResult run_batch(std::span<const std::string> query_texts,
                        std::size_t threads, bool use_cache,
                        const RunLimits& limits) const;

  /// Cheap existence / counting entry points ("are there any students
  /// who ...?"). exists() early-exits on the first matching instance;
  /// both accept full queries (where clauses force materialization).
  bool exists(std::string_view query_text) const;
  std::size_t count(std::string_view query_text) const;

  const Log& log() const noexcept { return *log_; }
  const LogIndex& index() const noexcept { return index_; }
  const CostModel& cost_model() const noexcept { return cost_model_; }
  const QueryOptions& options() const noexcept { return options_; }

  /// Effective shard count (QueryOptions::shards resolved against the
  /// log's instance count); 1 = one shard, run inline.
  std::size_t shards() const noexcept { return shard_plan_.num_shards(); }
  const ShardPlan& shard_plan() const noexcept { return shard_plan_; }
  /// The engine's persistent shard pool, or null when unsharded.
  ShardPool* shard_pool() const noexcept { return shard_pool_.get(); }

 private:
  const Log* log_;
  QueryOptions options_;
  LogIndex index_;
  CostModel cost_model_;
  // Scatter/gather state, built once per engine: the wid partition of
  // this log and the worker pool every sharded query reuses (one thread
  // fewer than shards — the calling thread participates; an unsharded
  // engine is one shard run inline, with no pool). Every run() / exists()
  // / count() evaluates through it, with per-shard Evaluators, so
  // concurrent callers never share mutable work counters.
  ShardPlan shard_plan_;
  std::unique_ptr<ShardPool> shard_pool_;

  /// The engine's shard scatter options for one call.
  ShardEvalOptions shard_options(const EvalGuard* guard,
                                 EvalCounters* counters) const;
};

}  // namespace wflog
