#pragma once

// Engine-wide telemetry: one Telemetry object bundles the MetricsRegistry
// and the Tracer plus pre-registered handles for every hot-path metric the
// engine records (name lookup happens once, at construction).
//
// Instrumentation sites use the ambient instance:
//
//   WFLOG_TELEMETRY(t) { t->queries_total->inc(); }
//   WFLOG_SPAN(span, "query.eval");
//   span.arg("incidents", n);
//
// Cost model. Telemetry is OFF unless an instance is installed
// (install_telemetry / ScopedTelemetry): every site is then a single
// relaxed load + null check. Compiling with WFLOG_OBS_ENABLED=0 (cmake
// -DWFLOG_OBS=OFF) turns telemetry() into a constexpr nullptr, so the
// compiler deletes the sites outright — the zero-cost-when-disabled
// guarantee bench/bench_obs.cpp guards.
//
// Threading: install/uninstall are not synchronized against concurrent
// queries — install before starting work (the CLI installs once at
// startup). Recording through an installed instance is thread-safe.

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#ifndef WFLOG_OBS_ENABLED
#define WFLOG_OBS_ENABLED 1
#endif

namespace wflog::obs {

struct Telemetry {
  MetricsRegistry metrics;
  Tracer tracer;

  /// Emit a span per operator node per instance during evaluation (the
  /// explain()-grade detail level). Expensive on large logs; the CLI turns
  /// it on for --trace runs.
  bool trace_nodes = false;

  // ----- query pipeline ---------------------------------------------------
  Counter* queries_total;
  Counter* batches_total;
  Counter* batch_queries_total;
  Histogram* query_parse_seconds;
  Histogram* query_optimize_seconds;
  Histogram* query_eval_seconds;
  Histogram* batch_eval_seconds;
  Counter* query_deadline_exceeded_total;
  Counter* query_cancelled_total;
  Counter* query_truncated_total;

  // ----- evaluator work tallies (EvalCounters folded on every run) --------
  Counter* eval_operator_nodes_total;
  Counter* eval_pairs_examined_total;
  Counter* eval_incidents_emitted_total;
  Counter* eval_cache_hits_total;
  Counter* eval_cache_misses_total;
  Counter* eval_cache_bytes_total;

  // ----- sharded scatter/gather -------------------------------------------
  Counter* shard_evals_total;      // sharded evaluations (scatter/gather runs)
  Counter* shard_tasks_total;      // shard tasks scattered
  Counter* shard_cancelled_total;  // shard tasks early-cancelled by a guard
  Histogram* shard_eval_seconds;   // wall time of one scatter/gather pass

  // ----- durable store ----------------------------------------------------
  Counter* store_appends_total;
  Counter* store_flushes_total;
  Counter* store_segment_rolls_total;
  Counter* store_truncations_total;
  Counter* store_syncs_total;
  Counter* store_retries_total;
  Counter* store_corrupt_records_total;
  Counter* store_blocks_written_total;
  Counter* store_blocks_read_total;
  Counter* store_blocks_skipped_total;
  Counter* store_compressed_bytes_total;
  Counter* store_uncompressed_bytes_total;
  Counter* store_footer_recoveries_total;
  Counter* store_sealed_reopen_skips_total;
  Histogram* store_append_seconds;

  // ----- live monitor -----------------------------------------------------
  Counter* monitor_records_total;
  Counter* monitor_matches_total;
  Counter* monitor_bad_events_total;
  Gauge* monitor_open_instances;
  Gauge* monitor_queries;

  // ----- simulator --------------------------------------------------------
  Counter* sim_instances_total;
  Counter* sim_records_total;

  Telemetry();
};

#if WFLOG_OBS_ENABLED
/// The installed ambient instance, or nullptr when telemetry is off.
Telemetry* telemetry() noexcept;
/// Installs `t` as the ambient instance (nullptr uninstalls). Not owning.
void install_telemetry(Telemetry* t) noexcept;
#else
constexpr Telemetry* telemetry() noexcept { return nullptr; }
inline void install_telemetry(Telemetry*) noexcept {}
#endif

/// RAII install/restore, for tests and scoped instrumentation.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(Telemetry& t) : prev_(telemetry()) {
    install_telemetry(&t);
  }
  ~ScopedTelemetry() { install_telemetry(prev_); }
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  Telemetry* prev_;
};

}  // namespace wflog::obs

/// Runs the braced statement with `t` bound to the ambient Telemetry, only
/// when one is installed. Compiles to nothing when WFLOG_OBS_ENABLED=0.
#define WFLOG_TELEMETRY(t) \
  if (::wflog::obs::Telemetry* t = ::wflog::obs::telemetry(); t != nullptr)

/// Declares `var` as a span on the ambient tracer (inert without one).
#define WFLOG_SPAN(var, ...)                               \
  ::wflog::obs::Tracer::Span var =                         \
      (::wflog::obs::telemetry() != nullptr                \
           ? ::wflog::obs::telemetry()->tracer.span(__VA_ARGS__) \
           : ::wflog::obs::Tracer::Span{})
