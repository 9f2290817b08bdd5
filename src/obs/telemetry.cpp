#include "obs/telemetry.h"

#include <atomic>

namespace wflog::obs {

Telemetry::Telemetry() {
  auto lat = [] { return default_latency_bounds(); };

  queries_total =
      metrics.counter("wflog_queries_total",
                      "Queries executed via QueryEngine::run/exists/count");
  batches_total =
      metrics.counter("wflog_batches_total", "run_batch calls executed");
  batch_queries_total = metrics.counter(
      "wflog_batch_queries_total", "Queries evaluated inside batch passes");
  query_parse_seconds = metrics.histogram(
      "wflog_query_parse_seconds", lat(), "Query text parse latency");
  query_optimize_seconds =
      metrics.histogram("wflog_query_optimize_seconds", lat(),
                        "Cost-based optimizer latency per query");
  query_eval_seconds = metrics.histogram(
      "wflog_query_eval_seconds", lat(),
      "Evaluation latency per query (incl. where-clause filtering)");
  batch_eval_seconds = metrics.histogram(
      "wflog_batch_eval_seconds", lat(),
      "Shared-pass evaluation latency per run_batch call");
  query_deadline_exceeded_total =
      metrics.counter("wflog_query_deadline_exceeded_total",
                      "Queries stopped early by a QueryOptions deadline");
  query_cancelled_total =
      metrics.counter("wflog_query_cancelled_total",
                      "Queries stopped early by a cancellation token");
  query_truncated_total =
      metrics.counter("wflog_query_truncated_total",
                      "Queries truncated by the max-incidents budget");

  eval_operator_nodes_total =
      metrics.counter("wflog_eval_operator_nodes_total",
                      "Operator nodes evaluated (per instance)");
  eval_pairs_examined_total =
      metrics.counter("wflog_eval_pairs_examined_total",
                      "Operand pairs inspected by the operator algorithms");
  eval_incidents_emitted_total =
      metrics.counter("wflog_eval_incidents_emitted_total",
                      "Incidents emitted by operator nodes");
  eval_cache_hits_total =
      metrics.counter("wflog_eval_cache_hits_total",
                      "Subpattern-memo hits (batch shared evaluation)");
  eval_cache_misses_total =
      metrics.counter("wflog_eval_cache_misses_total",
                      "Subpattern-memo misses (computed and stored)");
  eval_cache_bytes_total =
      metrics.counter("wflog_eval_cache_bytes_total",
                      "Incident bytes retained in subpattern memos");

  shard_evals_total =
      metrics.counter("wflog_shard_evals_total",
                      "Sharded scatter/gather evaluations executed");
  shard_tasks_total = metrics.counter(
      "wflog_shard_tasks_total", "Shard tasks scattered across the pool");
  shard_cancelled_total =
      metrics.counter("wflog_shard_cancelled_total",
                      "Shard tasks early-cancelled by a tripped guard");
  shard_eval_seconds =
      metrics.histogram("wflog_shard_eval_seconds", lat(),
                        "Wall time of one sharded scatter/gather pass");

  store_appends_total = metrics.counter(
      "wflog_store_appends_total", "Records appended to the durable store");
  store_flushes_total = metrics.counter(
      "wflog_store_flushes_total", "Tail-segment flushes (one per append)");
  store_segment_rolls_total = metrics.counter(
      "wflog_store_segment_rolls_total", "Segment files opened");
  store_truncations_total =
      metrics.counter("wflog_store_truncations_total",
                      "Torn tail lines physically truncated on open");
  store_syncs_total = metrics.counter(
      "wflog_store_syncs_total", "fsyncs issued by the durable store");
  store_retries_total =
      metrics.counter("wflog_store_retries_total",
                      "Transient store IO failures absorbed by retry");
  store_corrupt_records_total =
      metrics.counter("wflog_store_corrupt_records_total",
                      "Corrupt record lines quarantined by a recovering open");
  store_blocks_written_total =
      metrics.counter("wflog_store_blocks_written_total",
                      "Compressed blocks written to v2 segments");
  store_blocks_read_total =
      metrics.counter("wflog_store_blocks_read_total",
                      "v2 segment blocks inflated by reads");
  store_blocks_skipped_total = metrics.counter(
      "wflog_store_blocks_skipped_total",
      "v2 segment blocks skipped by zone-map pruning without inflation");
  store_compressed_bytes_total =
      metrics.counter("wflog_store_compressed_bytes_total",
                      "Compressed payload bytes written to v2 blocks");
  store_uncompressed_bytes_total =
      metrics.counter("wflog_store_uncompressed_bytes_total",
                      "Uncompressed payload bytes framed into v2 blocks");
  store_footer_recoveries_total = metrics.counter(
      "wflog_store_footer_recoveries_total",
      "v2 segments recovered block-by-block after a missing/torn footer");
  store_sealed_reopen_skips_total = metrics.counter(
      "wflog_store_sealed_reopen_skips_total",
      "Sealed v2 segments reopened via footer fast path (no block re-scan)");
  store_append_seconds =
      metrics.histogram("wflog_store_append_seconds", lat(),
                        "Durable append latency (serialize + flush)");

  monitor_records_total = metrics.counter(
      "wflog_monitor_records_total", "Events fed to the live monitor");
  monitor_matches_total = metrics.counter(
      "wflog_monitor_matches_total", "Incidents reported by the monitor");
  monitor_bad_events_total = metrics.counter(
      "wflog_monitor_bad_events_total",
      "Events rejected, skipped, or quarantined by the bad-event policy");
  monitor_open_instances = metrics.gauge(
      "wflog_monitor_open_instances", "Workflow instances currently open");
  monitor_queries =
      metrics.gauge("wflog_monitor_queries", "Patterns currently registered");

  sim_instances_total = metrics.counter(
      "wflog_sim_instances_total", "Workflow instances simulated");
  sim_records_total = metrics.counter("wflog_sim_records_total",
                                      "Records emitted by the simulator");
}

#if WFLOG_OBS_ENABLED
namespace {
std::atomic<Telemetry*> g_telemetry{nullptr};
}  // namespace

Telemetry* telemetry() noexcept {
  return g_telemetry.load(std::memory_order_acquire);
}

void install_telemetry(Telemetry* t) noexcept {
  g_telemetry.store(t, std::memory_order_release);
}
#endif

}  // namespace wflog::obs
