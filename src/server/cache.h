#pragma once

// ResultCache — wfqd's cross-request plan/result cache (the ROADMAP item
// "a cross-request plan/result cache keyed on canonical patterns + log
// version").
//
// Key structure (see ResultCache::key):
//
//   canonical_key(pattern)   Theorems 2-4 invariant — structurally
//                            different spellings of the same pattern share
//                            one entry (sound because equal keys imply
//                            equal incident sets on every log);
//   where fingerprint        binding names are deliberately NOT part of
//                            canonical_key (they never change a pattern's
//                            incidents) but they DO change what a where
//                            clause means, so queries with a where clause
//                            additionally key on the binding-carrying
//                            pattern text + the where expression text;
//   snapshot version         ingest publishes a new version; entries for
//                            old versions simply stop being looked up and
//                            age out of the LRU — no invalidation scan.
//
// Soundness rules (the "bugfix" half of the design):
//
//   * only COMPLETE results are cached: insert() refuses any result with
//     stop_reason != kNone or a non-empty error, so a deadline/budget/
//     cancel-truncated answer can never be replayed as if it were full;
//   * a hit is served only when the requester's effective RunLimits are at
//     least as permissive as those of the run that produced the entry — a
//     tighter deadline or incident budget might have truncated, and the
//     caller's stop_reason contract must not be silently upgraded.
//
// Structure: N shards, each `max_bytes / N` of budget with its own mutex,
// LRU list and key map — lookups on different shards never contend.
// Values are shared_ptr<const QueryResult>, so serving a hit is a refcount
// bump and eviction can proceed while a reader still renders the result.
//
// Metrics (registered lazily, obs/telemetry.h; names are Prometheus-ready):
//   wflog_server_cache_{hits,misses,insertions,evictions}_total (counters)
//   wflog_server_cache_bytes (gauge)

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"

namespace wflog::server {

struct CacheOptions {
  /// Total byte budget across all shards. 0 = cache disabled (every
  /// lookup misses, inserts are dropped).
  std::size_t max_bytes = 0;
  /// Number of independent LRU shards (clamped to >= 1).
  std::size_t shards = 8;
};

/// Point-in-time counters for /stats and tests.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Lookups that found an entry but refused it (tighter request limits).
  std::uint64_t limit_rejects = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t max_bytes = 0;
};

class ResultCache {
 public:
  explicit ResultCache(CacheOptions options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  bool enabled() const noexcept { return options_.max_bytes > 0; }

  /// Cache key for a parsed query against snapshot `version`.
  static std::string key(const Query& q, std::uint64_t version);

  /// Returns the cached complete result, or nullptr on miss. `limits` are
  /// the requester's effective limits; an entry produced under tighter
  /// ones is not served (counted as limit_rejects + miss).
  std::shared_ptr<const QueryResult> lookup(const std::string& key,
                                            const RunLimits& limits);

  /// Stores a result produced under `limits`. Refuses (no-op) incomplete
  /// results (error or stop_reason != kNone), oversized entries, and
  /// everything when the cache is disabled.
  void insert(const std::string& key,
              std::shared_ptr<const QueryResult> result,
              const RunLimits& limits);

  /// Non-serving probe for incremental repair: returns the entry's result
  /// (and, when `producing_limits` is non-null, the limits it was produced
  /// under) WITHOUT touching the LRU order or the hit/miss counters, so a
  /// repair scan does not distort cache statistics. Nullptr when absent.
  std::shared_ptr<const QueryResult> peek(const std::string& key,
                                          RunLimits* producing_limits);

  CacheStats stats() const;

  /// Retained bytes of one result (used for the budget): a fixed charge
  /// for the node and its pattern trees, plus the incident buffers'
  /// capacities exactly (IncidentSet::heap_bytes).
  static std::size_t result_bytes(const QueryResult& r);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const QueryResult> result;
    std::size_t bytes = 0;
    /// Effective limits of the producing run; 0 = unlimited.
    std::int64_t deadline_ms = 0;
    std::size_t max_incidents = 0;
  };

  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string_view, std::list<Entry>::iterator> map;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t limit_rejects = 0;
  };

  Shard& shard_for(const std::string& key);
  void publish_bytes_metric() const;

  CacheOptions options_;
  std::size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace wflog::server
