#include "server/cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/printer.h"
#include "obs/telemetry.h"

namespace wflog::server {
namespace {

/// True when `request` is strictly tighter than `stored` on one budget
/// dimension (0 = unlimited on either side).
bool tighter(std::int64_t request, std::int64_t stored) {
  return request != 0 && (stored == 0 || request < stored);
}

bool tighter(std::size_t request, std::size_t stored) {
  return request != 0 && (stored == 0 || request < stored);
}

}  // namespace

ResultCache::ResultCache(CacheOptions options) : options_(options) {
  options_.shards = std::max<std::size_t>(1, options_.shards);
  // A budget smaller than the shard count still gets one working shard's
  // worth of bytes per shard (integer division would zero them out).
  shard_budget_ =
      options_.max_bytes == 0
          ? 0
          : std::max<std::size_t>(1, options_.max_bytes / options_.shards);
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::string ResultCache::key(const Query& q, std::uint64_t version) {
  // canonical_key is injective on pattern shape classes (free text inside
  // is length-prefixed, see core/pattern.h), so a single unit separator
  // between the sections keeps the whole key injective: canonical keys
  // never contain 0x1F.
  std::string out = canonical_key(*q.pattern);
  out += '\x1f';
  if (q.where != nullptr) {
    // Binding names matter to the where clause but not to canonical_key;
    // fold in the binding-carrying pattern text plus the expression.
    out += to_text(*q.pattern);
    out += '\x1f';
    out += q.where->to_string();
  }
  out += '\x1f';
  out += std::to_string(version);
  return out;
}

std::size_t ResultCache::result_bytes(const QueryResult& r) {
  // Node + bookkeeping slack, then the incident buffers exactly.
  std::size_t n = sizeof(QueryResult) + 512 + r.incidents.heap_bytes();
  // Pattern trees are retained via parsed/executed; count atoms + interior
  // nodes at a flat estimate.
  if (r.parsed != nullptr) {
    n += (r.parsed->num_atoms() + r.parsed->num_operators()) * 96;
  }
  if (r.executed != nullptr && r.executed != r.parsed) {
    n += (r.executed->num_atoms() + r.executed->num_operators()) * 96;
  }
  return n;
}

ResultCache::Shard& ResultCache::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

void ResultCache::publish_bytes_metric() const {
  WFLOG_TELEMETRY(t) {
    std::size_t total = 0;
    for (const auto& s : shards_) {
      std::lock_guard lock(s->mu);
      total += s->bytes;
    }
    t->metrics
        .gauge("wflog_server_cache_bytes",
               "Bytes retained by the wfqd result cache")
        ->set(static_cast<double>(total));
  }
}

std::shared_ptr<const QueryResult> ResultCache::lookup(
    const std::string& key, const RunLimits& limits) {
  if (!enabled()) return nullptr;
  Shard& s = shard_for(key);
  std::shared_ptr<const QueryResult> hit;
  bool limit_reject = false;
  {
    std::lock_guard lock(s.mu);
    const auto it = s.map.find(std::string_view(key));
    if (it == s.map.end()) {
      ++s.misses;
    } else {
      const Entry& e = *it->second;
      // Serve only when the request could not have been truncated earlier
      // than the stored run: a tighter deadline or incident budget owes
      // the caller its own stop_reason, not a cached complete answer.
      if (tighter(limits.deadline.count(), e.deadline_ms) ||
          tighter(limits.max_incidents, e.max_incidents)) {
        ++s.misses;
        ++s.limit_rejects;
        limit_reject = true;
      } else {
        s.lru.splice(s.lru.begin(), s.lru, it->second);
        hit = it->second->result;
        ++s.hits;
      }
    }
  }
  WFLOG_TELEMETRY(t) {
    if (hit != nullptr) {
      t->metrics
          .counter("wflog_server_cache_hits_total",
                   "wfqd result cache hits")
          ->inc();
    } else {
      t->metrics
          .counter("wflog_server_cache_misses_total",
                   "wfqd result cache misses")
          ->inc();
      if (limit_reject) {
        t->metrics
            .counter("wflog_server_cache_limit_rejects_total",
                     "wfqd result cache entries refused because the "
                     "request's limits were tighter than the stored run's")
            ->inc();
      }
    }
  }
  return hit;
}

std::shared_ptr<const QueryResult> ResultCache::peek(
    const std::string& key, RunLimits* producing_limits) {
  if (!enabled()) return nullptr;
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const auto it = s.map.find(std::string_view(key));
  if (it == s.map.end()) return nullptr;
  if (producing_limits != nullptr) {
    producing_limits->deadline =
        std::chrono::milliseconds(it->second->deadline_ms);
    producing_limits->max_incidents = it->second->max_incidents;
  }
  return it->second->result;
}

void ResultCache::insert(const std::string& key,
                         std::shared_ptr<const QueryResult> result,
                         const RunLimits& limits) {
  if (!enabled() || result == nullptr) return;
  // Soundness: never cache a partial or failed answer. Callers already
  // filter, but the cache is the last line of defense.
  if (!result->complete()) return;

  Entry entry;
  entry.key = key;
  entry.bytes = key.size() + result_bytes(*result);
  entry.deadline_ms = limits.deadline.count();
  entry.max_incidents = limits.max_incidents;
  entry.result = std::move(result);
  if (entry.bytes > shard_budget_) return;  // would evict the whole shard

  Shard& s = shard_for(key);
  std::uint64_t evicted = 0;
  {
    std::lock_guard lock(s.mu);
    if (const auto it = s.map.find(std::string_view(key));
        it != s.map.end()) {
      // Refresh: a concurrent miss recomputed the same answer. Keep the
      // newer entry (its limits may be looser, widening future hits).
      s.bytes -= it->second->bytes;
      s.lru.erase(it->second);
      s.map.erase(it);
    }
    while (!s.lru.empty() && s.bytes + entry.bytes > shard_budget_) {
      const Entry& victim = s.lru.back();
      s.bytes -= victim.bytes;
      s.map.erase(std::string_view(victim.key));
      s.lru.pop_back();
      ++evicted;
    }
    s.bytes += entry.bytes;
    s.lru.push_front(std::move(entry));
    s.map.emplace(std::string_view(s.lru.front().key), s.lru.begin());
    ++s.insertions;
    s.evictions += evicted;
  }
  WFLOG_TELEMETRY(t) {
    t->metrics
        .counter("wflog_server_cache_insertions_total",
                 "wfqd result cache insertions")
        ->inc();
    if (evicted > 0) {
      t->metrics
          .counter("wflog_server_cache_evictions_total",
                   "wfqd result cache LRU evictions")
          ->add(evicted);
    }
  }
  publish_bytes_metric();
}

CacheStats ResultCache::stats() const {
  CacheStats out;
  out.max_bytes = options_.max_bytes;
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    out.hits += s->hits;
    out.misses += s->misses;
    out.insertions += s->insertions;
    out.evictions += s->evictions;
    out.limit_rejects += s->limit_rejects;
    out.entries += s->lru.size();
    out.bytes += s->bytes;
  }
  return out;
}

}  // namespace wflog::server
