#pragma once

// MetricsRegistry — named counters, gauges, and fixed-bucket histograms
// for engine-wide telemetry.
//
// The hot path is record-side: the shard workers (queries and batches), the
// monitor, and the log store all bump metrics from whatever thread they
// happen to run on. To keep that contention-free, counter and histogram
// cells live in LOCK-FREE THREAD-LOCAL SHARDS: each thread lazily acquires
// its own cell block (one registry mutex hit per thread, ever) and then
// updates plain relaxed atomics it alone writes. scrape()/snapshot() merges
// the shards. Values are monotone, so a concurrent scrape sees a consistent
// "at least everything before the call" view without stopping writers.
//
// Gauges are last-write-wins process-wide values (open instances, queue
// depths) and use a single shared atomic instead of shards.
//
// Handles (Counter*/Gauge*/Histogram*) are stable for the registry's
// lifetime; registration is idempotent by name (same name + same kind
// returns the same handle). Exposition lives in obs/export.h.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wflog::obs {

class MetricsRegistry;

namespace detail {

/// One thread's private cell block. Cells are written only by the owning
/// thread (relaxed load+store, no RMW) and read by scrapers; blocks are
/// owned by the registry so tallies survive worker-thread exit.
struct Shard {
  explicit Shard(std::size_t capacity) : cells(capacity) {}
  std::vector<std::atomic<std::uint64_t>> cells;
};

}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t v = 1);
  void inc() { add(1); }
  /// Merged value across all shards.
  std::uint64_t value() const;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* owner, std::uint32_t cell) noexcept
      : owner_(owner), cell_(cell) {}
  MetricsRegistry* owner_;
  std::uint32_t cell_;  // shard cell index
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { bits_.store(encode(v), std::memory_order_relaxed); }
  void add(double delta);
  double value() const { return decode(bits_.load(std::memory_order_relaxed)); }

 private:
  friend class MetricsRegistry;
  Gauge() noexcept = default;
  static std::uint64_t encode(double v);
  static double decode(std::uint64_t bits);
  std::atomic<std::uint64_t> bits_{0};
};

/// Fixed-bucket histogram with Prometheus `le` (inclusive upper bound)
/// semantics. Bounds are set at registration and immutable; an implicit
/// +Inf bucket catches the overflow. Sharded like Counter.
class Histogram {
 public:
  void observe(double v);

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts (NON-cumulative), last entry is the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const;
  double sum() const;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* owner, std::uint32_t first_cell,
            std::vector<double> bounds) noexcept
      : owner_(owner), first_cell_(first_cell), bounds_(std::move(bounds)) {}
  MetricsRegistry* owner_;
  std::uint32_t first_cell_;  // bounds.size()+1 bucket cells, then the sum
  std::vector<double> bounds_;
};

/// Point-in-time copy of every metric, for the exporters and tests.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name, help;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name, help;
    double value = 0;
  };
  struct HistogramSample {
    std::string name, help;
    std::vector<double> bounds;            // upper bounds, ascending
    std::vector<std::uint64_t> buckets;    // non-cumulative; +Inf last
    double sum = 0;
    std::uint64_t count = 0;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Reasonable latency bucket ladder for *_seconds histograms: 1us..10s.
std::vector<double> default_latency_bounds();

class MetricsRegistry {
 public:
  /// `cell_capacity` bounds the total sharded cells (counters + histogram
  /// buckets) the registry can ever hold; cells are reserved per shard up
  /// front so shards never reallocate under concurrent readers.
  explicit MetricsRegistry(std::size_t cell_capacity = 512);
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Names must match Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
  /// Re-registering an existing name of the same kind returns the existing
  /// handle; a kind clash or bad name throws Error.
  Counter* counter(std::string_view name, std::string_view help = "");
  Gauge* gauge(std::string_view name, std::string_view help = "");
  /// `bounds` must be finite, strictly ascending, nonempty.
  Histogram* histogram(std::string_view name, std::vector<double> bounds,
                       std::string_view help = "");

  MetricsSnapshot snapshot() const;

  std::size_t num_metrics() const;

 private:
  friend class Counter;
  friend class Histogram;

  detail::Shard* local_shard();
  std::uint64_t merged_cell(std::uint32_t cell) const;
  std::uint32_t reserve_cells(std::uint32_t n);

  const std::size_t cell_capacity_;
  const std::uint64_t id_;  // process-unique, keys the thread-local cache

  mutable std::mutex mu_;  // guards everything below (cold path only)
  std::vector<std::unique_ptr<detail::Shard>> shards_;
  std::uint32_t cells_used_ = 0;

  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    std::string name, help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  std::vector<Entry> entries_;
};

}  // namespace wflog::obs
