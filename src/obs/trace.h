#pragma once

// Tracer — hierarchical wall-clock spans for the query pipeline.
//
// A span brackets one stage of work ("query.parse", "query.eval", an
// operator node, a batch pass, a store recovery). Spans nest per thread:
// opening a span while another is open on the same thread links it as a
// child, which is exactly the call structure of the engine (query ->
// parse/optimize/eval -> per-operator nodes; batch -> workers). Records
// accumulate in per-thread buffers guarded by a tiny per-buffer mutex
// (uncontended in steady state: every thread locks only its own buffer,
// except during snapshot()).
//
// Exporters live in obs/export.h: Chrome trace_event JSON (load the file
// in chrome://tracing or https://ui.perfetto.dev) and an indented
// human-readable tree.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace wflog::obs {

/// One key/value annotation on a span ("pairs" = 132, "query" = "a -> b").
struct SpanArg {
  std::string key;
  std::variant<std::uint64_t, double, std::string> value;
};

struct SpanRecord {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  std::string name;
  std::uint64_t start_ns = 0;  // since the tracer's epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;     // logical thread lane (0 = first seen)
  std::uint32_t parent = kNoParent;  // index into SpanSnapshot::spans
  std::vector<SpanArg> args;
};

/// Point-in-time copy of every recorded span. Spans are grouped by thread
/// lane and ordered by start time within a lane; `parent` indexes into
/// `spans` (parents always precede children within a lane).
struct SpanSnapshot {
  std::vector<SpanRecord> spans;
};

/// Per-name aggregate of a contiguous run of one thread's spans — the
/// "per-operator summary" a slow-query capture stores instead of the raw
/// span stream (bounded size, no parent indices to keep alive).
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII handle: closes (stamps the duration of) its span on destruction
  /// or at end(). A default-constructed Span is inert — every operation is
  /// a no-op — which is how disabled telemetry costs one branch.
  class Span {
   public:
    Span() noexcept = default;
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept;
    ~Span() {
      if (active()) end();
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void arg(std::string_view key, std::uint64_t value);
    void arg(std::string_view key, double value);
    void arg(std::string_view key, std::string value);
    /// Closes the span now (idempotent).
    void end();
    bool active() const noexcept { return tracer_ != nullptr; }

   private:
    friend class Tracer;
    Span(Tracer* tracer, void* buf, std::uint32_t idx) noexcept
        : tracer_(tracer), buf_(buf), idx_(idx) {}
    Tracer* tracer_ = nullptr;
    void* buf_ = nullptr;  // ThreadBuf*, opaque to keep the header light
    std::uint32_t idx_ = 0;
  };

  /// Opens a span on the calling thread, nested under the thread's
  /// innermost open span.
  Span span(std::string_view name);

  SpanSnapshot snapshot() const;
  std::size_t num_spans() const;
  /// Drops every recorded span (open spans keep working).
  void clear();

  /// Opaque position in the calling thread's span buffer. Take a mark
  /// before a unit of work, then summarize_thread_since(mark) after it to
  /// aggregate exactly the spans that work recorded — valid only on the
  /// same thread, which is how wfqd attributes operator spans to one
  /// request (a worker thread runs a request start to finish).
  std::size_t thread_mark();
  /// Aggregates the calling thread's CLOSED spans recorded at or after
  /// `mark`, grouped by name in first-seen order. Spans still open (or so
  /// short they round to 0ns) are skipped.
  std::vector<SpanSummary> summarize_thread_since(std::size_t mark);

  /// Caps each thread's buffer: once a thread holds `limit` spans, new
  /// spans on it are dropped (counted, inert handles returned). 0 = no
  /// cap (the default). A long-lived daemon that installs telemetry for
  /// metrics but never exports traces sets a cap so span memory cannot
  /// grow without bound. clear() resets every buffer, re-arming capped
  /// threads.
  void set_thread_span_limit(std::size_t limit) noexcept;
  std::size_t thread_span_limit() const noexcept;
  /// Spans dropped by the cap since construction.
  std::uint64_t num_dropped() const noexcept;

 private:
  struct ThreadBuf;
  ThreadBuf* local_buf();

  const std::uint64_t id_;  // process-unique, keys the thread-local cache
  std::uint64_t epoch_ns_;  // steady-clock origin for start_ns
  std::atomic<std::size_t> span_limit_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;   // guards bufs_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

}  // namespace wflog::obs
