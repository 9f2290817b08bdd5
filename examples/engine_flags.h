#pragma once

// Shared CLI plumbing for wfq and wfqd — one place for the flags the two
// binaries have in common, so "the same flag means the same thing" stays
// true by construction:
//
//   --trace <out.json>     record spans, write Chrome trace_event JSON
//   --metrics              print Prometheus text exposition on exit
//   --metrics-json <file>  write the metrics snapshot as JSON
//   --deadline-ms N        wall-clock budget per evaluation (wfq: every
//                          query/batch run; wfqd: the per-request default)
//   --max-incidents N      emitted-incident budget, same scoping
//   --cache-mb N           result-cache byte budget in MiB (wfqd's
//                          cross-request plan/result cache; default 64.
//                          wfq runs one query and ignores it)
//   --cache-off            disable the result cache entirely
//   --shards N             wid-shards per evaluation (core/shard.h);
//                          default 0 = hardware concurrency, 1 = serial.
//                          Results are byte-identical for every N. A
//                          negative or non-numeric N is a usage error
//                          (exit 2).
//
// strip_engine_flags() pulls these out of argv (position-independent) so
// each binary's own argument parsing never sees them; TelemetryScope owns
// the process-wide obs::Telemetry and writes the requested outputs when it
// goes out of scope. load_log() is the by-extension reader both binaries
// share.

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/engine.h"
#include "log/io_csv.h"
#include "log/io_jsonl.h"
#include "log/io_xes.h"
#include "obs/telemetry.h"

namespace wflog::cli {

struct EngineFlags {
  std::string trace_path;
  std::string metrics_json_path;
  bool metrics = false;
  std::chrono::milliseconds deadline{0};
  std::size_t max_incidents = 0;
  /// Result-cache budget (wfqd; MiB). wfq accepts and ignores these so a
  /// command line can move between the binaries unchanged.
  std::size_t cache_mb = 64;
  bool cache_off = false;
  /// Wid-shards per evaluation: 0 = hardware concurrency (the CLI
  /// default — the paper-faithful serial engine stays the LIBRARY
  /// default), 1 = serial, K = scatter/gather over K shards.
  std::size_t shards = 0;

  /// ServiceOptions::cache_bytes value the flags ask for.
  std::size_t cache_bytes() const {
    return cache_off ? 0 : cache_mb * std::size_t{1024} * 1024;
  }

  bool wants_telemetry() const {
    return !trace_path.empty() || metrics || !metrics_json_path.empty();
  }

  /// QueryOptions with the guard and shard flags folded in.
  QueryOptions query_options() const {
    QueryOptions opts;
    opts.deadline = deadline;
    opts.max_incidents = max_incidents;
    opts.shards = shards;
    return opts;
  }
};

/// Strips the shared flags out of argv, appending everything else to
/// `args` (argv[0] first). `args` stays alive as long as argv does — the
/// pointers are borrowed.
inline EngineFlags strip_engine_flags(int argc, char** argv,
                                      std::vector<char*>& args) {
  EngineFlags flags;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--trace" && i + 1 < argc) {
      flags.trace_path = argv[++i];
    } else if (flag == "--metrics-json" && i + 1 < argc) {
      flags.metrics_json_path = argv[++i];
    } else if (flag == "--metrics") {
      flags.metrics = true;
    } else if (flag == "--deadline-ms" && i + 1 < argc) {
      flags.deadline = std::chrono::milliseconds{std::atoll(argv[++i])};
    } else if (flag == "--max-incidents" && i + 1 < argc) {
      flags.max_incidents = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (flag == "--cache-mb" && i + 1 < argc) {
      flags.cache_mb = static_cast<std::size_t>(std::atoll(argv[++i]));
      if (flags.cache_mb == 0) flags.cache_off = true;
    } else if (flag == "--cache-off") {
      flags.cache_off = true;
    } else if (flag == "--shards" && i + 1 < argc) {
      // Strict: atoll would turn "-1" into SIZE_MAX (a thread per
      // instance) and "abc" into 0 (hardware concurrency).
      const std::string_view text = argv[++i];
      const auto [end, ec] = std::from_chars(
          text.data(), text.data() + text.size(), flags.shards);
      if (ec != std::errc{} || end != text.data() + text.size()) {
        std::cerr << "error: --shards expects a non-negative integer, got '"
                  << text << "'\n";
        std::exit(2);
      }
    } else {
      args.push_back(argv[i]);
    }
  }
  return flags;
}

/// Installs the process-wide Telemetry when any telemetry flag asked for
/// it — or unconditionally with `force` (wfqd always installs one so
/// GET /metrics has data) — and writes the requested outputs on
/// destruction.
class TelemetryScope {
 public:
  explicit TelemetryScope(EngineFlags flags, bool force = false)
      : flags_(std::move(flags)) {
    if (!flags_.wants_telemetry() && !force) return;
    telemetry_.emplace();
    // Traces get the explain()-grade detail: a span per operator node.
    telemetry_->trace_nodes = !flags_.trace_path.empty();
    installed_.emplace(*telemetry_);
    if (flags_.wants_telemetry() && obs::telemetry() == nullptr) {
      std::cerr << "note: telemetry flags ignored (built with "
                   "-DWFLOG_OBS=OFF)\n";
    }
  }

  ~TelemetryScope() {
    if (!telemetry_.has_value() || obs::telemetry() == nullptr) return;
    if (!flags_.trace_path.empty()) {
      const obs::SpanSnapshot snap = telemetry_->tracer.snapshot();
      std::ofstream out(flags_.trace_path);
      if (!out) {
        std::cerr << "error: cannot write trace to '" << flags_.trace_path
                  << "'\n";
      } else {
        out << obs::to_chrome_trace_json(snap);
        std::cerr << "trace: " << snap.spans.size() << " span(s) -> "
                  << flags_.trace_path << " (load in chrome://tracing)\n";
      }
    }
    if (flags_.metrics) {
      std::cout << obs::to_prometheus_text(telemetry_->metrics.snapshot());
    }
    if (!flags_.metrics_json_path.empty()) {
      std::ofstream out(flags_.metrics_json_path);
      if (!out) {
        std::cerr << "error: cannot write metrics to '"
                  << flags_.metrics_json_path << "'\n";
      } else {
        out << obs::metrics_to_json(telemetry_->metrics.snapshot()) << "\n";
      }
    }
  }

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  EngineFlags flags_;
  std::optional<obs::Telemetry> telemetry_;
  std::optional<obs::ScopedTelemetry> installed_;
};

inline bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Reads a log by extension (.csv / .jsonl / .xes).
inline Log load_log(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open '" + path + "'");
  if (has_suffix(path, ".jsonl")) return read_jsonl(in);
  if (has_suffix(path, ".csv")) return read_csv(in);
  if (has_suffix(path, ".xes")) return read_xes(in);
  throw IoError("unknown log format (expect .csv/.jsonl/.xes): " + path);
}

}  // namespace wflog::cli
