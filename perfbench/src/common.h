#pragma once

// Shared plumbing of the wflog benchmark: percentiles, in-memory spans, the
// wfqd child process, the open-loop request generator and the result record
// every workload fills in.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/json.h"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t0);

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty vector.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Settings shared by every workload, from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  fs::path wfqd;    // the daemon binary
  fs::path inputs;  // cache of generated inputs, one folder per (workload, seed)
  fs::path work;    // scratch for store copies and span files
  unsigned threads = 4;  // nproc: generator threads and run_batch threads
};

/// What a workload reports: the metrics of its mode plus the operation
/// accounting of the correctness gate.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one phase of operations and prints the phase line to stderr.
  void phase(const std::string& name, std::uint64_t sent,
             std::uint64_t failed_ops);
  /// A correctness mismatch found outside a timed phase.
  void mismatch(const std::string& what);
};

// ---------------------------------------------------------------------------
// Spans (traced runs only): name, start, end, parent, request id. Kept in
// memory and written out as JSON lines when the workload ends.

class Spans {
 public:
  explicit Spans(bool on) : on_(on), t0_(Clock::now()) {}

  /// Opens a span and returns its id (-1 when tracing is off).
  int open(std::string name, int parent = -1, std::string request = {});
  void close(int id);
  /// Duration of a closed span in microseconds.
  double us(int id) const;

  /// Durations (us) of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Self time (us) of each span named `name`: its duration minus the part
  /// of it that its child spans cover.
  std::vector<double> self_times(const std::string& name) const;

  void write(const fs::path& path) const;

 private:
  struct Span {
    std::string name;
    std::string request;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  std::int64_t now_ns() const;

  bool on_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when tracing is off.
class Scoped {
 public:
  Scoped(Spans& s, std::string name, int parent = -1)
      : spans_(s), id_(s.open(std::move(name), parent)) {}
  ~Scoped() { spans_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Spans& spans_;
  int id_;
};

// ---------------------------------------------------------------------------
// wfqd as a child process.

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `binary args... --port 0` and waits for its "listening" line.
  /// Returns the seconds from fork to that line (the daemon's set-up time).
  double start(const fs::path& binary, const std::vector<std::string>& args);
  /// SIGTERM, then waits for the exit (SIGKILL after a grace period).
  /// Returns true when the daemon exited 0.
  bool stop();
  std::uint16_t port() const noexcept { return port_; }
  /// Resident set size of the daemon in bytes (VmRSS).
  double rss_bytes() const;

 private:
  int pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

double rss_bytes_of(const std::string& pid);  // "self" or a number

/// A client with retries off: a refused or dropped request is a failure.
wflog::server::ClientOptions no_retry_client();

/// GET + parse_json; throws on a non-200 status.
wflog::server::JsonValue get_json(wflog::server::HttpClient& c,
                                  const std::string& target);

/// Result-cache hits / lookups between two /stats snapshots (0 if none).
double cache_hit_ratio(const wflog::server::JsonValue& before,
                       const wflog::server::JsonValue& after);

// ---------------------------------------------------------------------------
// Open-loop generator: request i is due at t0 + i / rate. `conns` threads,
// each with its own keep-alive connection, take the next due request,
// sleep until it is due and send it. Latency counts from the due time, so a
// stall also delays the requests queued behind it.

struct OpSample {
  double latency_ms = 0;  // completion - due
  double late_ms = 0;     // send - due
  double client_us = 0;   // completion - send
  bool ok = false;
};

/// `send(i, client, conn)` performs request i and returns true when the
/// answer is correct; it may throw (counted as a failure). `between(conn,
/// client)` runs after each request on that connection (traced runs poll
/// the server there); may be empty.
std::vector<OpSample> open_loop(
    double rate, double seconds, unsigned conns, std::uint16_t port,
    const std::function<bool(std::size_t, wflog::server::HttpClient&,
                             unsigned)>& send,
    const std::function<void(unsigned, wflog::server::HttpClient&)>& between =
        {});

std::vector<double> latencies(const std::vector<OpSample>& s);
std::vector<double> lateness(const std::vector<OpSample>& s);
std::uint64_t failures(const std::vector<OpSample>& s);

/// Collects /debug/requests records by sequence number across polls (the
/// server keeps only the last 256).
class RequestLog {
 public:
  void poll(wflog::server::HttpClient& c);
  /// Breakdown field `name` of the 200 records whose path starts with
  /// `path`.
  std::vector<double> field(const std::string& path,
                            const std::string& name) const;
  /// wall_us by request id, for matching client spans. (queue_us is not
  /// subtracted: wfqd starts it when an idle keep-alive connection is
  /// re-queued, which can be before the client sent the request.)
  std::map<std::string, double> wall_by_id() const;

 private:
  mutable std::mutex mu_;
  std::map<std::int64_t, wflog::server::JsonValue> records_;
};

std::uintmax_t dir_bytes(const fs::path& dir);
void copy_dir(const fs::path& from, const fs::path& to);

}  // namespace perfbench
