#pragma once

// HttpServer — wfqd's listener, worker pool, and admission control.
//
// Threading model: one accept thread + a fixed pool of `threads` workers
// sharing a BOUNDED connection queue. The unit of queued work is "one
// request on one connection": a worker pops a connection, serves at most
// one request, and (keep-alive) re-queues the connection — so N concurrent
// keep-alive clients round-robin fairly across a smaller pool instead of
// pinning workers. When the queue is full the accept loop answers a canned
// 503 with Retry-After and closes: load is shed at the door, bounded by
// queue_capacity + threads in-flight connections.
//
// Graceful shutdown (SIGINT/SIGTERM → request_shutdown(), signal-safe):
// the listener closes (new connections refused), queued-but-unstarted
// connections are closed, workers finish their in-flight request — a
// watchdog trips `drain_cancel` after drain_timeout_ms so a long
// evaluation returns its partial result instead of stalling exit — and
// wait() joins everything.
//
// The server is transport only: it owns no engine. Handlers are plain
// functions registered on a Router (handlers.h wires the query service).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/guard.h"
#include "server/http.h"
#include "server/observer.h"
#include "server/pool.h"
#include "server/sockio.h"

namespace wflog::server {

/// Handlers receive the request plus its RequestContext (observer.h) and
/// fill in the pipeline slice of the latency breakdown; transport-only
/// handlers can ignore the context.
using Handler = std::function<HttpResponse(const HttpRequest&, RequestContext&)>;

/// Exact-match method+path routing; unknown path → 404, known path with
/// the wrong method → 405. Prefix routes (add_prefix) serve paths with a
/// trailing id segment like "/subscribe/{id}"; exact routes win first.
class Router {
 public:
  void add(std::string method, std::string path, Handler handler);
  /// Matches any target that starts with `prefix` (the handler reads the
  /// remainder from req.target). Checked after all exact routes.
  void add_prefix(std::string method, std::string prefix, Handler handler);
  HttpResponse dispatch(const HttpRequest& req, RequestContext& ctx) const;

 private:
  struct Route {
    std::string method;
    std::string path;
    Handler handler;
    bool prefix = false;
  };
  std::vector<Route> routes_;
};

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral: the OS picks, port() reports
  std::size_t threads = 4;
  std::size_t queue_capacity = 64;  // pending connections before 503
  int io_timeout_ms = 5000;         // reading one request / blocking write
  int idle_timeout_ms = 30000;      // keep-alive connection max idle
  int drain_timeout_ms = 2000;      // shutdown: in-flight grace period
  HttpLimits limits;
  /// Tripped when the drain grace period expires; handlers thread it into
  /// RunLimits so in-flight evaluations stop cooperatively.
  CancelToken drain_cancel = make_cancel_token();
  /// Borrowed request observer (rings, histograms, access log); null =
  /// request observability off. Must outlive the server.
  RequestObserver* observer = nullptr;
  /// Borrowed socket seam; null = real syscalls. Tests inject a
  /// FaultSocketIo here to script network failures. Must outlive the
  /// server.
  SocketIo* io = nullptr;
  /// Reserved-lane depth for liveness traffic (/healthz, /metrics) when
  /// the main queue is full; 0 disables the lane (full queue = plain 503
  /// for everyone, the pre-lane behavior).
  std::size_t lane_capacity = 16;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t served = 0;        // responses written (any status)
  std::uint64_t rejected = 0;      // 503s shed at the door
  std::uint64_t bad_requests = 0;  // parse-level 4xx
  std::uint64_t dropped_responses = 0;  // slow-client read timeouts +
                                        // failed response writes
  std::uint64_t queue_depth = 0;   // connections waiting right now
  std::uint64_t lane_served = 0;   // liveness responses via the reserved
                                   // lane while the main queue was full
};

class HttpServer {
 public:
  HttpServer(Router router, ServerOptions options);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the accept + worker threads. Throws
  /// IoError on bind/listen failure (e.g. port in use).
  void start();
  /// The actual bound port (after start(); resolves port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Initiates graceful shutdown; safe from any thread AND from a signal
  /// handler (one atomic store + one pipe write). Honoured also when it
  /// comes before start(): the server then starts straight into drain.
  void request_shutdown() noexcept;
  /// Blocks until the server has fully drained and every thread joined.
  void wait();
  /// request_shutdown() + wait().
  void shutdown();

  bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }
  const CancelToken& drain_token() const noexcept {
    return options_.drain_cancel;
  }
  ServerStats stats() const;

 private:
  /// One keep-alive connection riding the queue between requests; buf
  /// carries partial reads / pipelined bytes across re-queues.
  struct Conn {
    int fd = -1;
    std::string buf;
    std::chrono::steady_clock::time_point last_active;
    /// When this connection last entered the queue — pop-minus-enqueued
    /// is the request's queue-wait slice of the latency breakdown.
    std::chrono::steady_clock::time_point enqueued;
    /// Riding the reserved liveness lane: only /healthz and /metrics are
    /// served (anything else gets the 503 it would have gotten at the
    /// door), and the connection closes after one response so the lane
    /// stays free for the next probe.
    bool lane = false;
  };

  SocketIo& io() const noexcept {
    return options_.io != nullptr ? *options_.io : real_socket_io();
  }

  void accept_loop();
  void worker_loop();
  void lane_loop();
  /// Serves at most one request; true to re-queue (keep-alive).
  /// `queue_us` is how long the connection waited for this worker.
  bool serve_one(Conn& conn, double queue_us);
  HttpResponse dispatch_instrumented(const HttpRequest& req,
                                     RequestContext& ctx);
  void count_dropped(const HttpRequest* req, const HttpResponse* resp,
                     RequestContext& ctx, int status);

  Router router_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::atomic<bool> draining_{false};
  std::unique_ptr<BoundedQueue<Conn>> queue_;
  std::unique_ptr<BoundedQueue<Conn>> lane_queue_;  // null when lane off
  std::thread accept_thread_;
  std::thread lane_thread_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool joined_ = false;

  // Drain rendezvous: after shutdown begins, the accept thread doubles as
  // the watchdog — it waits here for the workers to finish and trips
  // drain_cancel if the grace period expires first.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  bool workers_done_ = false;

  mutable std::atomic<std::uint64_t> accepted_{0};
  mutable std::atomic<std::uint64_t> served_{0};
  mutable std::atomic<std::uint64_t> rejected_{0};
  mutable std::atomic<std::uint64_t> bad_requests_{0};
  mutable std::atomic<std::uint64_t> dropped_{0};
  mutable std::atomic<std::uint64_t> lane_served_{0};
  std::atomic<std::uint64_t> next_seq_{1};  // request ids: "wfq-<seq>"
};

}  // namespace wflog::server
