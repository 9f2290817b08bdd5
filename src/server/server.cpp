#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.h"
#include "obs/telemetry.h"

namespace wflog::server {
namespace {

using Clock = std::chrono::steady_clock;

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Closes a rejected/finished connection without racing the client: half-
/// close our side, briefly drain whatever the client already sent (so the
/// kernel does not RST our in-flight response away), then close.
void close_gently(SocketIo& io, int fd) noexcept {
  io.shutdown(fd, SHUT_WR);
  std::string sink;
  for (int i = 0; i < 5; ++i) {
    if (poll_readable(io, fd, 10) != 1) break;
    if (recv_some(io, fd, sink) <= 0) break;
    if (sink.size() > 64 * 1024) break;  // don't sink forever
    sink.clear();
  }
  io.close(fd);
}

/// Client-supplied X-Request-Id values reach the access log and the
/// /debug endpoints verbatim, so constrain them: printable ASCII minus
/// space, capped at 64 chars (no log injection, no unbounded ids).
std::string sanitize_request_id(std::string_view v) {
  std::string out;
  for (char c : v) {
    if (out.size() >= 64) break;
    const unsigned char u = static_cast<unsigned char>(c);
    if (u > 0x20 && u < 0x7f) out += c;
  }
  return out;
}

RequestRecord make_record(const RequestContext& ctx, const HttpRequest* req,
                          int status, std::size_t bytes, bool dropped) {
  RequestRecord rec;
  rec.seq = ctx.seq;
  rec.id = ctx.id;
  if (req != nullptr) {
    rec.method = req->method;
    rec.target = req->target;
  }
  rec.status = status;
  rec.bytes = bytes;
  rec.dropped = dropped;
  rec.queue_us = ctx.queue_us;
  rec.parse_us = ctx.parse_us;
  rec.cache_us = ctx.cache_us;
  rec.eval_us = ctx.eval_us;
  rec.serialize_us = ctx.serialize_us;
  rec.wall_us = ctx.wall_us;
  rec.cache = ctx.cache;
  rec.shards = ctx.shards;
  rec.canonical_key = ctx.canonical_key;
  rec.stop_reason = ctx.stop_reason;
  return rec;
}

}  // namespace

// ----- Router --------------------------------------------------------------

void Router::add(std::string method, std::string path, Handler handler) {
  routes_.push_back(Route{std::move(method), std::move(path),
                          std::move(handler), /*prefix=*/false});
}

void Router::add_prefix(std::string method, std::string prefix,
                        Handler handler) {
  routes_.push_back(Route{std::move(method), std::move(prefix),
                          std::move(handler), /*prefix=*/true});
}

HttpResponse Router::dispatch(const HttpRequest& req,
                              RequestContext& ctx) const {
  bool path_seen = false;
  for (const Route& r : routes_) {
    if (r.prefix || r.path != req.target) continue;
    path_seen = true;
    if (r.method == req.method) return r.handler(req, ctx);
  }
  for (const Route& r : routes_) {
    if (!r.prefix || req.target.rfind(r.path, 0) != 0) continue;
    path_seen = true;
    if (r.method == req.method) return r.handler(req, ctx);
  }
  if (path_seen) {
    return HttpResponse::error(405, "method " + req.method +
                                        " not allowed on " + req.target);
  }
  return HttpResponse::error(404, "no such endpoint: " + req.target);
}

// ----- HttpServer ----------------------------------------------------------

HttpServer::HttpServer(Router router, ServerOptions options)
    : router_(std::move(router)), options_(std::move(options)) {
  options_.threads = std::max<std::size_t>(options_.threads, 1);
  options_.queue_capacity = std::max<std::size_t>(options_.queue_capacity, 1);
  queue_ = std::make_unique<BoundedQueue<Conn>>(options_.queue_capacity);
  if (options_.lane_capacity > 0) {
    lane_queue_ = std::make_unique<BoundedQueue<Conn>>(options_.lane_capacity);
  }
}

HttpServer::~HttpServer() {
  if (started_ && !joined_) {
    request_shutdown();
    wait();
  }
  close_fd(listen_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
}

void HttpServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw IoError(std::string("socket() failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    close_fd(listen_fd_);
    throw IoError("invalid bind address '" + options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<::sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    close_fd(listen_fd_);
    throw IoError("bind to " + options_.bind_address + ":" +
                  std::to_string(options_.port) + " failed: " + why);
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    const std::string why = std::strerror(errno);
    close_fd(listen_fd_);
    throw IoError("listen failed: " + why);
  }

  // Resolve --port 0 (ephemeral) to the port the OS actually picked, so
  // tests and scripts can always run collision-free.
  ::socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<::sockaddr*>(&addr),
                    &len) != 0) {
    const std::string why = std::strerror(errno);
    close_fd(listen_fd_);
    throw IoError("getsockname failed: " + why);
  }
  port_ = ntohs(addr.sin_port);

  if (::pipe(wake_pipe_) != 0) {
    const std::string why = std::strerror(errno);
    close_fd(listen_fd_);
    throw IoError("pipe failed: " + why);
  }

  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (lane_queue_ != nullptr) {
    lane_thread_ = std::thread([this] { lane_loop(); });
  }
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  // A shutdown requested before the wake pipe existed (a signal during
  // boot, possibly on another thread) wrote no wake byte: write it now.
  if (draining_.load()) request_shutdown();
}

void HttpServer::request_shutdown() noexcept {
  // Signal-handler safe: one atomic store + one pipe write, nothing else.
  draining_.store(true);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'q';
    [[maybe_unused]] const ::ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void HttpServer::wait() {
  if (!started_ || joined_) return;
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (lane_thread_.joinable()) lane_thread_.join();
  {
    std::lock_guard lock(drain_mu_);
    workers_done_ = true;
  }
  drain_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  joined_ = true;
}

void HttpServer::shutdown() {
  request_shutdown();
  wait();
}

ServerStats HttpServer::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.dropped_responses = dropped_.load(std::memory_order_relaxed);
  s.queue_depth = queue_->size();
  s.lane_served = lane_served_.load(std::memory_order_relaxed);
  return s;
}

void HttpServer::accept_loop() {
  while (!draining()) {
    ::pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int r = ::poll(fds, 2, -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // shutdown wake
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int fd = io().accept(listen_fd_);
    if (fd < 0) continue;  // transient (EINTR/EMFILE/injected): keep serving
    accepted_.fetch_add(1, std::memory_order_relaxed);

    Conn conn;
    conn.fd = fd;
    conn.last_active = Clock::now();
    conn.enqueued = conn.last_active;
    if (queue_->try_push(std::move(conn))) continue;

    // Main queue full. Liveness probes and metric scrapes must still
    // answer, so overflow connections fall to the reserved lane — its
    // worker serves only /healthz and /metrics and answers everything
    // else with the 503 the connection would have gotten here.
    Conn overflow;
    overflow.fd = fd;
    overflow.last_active = Clock::now();
    overflow.enqueued = overflow.last_active;
    overflow.lane = true;
    if (lane_queue_ != nullptr && lane_queue_->try_push(std::move(overflow))) {
      continue;
    }

    // Lane full too (or disabled): shed at the door with an explicit
    // retry hint rather than queuing unboundedly.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    WFLOG_TELEMETRY(t) {
      t->metrics
          .counter("wflog_http_rejected_total",
                   "Connections shed with 503 (request queue full)")
          ->inc();
    }
    HttpResponse resp =
        HttpResponse::error(503, "server overloaded, try again");
    resp.extra_headers.emplace_back("retry-after", "1");
    send_all(io(), fd, serialize_response(resp, false));
    close_gently(io(), fd);
  }

  // Shutdown: refuse new connections, close what never got a worker, and
  // give in-flight requests their grace period.
  close_fd(listen_fd_);
  queue_->close();
  for (Conn& conn : queue_->drain()) io().close(conn.fd);
  if (lane_queue_ != nullptr) {
    lane_queue_->close();
    for (Conn& conn : lane_queue_->drain()) io().close(conn.fd);
  }

  std::unique_lock lock(drain_mu_);
  const bool drained = drain_cv_.wait_for(
      lock, std::chrono::milliseconds(options_.drain_timeout_ms),
      [&] { return workers_done_; });
  if (!drained && options_.drain_cancel != nullptr) {
    // Grace period expired: cooperatively cancel in-flight evaluations.
    // Workers still write out the (partial) responses before exiting.
    options_.drain_cancel->store(true);
  }
}

void HttpServer::worker_loop() {
  while (std::optional<Conn> item = queue_->pop()) {
    Conn conn = std::move(*item);
    const double queue_us =
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  conn.enqueued)
            .count();
    if (draining() && conn.buf.empty()) {
      // Admitted but never started; during drain just let it go.
      io().close(conn.fd);
      continue;
    }
    if (serve_one(conn, queue_us)) {
      const int fd = conn.fd;
      conn.enqueued = Clock::now();
      if (!queue_->try_push(std::move(conn))) io().close(fd);
    } else {
      close_gently(io(), conn.fd);
    }
  }
}

void HttpServer::lane_loop() {
  // The reserved lane: one dedicated worker, one request per connection,
  // never re-queued — a full worker pool can't starve liveness probes.
  while (std::optional<Conn> item = lane_queue_->pop()) {
    Conn conn = std::move(*item);
    const double queue_us =
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  conn.enqueued)
            .count();
    if (draining() && conn.buf.empty()) {
      io().close(conn.fd);
      continue;
    }
    serve_one(conn, queue_us);  // lane connections never keep-alive
    close_gently(io(), conn.fd);
  }
}

bool HttpServer::serve_one(Conn& conn, double queue_us) {
  // Nothing buffered: take one short slice to see if the client is
  // talking. Idle keep-alive connections get re-queued (round-robin
  // across workers) until idle_timeout_ms, not camped on.
  if (conn.buf.empty()) {
    const int r = poll_readable(io(), conn.fd, draining() ? 0 : 20);
    if (r < 0) return false;
    if (r == 0) {
      if (draining()) return false;
      if (conn.lane) {
        // A lane probe that has not spoken yet gets one io_timeout wait
        // (it is not re-queued, so idling here would close it instantly).
        if (poll_readable(io(), conn.fd, options_.io_timeout_ms) != 1) {
          return false;
        }
      } else {
        return Clock::now() - conn.last_active <
               std::chrono::milliseconds(options_.idle_timeout_ms);
      }
    }
    const long n = recv_some(io(), conn.fd, conn.buf);
    if (n <= 0) return false;  // orderly close or error
  }
  conn.last_active = Clock::now();

  RequestContext ctx;
  ctx.queue_us = queue_us;

  // One request is in flight: finish reading it within io_timeout_ms.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.io_timeout_ms);
  HttpRequest req;
  std::string parse_error;
  while (true) {
    const ParseState state =
        parse_request(conn.buf, req, options_.limits, parse_error);
    if (state == ParseState::kDone) break;
    if (state != ParseState::kNeedMore) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      const int status = state == ParseState::kBodyTooLarge  ? 413
                         : state == ParseState::kHeaderTooLarge ? 431
                                                                : 400;
      if (send_all(io(), conn.fd,
                   serialize_response(
                       HttpResponse::error(status, parse_error), false))) {
        served_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) {
      // Client too slow: the request never completed, no response will be
      // written. Count it and give the access log a distinct status (408)
      // instead of dropping it invisibly.
      count_dropped(&req, nullptr, ctx, 408);
      return false;
    }
    const int r = poll_readable(
        io(), conn.fd, static_cast<int>(std::min<long long>(left, 100)));
    if (r < 0) return false;
    if (r == 0) continue;
    if (recv_some(io(), conn.fd, conn.buf) <= 0) return false;
  }

  // Request identity: honor the client's X-Request-Id (sanitized) so a
  // caller can correlate its own logs with ours; otherwise mint one.
  ctx.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  ctx.id = sanitize_request_id(req.header("x-request-id"));
  if (ctx.id.empty()) ctx.id = "wfq-" + std::to_string(ctx.seq);

  HttpResponse resp;
  if (conn.lane && req.target != "/healthz" && req.target != "/metrics") {
    // The lane exists for liveness, not for jumping the admission queue:
    // a /query that lands here gets the same 503 the full queue implies.
    resp = HttpResponse::error(503, "server overloaded, try again");
    resp.extra_headers.emplace_back("retry-after", "1");
    rejected_.fetch_add(1, std::memory_order_relaxed);
  } else {
    resp = dispatch_instrumented(req, ctx);
    if (conn.lane) {
      lane_served_.fetch_add(1, std::memory_order_relaxed);
      WFLOG_TELEMETRY(t) {
        t->metrics
            .counter("wflog_server_lane_served_total",
                     "Liveness responses served via the reserved lane "
                     "while the main queue was full")
            ->inc();
      }
    }
  }
  resp.extra_headers.emplace_back("x-request-id", ctx.id);
  if (resp.streamer) {
    // Streamed response: write the chunked head, hand the connection to
    // the producer, then close — streams never keep-alive. A producer
    // exception or send failure drops the connection; the missing terminal
    // 0-chunk tells the client the stream was truncated.
    ChunkedWriter writer(io(), conn.fd);
    const bool head_ok =
        send_all(io(), conn.fd, serialize_stream_head(resp));
    bool producer_ok = false;
    if (head_ok) {
      try {
        resp.streamer(writer);
        producer_ok = true;
      } catch (...) {
        // close without the terminal chunk: the client sees truncation
      }
      if (producer_ok && !writer.failed()) writer.finish();
    }
    if (!head_ok || !producer_ok || writer.failed()) {
      count_dropped(&req, &resp, ctx, 499);
      return false;
    }
    if (options_.observer != nullptr) {
      options_.observer->record(
          make_record(ctx, &req, resp.status, writer.bytes_written(),
                      /*dropped=*/false),
          ctx);
    }
    served_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const bool keep = req.keep_alive() && !draining() && !conn.lane;
  const auto ser0 = Clock::now();
  const std::string wire = serialize_response(resp, keep);
  const double wire_us =
      std::chrono::duration<double, std::micro>(Clock::now() - ser0).count();
  ctx.serialize_us += wire_us;
  ctx.wall_us += wire_us;
  if (!send_all(io(), conn.fd, wire)) {
    // The handler ran but the response never reached the client — a
    // distinct failure from the 408 read timeout (status 499 in the log).
    count_dropped(&req, &resp, ctx, 499);
    return false;
  }
  if (options_.observer != nullptr) {
    options_.observer->record(
        make_record(ctx, &req, resp.status, resp.body.size(),
                    /*dropped=*/false),
        ctx);
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  conn.last_active = Clock::now();
  return keep;
}

void HttpServer::count_dropped(const HttpRequest* req,
                               const HttpResponse* resp, RequestContext& ctx,
                               int status) {
  dropped_.fetch_add(1, std::memory_order_relaxed);
  WFLOG_TELEMETRY(t) {
    t->metrics
        .counter("wflog_server_dropped_responses_total",
                 "Requests whose response was never delivered (slow-client "
                 "read timeout or failed write)")
        ->inc();
  }
  if (options_.observer == nullptr) return;
  if (ctx.id.empty()) {
    ctx.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    ctx.id = "wfq-" + std::to_string(ctx.seq);
  }
  options_.observer->record(
      make_record(ctx, req, status, resp != nullptr ? resp->body.size() : 0,
                  /*dropped=*/true),
      ctx);
}

HttpResponse HttpServer::dispatch_instrumented(const HttpRequest& req,
                                               RequestContext& ctx) {
  WFLOG_SPAN(span, "http.request");
  if (span.active()) {
    span.arg("method", req.method);
    span.arg("target", req.target);
    span.arg("request_id", ctx.id);
  }
  const auto t0 = Clock::now();
  HttpResponse resp;
  try {
    resp = router_.dispatch(req, ctx);
  } catch (const std::exception& e) {
    resp = HttpResponse::error(500, e.what());
  }
  ctx.wall_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  WFLOG_TELEMETRY(t) {
    t->metrics
        .counter("wflog_http_requests_total", "HTTP requests dispatched")
        ->inc();
    t->metrics
        .histogram("wflog_http_request_seconds",
                   obs::default_latency_bounds(),
                   "HTTP request handling latency")
        ->observe(std::chrono::duration<double>(Clock::now() - t0).count());
    if (resp.status >= 400) {
      t->metrics
          .counter("wflog_http_request_errors_total",
                   "HTTP responses with status >= 400")
          ->inc();
    }
  }
  if (span.active()) {
    span.arg("status", static_cast<std::uint64_t>(resp.status));
  }
  return resp;
}

}  // namespace wflog::server
