// Chaos torture harness for wfqd (ISSUE: chaos-hardened server). Three
// fault seams are scripted deterministically and crossed:
//
//   * FaultSocketIo (server/sockio.h): EINTR/EAGAIN storms, ECONNRESET
//     mid-request, short reads/writes, accept failures, slow-loris delays —
//     injected into a live HttpServer and driven by concurrent clients.
//   * FaultIo (log/fileio.h): store write errors and simulated power loss
//     under every crash-loss model, triggering wfqd's degraded mode.
//   * Both at once ("combined chaos").
//
// The invariants, checked after every matrix cell:
//
//   * the server neither crashes nor hangs — every connection gets a
//     well-formed HTTP response or a clean close (client-visible IoError);
//   * zero acked-record loss: every /ingest event acknowledged in a
//     response body ("applied") survives degrade/recover cycles;
//   * the health state machine walks healthy -> degraded -> recovering ->
//     healthy, observable via /healthz JSON and wflog_server_health_*
//     metrics, and the snapshot version strictly increases on recovery;
//   * once faults clear, the server returns to healthy and serves writes.
//
// Registered under the `torture` ctest label (run_ci.sh runs it plain and
// under ThreadSanitizer).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "log/fileio.h"
#include "log/store.h"
#include "obs/telemetry.h"
#include "server/client.h"
#include "server/handlers.h"
#include "server/health.h"
#include "server/json.h"
#include "server/server.h"
#include "server/sockio.h"
#include "test_util.h"

namespace wflog {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ----- FaultSocketIo unit tests -------------------------------------------

/// A connected socketpair for driving the seam without a server.
struct Pair {
  int a = -1;
  int b = -1;
  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~Pair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(FaultSocketIoTest, PassesThroughWhenUnfaulted) {
  Pair p;
  server::FaultSocketIo io;
  ASSERT_EQ(io.send(p.a, "hi", 2), 2);
  char buf[8];
  ASSERT_EQ(io.recv(p.b, buf, sizeof buf), 2);
  EXPECT_EQ(std::string(buf, 2), "hi");
  EXPECT_EQ(io.stats().injected, 0u);
  EXPECT_EQ(io.stats().ops, 2u);
}

TEST(FaultSocketIoTest, ShortReadClampsRecv) {
  Pair p;
  server::FaultSocketIo io;
  server::SocketFault f;
  f.op = server::SocketFault::Op::kRecv;
  f.kind = server::SocketFault::Kind::kShortRead;
  f.at_op = 1;
  f.count = server::kStickySocket;
  f.max_bytes = 1;
  io.add_fault(f);
  ASSERT_EQ(io.send(p.a, "abc", 3), 3);
  char buf[8];
  // Trickled in one byte per recv, but nothing is lost.
  std::string got;
  while (got.size() < 3) {
    const long n = io.recv(p.b, buf, sizeof buf);
    ASSERT_EQ(n, 1);
    got.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(got, "abc");
  EXPECT_GE(io.stats().injected, 3u);
}

TEST(FaultSocketIoTest, EintrWindowThenClean) {
  Pair p;
  server::FaultSocketIo io;
  server::SocketFault f;
  f.op = server::SocketFault::Op::kRecv;
  f.kind = server::SocketFault::Kind::kEintr;
  f.at_op = 1;
  f.count = 3;
  io.add_fault(f);
  ASSERT_EQ(io.send(p.a, "x", 1), 1);
  char buf[4];
  for (int i = 0; i < 3; ++i) {
    errno = 0;
    EXPECT_EQ(io.recv(p.b, buf, sizeof buf), -1);
    EXPECT_EQ(errno, EINTR);
  }
  EXPECT_EQ(io.recv(p.b, buf, sizeof buf), 1);  // window passed
}

TEST(FaultSocketIoTest, FaultsCountPerFilterIndependently) {
  Pair p;
  server::FaultSocketIo io;
  server::SocketFault on_send;
  on_send.op = server::SocketFault::Op::kSend;
  on_send.kind = server::SocketFault::Kind::kConnReset;
  on_send.at_op = 2;  // second SEND, regardless of interleaved recvs
  io.add_fault(on_send);

  char buf[4];
  ASSERT_EQ(io.send(p.a, "1", 1), 1);  // send #1: clean
  ASSERT_EQ(io.recv(p.b, buf, sizeof buf), 1);
  errno = 0;
  EXPECT_EQ(io.send(p.a, "2", 1), -1);  // send #2: reset
  EXPECT_EQ(errno, ECONNRESET);
  ASSERT_EQ(io.send(p.a, "3", 1), 1);  // window passed
}

TEST(FaultSocketIoTest, ClearFaultsHealsAndResetsCounters) {
  Pair p;
  server::FaultSocketIo io;
  server::SocketFault f;
  f.kind = server::SocketFault::Kind::kEagain;
  f.at_op = 1;
  f.count = server::kStickySocket;
  io.add_fault(f);
  errno = 0;
  EXPECT_EQ(io.send(p.a, "x", 1), -1);
  EXPECT_EQ(errno, EAGAIN);
  io.clear_faults();
  EXPECT_EQ(io.send(p.a, "x", 1), 1);
}

// The bounded-transient-retry contract (http.cpp): a sticky EINTR/EAGAIN
// storm must degrade to a clean failure, never a hang.
TEST(FaultSocketIoTest, StickyEintrStormFailsCleanlyThroughHelpers) {
  Pair p;
  server::FaultSocketIo io;
  server::SocketFault f;
  f.op = server::SocketFault::Op::kSend;
  f.kind = server::SocketFault::Kind::kEintr;
  f.at_op = 1;
  f.count = server::kStickySocket;
  io.add_fault(f);
  EXPECT_FALSE(server::send_all(io, p.a, "payload"));  // returns, not loops
}

// ----- HealthMonitor unit tests -------------------------------------------

struct TransitionLog {
  std::mutex mu;
  std::vector<std::pair<server::HealthState, server::HealthState>> seen;
  void operator()(server::HealthState from, server::HealthState to,
                  const std::string&) {
    std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(from, to);
  }
  std::vector<std::pair<server::HealthState, server::HealthState>> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return seen;
  }
};

TEST(HealthMonitorTest, WalksDegradedRecoveringHealthy) {
  std::atomic<int> probes{0};
  auto transitions = std::make_shared<TransitionLog>();
  server::HealthOptions opts;
  opts.backoff_initial = 5ms;
  opts.backoff_cap = 40ms;
  server::HealthMonitor hm(
      opts,
      [&](std::string* error) {
        // Fail the first two probes, then recover.
        if (probes.fetch_add(1) < 2) {
          if (error != nullptr) *error = "still broken";
          return false;
        }
        return true;
      },
      [transitions](server::HealthState from, server::HealthState to,
                    const std::string& detail) {
        (*transitions)(from, to, detail);
      });

  EXPECT_TRUE(hm.writable());
  hm.degrade("disk on fire");
  EXPECT_FALSE(hm.writable());

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (hm.state() != server::HealthState::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_EQ(hm.state(), server::HealthState::kHealthy);
  const server::HealthStats stats = hm.stats();
  EXPECT_EQ(stats.degradations, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GE(stats.attempts, 3u);
  EXPECT_FALSE(stats.gave_up);

  // The transition walk includes degraded -> recovering -> degraded (failed
  // probe) and ends recovering -> healthy.
  const auto seen = transitions->snapshot();
  ASSERT_GE(seen.size(), 2u);
  EXPECT_EQ(seen.front().first, server::HealthState::kHealthy);
  EXPECT_EQ(seen.front().second, server::HealthState::kDegraded);
  EXPECT_EQ(seen.back().first, server::HealthState::kRecovering);
  EXPECT_EQ(seen.back().second, server::HealthState::kHealthy);
}

TEST(HealthMonitorTest, GivesUpAfterMaxAttemptsAndStaysDegraded) {
  server::HealthOptions opts;
  opts.backoff_initial = 2ms;
  opts.backoff_cap = 8ms;
  opts.max_attempts = 3;
  server::HealthMonitor hm(opts, [](std::string* error) {
    if (error != nullptr) *error = "permanently broken";
    return false;
  });
  hm.degrade("boom");
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!hm.stats().gave_up &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  const server::HealthStats stats = hm.stats();
  EXPECT_TRUE(stats.gave_up);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(hm.state(), server::HealthState::kDegraded);
  EXPECT_EQ(stats.last_error, "permanently broken");

  // A fresh degrade() re-arms recovery (new outage, new attempt budget).
  hm.degrade("boom again");
  EXPECT_FALSE(hm.writable());
}

TEST(HealthMonitorTest, BackoffDoublesUpToCap) {
  server::HealthOptions opts;
  opts.backoff_initial = 10ms;
  opts.backoff_cap = 35ms;
  std::atomic<bool> broken{true};
  server::HealthMonitor hm(opts, [&](std::string*) { return !broken.load(); });
  hm.degrade("x");
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (hm.stats().attempts < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  // After >= 3 failed probes the delay hit the cap: 10 -> 20 -> 35.
  EXPECT_EQ(hm.stats().next_backoff, 35ms);
  EXPECT_GE(hm.retry_after_seconds(), 1);
  broken = false;
}

// ----- live-server chaos fixture ------------------------------------------

/// TestServer variant owning the socket seam, the store fault seam, and a
/// tight recovery schedule, so each test scripts both layers.
struct ChaosServer {
  server::FaultSocketIo sockets;
  std::shared_ptr<FaultIo> disk;  // null when store-less
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::HttpServer> http;

  explicit ChaosServer(std::optional<Log> log,
                       std::optional<LogStore> store = std::nullopt,
                       std::shared_ptr<FaultIo> store_io = nullptr,
                       server::ServerOptions opts = {},
                       server::ServiceOptions svc = {}) {
    disk = std::move(store_io);
    opts.port = 0;
    opts.io = &sockets;
    svc.recovery_backoff_ms = 10;
    svc.recovery_backoff_cap_ms = 80;
    service = std::make_unique<server::QueryService>(
        std::move(log), std::move(svc), opts.drain_cancel, std::move(store));
    server::Router router;
    service->bind(router);
    http = std::make_unique<server::HttpServer>(std::move(router),
                                                std::move(opts));
    service->attach_server(http.get());
    http->start();
  }

  ~ChaosServer() {
    if (http != nullptr) http->shutdown();
  }

  server::HttpClient client(int timeout_ms = 5000) const {
    return server::HttpClient("127.0.0.1", http->port(), timeout_ms);
  }

  server::JsonValue healthz_json(server::HttpClient& c) const {
    const server::ClientResponse r =
        c.get("/healthz", {{"accept", "application/json"}});
    EXPECT_EQ(r.status, 200);
    return server::parse_json(r.body);
  }

  /// Polls /healthz until health.state == `want` (own connection, so the
  /// caller's client state is untouched). False on timeout.
  bool await_state(const std::string& want,
                   std::chrono::milliseconds limit = 5s) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
      try {
        server::HttpClient c = client();
        const server::JsonValue v = healthz_json(c);
        const server::JsonValue* health = v.find("health");
        if (health != nullptr && !health->is_null() &&
            health->find("state")->as_string() == want) {
          return true;
        }
      } catch (const IoError&) {
        // transient (socket faults may still be armed); retry
      }
      std::this_thread::sleep_for(5ms);
    }
    return false;
  }
};

Log small_log() { return testing::make_log("a b c ; c b a ; a c b"); }

std::string ingest_one(int k) {
  return std::string(R"({"events": [
    {"op": "begin"},
    {"op": "record", "wid": )") +
         std::to_string(k) + R"(, "activity": "a"},
    {"op": "end", "wid": )" +
         std::to_string(k) + R"(}
  ]})";
}

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("wflog-server-torture-" + tag + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

LogStore::Options chaos_store_options(std::shared_ptr<FileIo> io) {
  LogStore::Options options;
  options.records_per_segment = 4;  // exercise segment rolls mid-chaos
  options.max_io_retries = 0;       // faults are not transient; fail fast
  options.retry_backoff = std::chrono::milliseconds{0};
  options.io = std::move(io);
  return options;
}

// ----- socket-fault torture matrix ----------------------------------------

// Every scripted fault cell must end in a well-formed response or a clean
// client-visible error; the server must survive all cells and serve a
// clean request afterwards.
TEST(ServerTortureTest, SocketFaultMatrixNoCrashNoHang) {
  ChaosServer cs(small_log());

  struct Cell {
    server::SocketFault::Op op;
    server::SocketFault::Kind kind;
    std::size_t count;
  };
  std::vector<Cell> cells;
  using Op = server::SocketFault::Op;
  using Kind = server::SocketFault::Kind;
  for (const Op op : {Op::kRecv, Op::kSend}) {
    for (const Kind kind : {Kind::kEintr, Kind::kEagain, Kind::kConnReset}) {
      cells.push_back({op, kind, 1});
      cells.push_back({op, kind, 4});
    }
  }
  cells.push_back({Op::kRecv, Kind::kShortRead, server::kStickySocket});
  cells.push_back({Op::kSend, Kind::kShortWrite, server::kStickySocket});
  cells.push_back({Op::kRecv, Kind::kDelay, 2});
  cells.push_back({Op::kAccept, Kind::kAcceptFail, 2});

  int responses = 0;
  int clean_failures = 0;
  for (std::size_t at = 1; at <= 4; ++at) {
    for (const Cell& cell : cells) {
      cs.sockets.clear_faults();
      server::SocketFault f;
      f.op = cell.op;
      f.kind = cell.kind;
      f.at_op = at;
      f.count = cell.count;
      f.max_bytes = 3;
      f.delay_ms = 10;
      cs.sockets.add_fault(f);
      try {
        server::HttpClient c = cs.client(2000);
        const server::ClientResponse q =
            c.post("/query", R"({"query": "a -> b"})");
        // Well-formed response: a known status and parseable JSON body.
        EXPECT_TRUE(q.status == 200 || q.status == 503) << q.status;
        if (q.status == 200) {
          EXPECT_GE(server::parse_json(q.body).find("total")->as_int(), 0);
        }
        ++responses;
      } catch (const IoError&) {
        ++clean_failures;  // clean close — acceptable under ECONNRESET etc.
      }
    }
  }
  EXPECT_GT(responses, 0);

  // Faults gone: the server is intact and fully serving.
  cs.sockets.clear_faults();
  server::HttpClient c = cs.client();
  const server::ClientResponse ok = c.post("/query", R"({"query": "a"})");
  ASSERT_EQ(ok.status, 200) << ok.body;
  EXPECT_GT(cs.sockets.stats().injected, 0u);
  // A cell whose client gave up (timeout) can leave its request still
  // draining server-side; give stragglers a moment before declaring
  // nothing wedged.
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cs.http->stats().queue_depth != 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(cs.http->stats().queue_depth, 0u);  // nothing wedged
}

// Concurrent clients hammering a server whose sockets misbehave under
// sticky trickle faults: every request resolves (response or clean error),
// nothing deadlocks, and the server drains cleanly afterwards.
TEST(ServerTortureTest, ConcurrentClientsUnderSocketChaos) {
  server::ServerOptions opts;
  opts.threads = 4;
  opts.queue_capacity = 32;
  ChaosServer cs(small_log(), std::nullopt, nullptr, std::move(opts));

  using Op = server::SocketFault::Op;
  using Kind = server::SocketFault::Kind;
  // A rotating storm: trickled reads, short writes, periodic resets.
  for (std::size_t at : {2u, 5u, 9u, 14u}) {
    server::SocketFault reset;
    reset.op = Op::kRecv;
    reset.kind = Kind::kConnReset;
    reset.at_op = at * 7;
    cs.sockets.add_fault(reset);
  }
  server::SocketFault trickle;
  trickle.op = Op::kRecv;
  trickle.kind = Kind::kShortRead;
  trickle.at_op = 1;
  trickle.count = server::kStickySocket;
  trickle.max_bytes = 16;
  cs.sockets.add_fault(trickle);
  server::SocketFault congested;
  congested.op = Op::kSend;
  congested.kind = Kind::kShortWrite;
  congested.at_op = 3;
  congested.count = server::kStickySocket;
  congested.max_bytes = 32;
  cs.sockets.add_fault(congested);

  constexpr int kThreads = 6;
  constexpr int kRequests = 20;
  std::atomic<int> responses{0};
  std::atomic<int> clean_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cs, &responses, &clean_failures] {
      for (int i = 0; i < kRequests; ++i) {
        try {
          server::HttpClient c = cs.client(3000);
          const server::ClientResponse r =
              c.post("/query", R"({"query": "a -> b"})");
          EXPECT_TRUE(r.status == 200 || r.status == 503) << r.status;
          responses.fetch_add(1);
        } catch (const IoError&) {
          clean_failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(responses + clean_failures, kThreads * kRequests);
  EXPECT_GT(responses.load(), 0);

  cs.sockets.clear_faults();
  server::HttpClient c = cs.client();
  EXPECT_EQ(c.get("/healthz").status, 200);
}

// ----- store-failure degraded mode ----------------------------------------

// The headline storyline: a store write fault degrades the daemon to
// read-only; reads keep serving the last good snapshot; the health state
// machine is observable via /healthz and /metrics; healing the disk brings
// it back with zero acked-record loss — across MULTIPLE outage cycles.
TEST(ServerTortureTest, DegradeServeReadOnlyRecoverRepeatedly) {
  // /metrics needs the ambient registry (wfqd always installs one); the
  // health gauges land there too.
  obs::Telemetry telemetry;
  obs::ScopedTelemetry installed(telemetry);
  const bool obs_on = obs::telemetry() != nullptr;
  const fs::path dir = fresh_dir("cycles");
  auto disk = std::make_shared<FaultIo>();
  ChaosServer cs(std::nullopt, LogStore::create(dir, chaos_store_options(disk)),
                 disk);
  server::HttpClient c = cs.client();

  std::int64_t acked_events = 0;
  std::int64_t last_version = 0;
  // LogMonitor assigns wids sequentially and recovery rolls the sequence
  // back to the acked (durable) content, so the next instance's wid is
  // "acked begins so far" + 1 — an ingest whose begin was acked advances it.
  int begun = 0;

  const auto ingest_next = [&]() -> server::ClientResponse {
    const server::ClientResponse r = c.post("/ingest", ingest_one(begun + 1));
    // The degraded-gate 503 is a plain error body with no "applied";
    // abort-path 503s and 200s report what durably landed.
    const server::JsonValue body = server::parse_json(r.body);
    const server::JsonValue* applied = body.find("applied");
    if (applied != nullptr) {
      acked_events += applied->as_int();
      if (applied->as_int() >= 1) ++begun;  // the begin is the first event
    }
    return r;
  };

  for (int cycle = 0; cycle < 3; ++cycle) {
    // Healthy: writes land durably.
    ASSERT_EQ(ingest_next().status, 200);
    ASSERT_EQ(ingest_next().status, 200);

    {
      const server::JsonValue v = cs.healthz_json(c);
      EXPECT_EQ(v.find("status")->as_string(), "ok");
      const std::int64_t version = v.find("snapshot_version")->as_int();
      EXPECT_GT(version, last_version);
      last_version = version;
    }

    // Break the disk: the next durable append fails, degrading the server.
    // A partial failing request may still ack a durable prefix — counted
    // by ingest_next either way.
    FaultIo::Fault fault;
    fault.at_op = disk->ops() + 1;
    fault.kind = FaultIo::Fault::Kind::kError;
    fault.count = FaultIo::Fault::kSticky;
    disk->set_fault(fault);
    const server::ClientResponse broken = ingest_next();
    ASSERT_EQ(broken.status, 503) << broken.body;
    ASSERT_NE(broken.header("retry-after"), nullptr);

    // Degraded: reads keep working off the last good snapshot, writes 503.
    const server::ClientResponse q = c.post("/query", R"({"query": "a"})");
    EXPECT_EQ(q.status, 200) << q.body;
    const server::ClientResponse refused = ingest_next();
    EXPECT_EQ(refused.status, 503) << refused.body;
    EXPECT_NE(refused.header("retry-after"), nullptr);
    {
      const server::JsonValue v = cs.healthz_json(c);
      const std::string status = v.find("status")->as_string();
      EXPECT_TRUE(status == "degraded" || status == "recovering") << status;
      const server::JsonValue* health = v.find("health");
      ASSERT_FALSE(health->is_null());
      EXPECT_FALSE(health->find("writable")->as_bool());
      EXPECT_EQ(health->find("degradations")->as_int(), cycle + 1);
    }
    // Plain probes still answer 200 but name the state.
    const server::ClientResponse plain = c.get("/healthz");
    EXPECT_EQ(plain.status, 200);
    EXPECT_NE(plain.body, "ok\n");

    // The metric gauge exports the non-healthy state (unless this build
    // compiled observability out entirely).
    if (obs_on) {
      const server::ClientResponse metrics = c.get("/metrics");
      ASSERT_EQ(metrics.status, 200);
      EXPECT_NE(metrics.body.find("wflog_server_health_state"),
                std::string::npos);
      EXPECT_NE(metrics.body.find("wflog_server_health_degradations_total"),
                std::string::npos);
    }

    // Heal the disk; background recovery reopens the store and republishes.
    disk->clear_fault();
    ASSERT_TRUE(cs.await_state("healthy")) << "cycle " << cycle;

    // Recovery published a strictly newer snapshot with every acked record.
    const server::JsonValue v = cs.healthz_json(c);
    EXPECT_EQ(v.find("status")->as_string(), "ok");
    const std::int64_t version = v.find("snapshot_version")->as_int();
    EXPECT_GT(version, last_version);
    last_version = version;
    EXPECT_EQ(v.find("records")->as_int(), acked_events);
    EXPECT_TRUE(v.find("health")->find("writable")->as_bool());
    EXPECT_EQ(v.find("health")->find("recoveries")->as_int(), cycle + 1);
  }

  // The full history survives on disk, not just in memory.
  cs.http->shutdown();
  cs.service.reset();
  LogStore store = LogStore::open(dir);
  EXPECT_EQ(static_cast<std::int64_t>(store.num_records()), acked_events);
  fs::remove_all(dir);
}

// Crash-during-active-session coverage: a simulated power loss at every
// early op boundary x every loss model, with the wfqd session staying up.
// Acked records always survive recovery and the snapshot version strictly
// increases.
TEST(ServerTortureTest, CrashDuringSessionLosesNoAckedRecords) {
  for (const FaultIo::CrashLoss loss :
       {FaultIo::CrashLoss::kKeepAll, FaultIo::CrashLoss::kDropUnsynced,
        FaultIo::CrashLoss::kTornHalf}) {
    for (const std::uint64_t crash_after : {1u, 3u, 7u}) {
      const fs::path dir = fresh_dir(
          "crash-" + std::to_string(static_cast<int>(loss)) + "-" +
          std::to_string(crash_after));
      auto disk = std::make_shared<FaultIo>();
      ChaosServer cs(std::nullopt,
                     LogStore::create(dir, chaos_store_options(disk)), disk);
      server::HttpClient c = cs.client();

      // A little durable history before the lights go out. Wid accounting
      // mirrors the monitor: the next begin gets "acked begins" + 1.
      std::int64_t acked = 0;
      int begun = 0;
      // Snapshots the ingests published: one per request that durably
      // applied anything.
      std::int64_t published = 0;
      const auto ingest_next = [&]() -> server::ClientResponse {
        const server::ClientResponse r =
            c.post("/ingest", ingest_one(begun + 1));
        const server::JsonValue body = server::parse_json(r.body);
        const server::JsonValue* applied = body.find("applied");
        if (applied != nullptr) {
          acked += applied->as_int();
          if (applied->as_int() >= 1) {
            ++begun;
            ++published;
          }
        }
        return r;
      };
      ASSERT_EQ(ingest_next().status, 200);
      // Read while healthy, with no other writer: a defined version.
      const std::int64_t healthy_version =
          cs.healthz_json(c).find("snapshot_version")->as_int();
      published = 0;

      FaultIo::Fault fault;
      fault.at_op = disk->ops() + crash_after;
      fault.kind = FaultIo::Fault::Kind::kCrash;
      fault.loss = loss;
      disk->set_fault(fault);

      // Ingest until the crash fires (or the script ends). Acked = applied
      // counts from the response bodies, whatever the status.
      bool crashed = false;
      for (int i = 0; i < 4; ++i) {
        const server::ClientResponse r = ingest_next();
        if (r.status == 503) {
          crashed = true;
          break;
        }
        ASSERT_EQ(r.status, 200) << r.body;
      }
      ASSERT_TRUE(crashed) << "crash fault never fired";

      // The last snapshot before recovery's. Computed, not read: recovery
      // may already have republished by the time a /healthz could answer
      // (reopening a store whose tail is sealed needs no write, so it can
      // succeed before the fault is cleared).
      const std::int64_t degraded_version = healthy_version + published;

      // Power restored: recovery reopens through quarantine and republishes.
      disk->clear_fault();
      ASSERT_TRUE(cs.await_state("healthy"))
          << "loss=" << static_cast<int>(loss) << " after=" << crash_after;

      const server::JsonValue v = cs.healthz_json(c);
      EXPECT_GT(v.find("snapshot_version")->as_int(), degraded_version);
      // Zero acked-record loss. An unacked event may SURVIVE (the append
      // landed but the ack never left — e.g. kKeepAll, or a crash on the
      // fsync after the write), so >= is the contract, not ==.
      EXPECT_GE(v.find("records")->as_int(), acked)
          << "loss=" << static_cast<int>(loss) << " after=" << crash_after;
      // ...but never by more than the one request in flight at the crash.
      EXPECT_LE(v.find("records")->as_int(), acked + 3)
          << "loss=" << static_cast<int>(loss) << " after=" << crash_after;

      // The recovered store accepts new durable writes.
      const server::ClientResponse again =
          c.post("/ingest", R"({"events": [{"op": "begin"}]})");
      EXPECT_EQ(again.status, 200) << again.body;

      cs.http->shutdown();
      cs.service.reset();
      fs::remove_all(dir);
    }
  }
}

// Recovery reads the store through the FileIo its writes use. A crash that
// keeps every byte (kKeepAll) can leave a store whose reopen needs no
// write; while the power is off that reopen must still fail, so the
// service stays degraded until clear_fault().
TEST(ServerTortureTest, RecoveryWaitsForTheDiskAfterACrash) {
  const fs::path dir = fresh_dir("crash-wait");
  auto disk = std::make_shared<FaultIo>();
  ChaosServer cs(std::nullopt, LogStore::create(dir, chaos_store_options(disk)),
                 disk);
  server::HttpClient c = cs.client();
  ASSERT_EQ(c.post("/ingest", ingest_one(1)).status, 200);
  LogStore probe = LogStore::open(dir, chaos_store_options(disk));

  FaultIo::Fault fault;
  fault.at_op = disk->ops() + 7;
  fault.kind = FaultIo::Fault::Kind::kCrash;
  fault.loss = FaultIo::CrashLoss::kKeepAll;
  disk->set_fault(fault);
  bool crashed = false;
  for (int wid = 2; wid < 6 && !crashed; ++wid) {
    const server::ClientResponse r = c.post("/ingest", ingest_one(wid));
    crashed = r.status == 503;
    if (!crashed) {
      ASSERT_EQ(r.status, 200) << r.body;
    }
  }
  ASSERT_TRUE(crashed) << "crash fault never fired";
  ASSERT_TRUE(disk->crashed());

  EXPECT_THROW(probe.reopen_in_place(), IoError);
  // Recovery retries every 10-80 ms: many attempts fit in this window, and
  // none may succeed while the disk is off.
  std::this_thread::sleep_for(400ms);
  const server::JsonValue v = cs.healthz_json(c);
  EXPECT_NE(v.find("health")->find("state")->as_string(), "healthy")
      << v.dump();

  disk->clear_fault();
  ASSERT_TRUE(cs.await_state("healthy")) << cs.healthz_json(c).dump();

  cs.http->shutdown();
  cs.service.reset();
  fs::remove_all(dir);
}

// A request that fails part-way publishes only what became durable: the
// record whose store mirror failed is in no snapshot, no answer and no
// "records" count, while degraded or after recovery.
TEST(ServerTortureTest, PartlyFailedIngestPublishesOnlyDurableRecords) {
  const fs::path dir = fresh_dir("partial");
  auto disk = std::make_shared<FaultIo>();
  ChaosServer cs(std::nullopt, LogStore::create(dir, chaos_store_options(disk)),
                 disk);
  server::HttpClient c = cs.client();
  ASSERT_EQ(c.post("/ingest", ingest_one(1)).status, 200);  // 3 records

  // Fail the store from the 4th op on: ingest_one(2)'s begin lands, its
  // record does not.
  FaultIo::Fault fault;
  fault.at_op = disk->ops() + 4;
  fault.kind = FaultIo::Fault::Kind::kError;
  fault.count = FaultIo::Fault::kSticky;
  disk->set_fault(fault);
  const server::ClientResponse r = c.post("/ingest", ingest_one(2));
  ASSERT_EQ(r.status, 503) << r.body;
  const server::JsonValue body = server::parse_json(r.body);
  ASSERT_EQ(body.find("applied")->as_int(), 1) << r.body;
  const std::int64_t acked = 4;
  EXPECT_EQ(body.find("records")->as_int(), acked) << r.body;

  const auto check_published = [&](const char* phase) {
    const server::JsonValue h = cs.healthz_json(c);
    EXPECT_EQ(h.find("records")->as_int(), acked) << phase;
    const server::ClientResponse q = c.post("/query", R"({"query": "a"})");
    ASSERT_EQ(q.status, 200) << q.body;
    const server::JsonValue v = server::parse_json(q.body);
    EXPECT_EQ(v.find("total")->as_int(), 1) << phase << ": " << q.body;
    for (const server::JsonValue& g : v.find("incidents")->as_array()) {
      EXPECT_EQ(g.find("wid")->as_int(), 1) << phase << ": " << q.body;
    }
  };
  check_published("degraded");

  disk->clear_fault();
  ASSERT_TRUE(cs.await_state("healthy"));
  check_published("recovered");

  cs.http->shutdown();
  cs.service.reset();
  fs::remove_all(dir);
}

// A fault on the very first ingest leaves an empty store behind; recovery
// must publish it (the empty log) and return to healthy.
TEST(ServerTortureTest, FaultOnFirstIngestRecoversToEmptyHealthy) {
  const fs::path dir = fresh_dir("first-ingest");
  auto disk = std::make_shared<FaultIo>();
  ChaosServer cs(std::nullopt, LogStore::create(dir, chaos_store_options(disk)),
                 disk);
  server::HttpClient c = cs.client();

  FaultIo::Fault fault;
  fault.at_op = disk->ops() + 1;
  fault.kind = FaultIo::Fault::Kind::kError;
  fault.count = FaultIo::Fault::kSticky;
  disk->set_fault(fault);
  const server::ClientResponse r = c.post("/ingest", ingest_one(1));
  ASSERT_EQ(r.status, 503) << r.body;
  EXPECT_EQ(server::parse_json(r.body).find("applied")->as_int(), 0);

  disk->clear_fault();
  ASSERT_TRUE(cs.await_state("healthy"))
      << cs.healthz_json(c).dump();
  EXPECT_EQ(cs.healthz_json(c).find("records")->as_int(), 0);

  // And it ingests again, from wid 1.
  const server::ClientResponse again = c.post("/ingest", ingest_one(1));
  ASSERT_EQ(again.status, 200) << again.body;
  EXPECT_EQ(server::parse_json(again.body).find("records")->as_int(), 3);

  cs.http->shutdown();
  cs.service.reset();
  fs::remove_all(dir);
}

// Both seams at once: a broken disk AND a misbehaving network. Reads are
// ragged but never wrong, and after everything heals the server returns to
// healthy with every acked record intact.
TEST(ServerTortureTest, CombinedSocketAndStoreChaos) {
  const fs::path dir = fresh_dir("combined");
  auto disk = std::make_shared<FaultIo>();
  ChaosServer cs(std::nullopt, LogStore::create(dir, chaos_store_options(disk)),
                 disk);

  std::int64_t acked = 0;
  {
    server::HttpClient c = cs.client();
    const server::ClientResponse r = c.post("/ingest", ingest_one(1));
    ASSERT_EQ(r.status, 200) << r.body;
    acked += server::parse_json(r.body).find("applied")->as_int();
  }

  // Disk dies...
  FaultIo::Fault fault;
  fault.at_op = disk->ops() + 1;
  fault.kind = FaultIo::Fault::Kind::kError;
  fault.count = FaultIo::Fault::kSticky;
  disk->set_fault(fault);
  // ...and the network gets nasty at the same time.
  using Op = server::SocketFault::Op;
  using Kind = server::SocketFault::Kind;
  server::SocketFault trickle;
  trickle.op = Op::kRecv;
  trickle.kind = Kind::kShortRead;
  trickle.at_op = 1;
  trickle.count = server::kStickySocket;
  trickle.max_bytes = 24;
  cs.sockets.add_fault(trickle);
  server::SocketFault reset;
  reset.op = Op::kSend;
  reset.kind = Kind::kConnReset;
  reset.at_op = 11;
  reset.count = 2;
  cs.sockets.add_fault(reset);

  std::atomic<int> resolved{0};
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> chaos_acked{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cs, &resolved, &chaos_acked, t] {
      for (int i = 0; i < 10; ++i) {
        try {
          server::HttpClient c = cs.client(3000);
          if (t % 2 == 0) {
            const server::ClientResponse r =
                c.post("/query", R"({"query": "a"})");
            EXPECT_TRUE(r.status == 200 || r.status == 503) << r.status;
          } else {
            // Begin-only events: wid-free, so concurrent writers cannot
            // trip the monitor's sequential wid assignment.
            const server::ClientResponse r =
                c.post("/ingest", R"({"events": [{"op": "begin"}]})");
            EXPECT_TRUE(r.status == 200 || r.status == 503) << r.status;
            const server::JsonValue body = server::parse_json(r.body);
            const server::JsonValue* applied = body.find("applied");
            if (applied != nullptr) chaos_acked.fetch_add(applied->as_int());
          }
          resolved.fetch_add(1);
        } catch (const IoError&) {
          resolved.fetch_add(1);  // clean close also resolves the request
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(resolved.load(), 40);
  acked += chaos_acked.load();

  // Everything heals.
  cs.sockets.clear_faults();
  disk->clear_fault();
  ASSERT_TRUE(cs.await_state("healthy"));

  server::HttpClient c = cs.client();
  const server::JsonValue v = cs.healthz_json(c);
  EXPECT_EQ(v.find("status")->as_string(), "ok");
  EXPECT_EQ(v.find("records")->as_int(), acked);

  cs.http->shutdown();
  cs.service.reset();
  LogStore store = LogStore::open(dir);
  EXPECT_EQ(static_cast<std::int64_t>(store.num_records()), acked);
  fs::remove_all(dir);
}

// ----- standing queries under chaos ---------------------------------------

// Exactly-once delivery across store outages: a subscription registered
// before the first outage must, after any number of degrade/recover
// cycles, have delivered exactly the incident set a batch /query reports
// against the final durable snapshot — no loss, no duplicates, dense seqs.
TEST(ServerTortureTest, SubscriptionsSurviveDegradeRecoverExactlyOnce) {
  const fs::path dir = fresh_dir("subscribe-cycles");
  auto disk = std::make_shared<FaultIo>();
  ChaosServer cs(std::nullopt, LogStore::create(dir, chaos_store_options(disk)),
                 disk);
  server::HttpClient c = cs.client();

  int begun = 0;
  const auto ingest_next = [&]() -> server::ClientResponse {
    const server::ClientResponse r = c.post("/ingest", ingest_one(begun + 1));
    const server::JsonValue body = server::parse_json(r.body);
    const server::JsonValue* applied = body.find("applied");
    if (applied != nullptr && applied->as_int() >= 1) ++begun;
    return r;
  };

  ASSERT_EQ(ingest_next().status, 200);
  const server::ClientResponse sub =
      c.post("/subscribe", R"({"query": "a"})");
  ASSERT_EQ(sub.status, 201) << sub.body;
  const std::string sub_id =
      server::parse_json(sub.body).find("id")->as_string();

  // Collected (event seq, event body) pairs; acked as consumed.
  std::vector<std::int64_t> seqs;
  std::multiset<std::string> streamed;
  std::uint64_t cursor = 0;
  const auto drain = [&] {
    for (;;) {
      const server::ClientResponse r = c.get(
          "/subscribe/" + sub_id + "?after=" + std::to_string(cursor));
      ASSERT_EQ(r.status, 200) << r.body;
      const server::JsonValue v = server::parse_json(r.body);
      ASSERT_FALSE(v.find("closed")->as_bool()) << r.body;
      for (const server::JsonValue& e : v.find("events")->as_array()) {
        seqs.push_back(e.find("seq")->as_int());
        std::vector<std::string> positions;
        std::string frag =
            "\"wid\":" + std::to_string(e.find("wid")->as_int()) +
            ",\"positions\":[";
        bool first = true;
        for (const server::JsonValue& p : e.find("positions")->as_array()) {
          if (!first) frag += ',';
          first = false;
          frag += std::to_string(p.as_int());
        }
        streamed.insert(frag + "]");
      }
      cursor = static_cast<std::uint64_t>(v.find("next_after")->as_int());
      if (v.find("events")->as_array().empty() &&
          v.find("pending")->as_int() == 0) {
        return;
      }
    }
  };
  drain();  // the replayed history

  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_EQ(ingest_next().status, 200);
    drain();

    // Break the disk mid-stream. The failing request may still route a
    // durable prefix; drain() above and below accounts for either.
    FaultIo::Fault fault;
    fault.at_op = disk->ops() + 1;
    fault.kind = FaultIo::Fault::Kind::kError;
    fault.count = FaultIo::Fault::kSticky;
    disk->set_fault(fault);
    EXPECT_EQ(ingest_next().status, 503);

    // Degraded: delivery is paused (events retained, none lost) and new
    // registrations are refused — they could misalign replay bookkeeping.
    {
      const server::ClientResponse r = c.get(
          "/subscribe/" + sub_id + "?after=" + std::to_string(cursor));
      ASSERT_EQ(r.status, 200) << r.body;
      const server::JsonValue v = server::parse_json(r.body);
      EXPECT_TRUE(v.find("paused")->as_bool()) << r.body;
      EXPECT_TRUE(v.find("events")->as_array().empty());
      const server::ClientResponse refused =
          c.post("/subscribe", R"({"query": "a"})");
      EXPECT_EQ(refused.status, 503) << refused.body;
    }

    disk->clear_fault();
    ASSERT_TRUE(cs.await_state("healthy")) << "cycle " << cycle;
    ASSERT_EQ(ingest_next().status, 200);
    drain();
  }

  // The differential: streamed history == batch /query, byte for byte.
  const server::ClientResponse q = c.post("/query", R"({"query": "a"})");
  ASSERT_EQ(q.status, 200) << q.body;
  const server::JsonValue qv = server::parse_json(q.body);
  std::multiset<std::string> batch;
  for (const server::JsonValue& g : qv.find("incidents")->as_array()) {
    for (const server::JsonValue& o : g.find("incidents")->as_array()) {
      std::string frag =
          "\"wid\":" + std::to_string(g.find("wid")->as_int()) +
          ",\"positions\":[";
      bool first = true;
      for (const server::JsonValue& p : o.as_array()) {
        if (!first) frag += ',';
        first = false;
        frag += std::to_string(p.as_int());
      }
      batch.insert(frag + "]");
    }
  }
  EXPECT_EQ(streamed, batch);
  // Exactly-once: dense seqs, no gap (loss) or repeat (double delivery).
  ASSERT_EQ(seqs.size(), streamed.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], static_cast<std::int64_t>(i + 1));
  }

  cs.http->shutdown();
  cs.service.reset();
  fs::remove_all(dir);
}

// Regression for the /stats vs ingest-disable race: readers used to load
// the disabled-reason string while the degrade path assigned it, an
// unsynchronized std::string access TSan flags. Hammer /stats (which
// serializes the reason) from several threads while the main thread flips
// the server through degrade/recover cycles.
TEST(ServerTortureTest, StatsHammerDuringDegradeRecoverCycles) {
  const fs::path dir = fresh_dir("stats-hammer");
  auto disk = std::make_shared<FaultIo>();
  ChaosServer cs(std::nullopt, LogStore::create(dir, chaos_store_options(disk)),
                 disk);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> stats_served{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      server::HttpClient rc = cs.client();
      while (!stop.load()) {
        try {
          const server::ClientResponse r = rc.get("/stats");
          if (r.status != 200) continue;
          const server::JsonValue v = server::parse_json(r.body);
          // Touch the racy fields: the reason string and the subscription
          // counters snapshotted alongside it. TSan is the judge here —
          // any value is fine as long as the read is synchronized.
          volatile std::size_t sink =
              v.find("ingest_disabled_reason")->as_string().size();
          sink += static_cast<std::size_t>(
              v.find("subscriptions")->find("active")->as_int());
          (void)sink;
          stats_served.fetch_add(1);
        } catch (const IoError&) {
          // transient connect/read failure under churn: retry
        }
      }
    });
  }

  server::HttpClient c = cs.client();
  int begun = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    const server::ClientResponse ok =
        c.post("/ingest", ingest_one(begun + 1));
    if (ok.status == 200) ++begun;

    FaultIo::Fault fault;
    fault.at_op = disk->ops() + 1;
    fault.kind = FaultIo::Fault::Kind::kError;
    fault.count = FaultIo::Fault::kSticky;
    disk->set_fault(fault);
    (void)c.post("/ingest", ingest_one(begun + 1));  // degrades
    disk->clear_fault();
    ASSERT_TRUE(cs.await_state("healthy")) << "cycle " << cycle;
  }

  stop = true;
  for (std::thread& th : readers) th.join();
  EXPECT_GT(stats_served.load(), 0);

  cs.http->shutdown();
  cs.service.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wflog
