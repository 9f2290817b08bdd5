// wfqd: the workflow-log query daemon — the engine behind an HTTP API
// (src/server/). One process owns the log (optionally a durable LogStore)
// and serves concurrent queries over it:
//
//   POST /query    {"query": "A -> B", "deadline_ms": 100, "limit": 50}
//   POST /batch    {"queries": ["A -> B", "C . D"]}  (scattered over
//                  --shards; a legacy "threads" field is ignored)
//   POST /ingest   {"events": [{"op": "begin"}, {"op": "record", ...}]}
//   GET  /metrics  Prometheus text exposition (+ per-endpoint and
//                  per-canonical-key latency histograms)
//   GET  /stats    engine + store + server counters
//   GET  /healthz  liveness (JSON readiness detail with
//                  "Accept: application/json")
//   GET  /version  build info
//   GET  /debug/requests   ring of the last N request summaries
//   GET  /debug/slow       captured slow queries (plan + span summary)
//
// Usage:
//   wfqd --log <file.{csv,jsonl,xes}>   serve a read-only snapshot file
//                                       (ingest extends it in memory only)
//   wfqd --store <dir>                  open/create a durable LogStore;
//                                       ingested events are fsynced there
//   [--bind ADDR]        default 127.0.0.1
//   [--port N]           default 8633; 0 = ephemeral, the chosen port is
//                        printed on the "listening" line
//   [--threads N]        worker pool size (default 4)
//   [--queue N]          pending-connection bound before 503 (default 64)
//   [--drain-ms N]       shutdown grace period for in-flight requests
//   [--batch-threads N]  ignored (kept so old scripts still start); /batch
//                        parallelism is --shards
//   [--bad-events reject|skip|quarantine]   ingest policy (monitor.h)
//   [--max-deadline-ms N]    cap on per-request deadlines (binds even
//                            requests that ask for "unlimited")
//   [--max-incidents-cap N]  cap on per-request incident budgets
//   [--cache-mb N]       cross-request result-cache budget in MiB
//                        (default 64); [--cache-off] disables it. Cached
//                        hits answer /query and /batch without touching
//                        the evaluator; ingest invalidates by snapshot
//                        version; "Cache-Control: no-cache" bypasses per
//                        request; responses carry "X-Wfq-Cache: hit|miss".
//   [--shards N]         wid-shards per evaluation (core/shard.h): every
//                        request's queries — /batch passes included —
//                        scatter over N shard workers and gather
//                        byte-identical answers. 0 = hardware concurrency
//                        (default), 1 = serial. Cache keys are
//                        shard-count-independent. A negative or
//                        non-numeric N is a usage error (exit 2).
//   [--access-log PATH|-]  structured access log: one JSON line per
//                        request (id, verb, path, canonical pattern key,
//                        status, bytes, latency breakdown, stop_reason).
//                        "-" logs to stdout. Off by default.
//   [--slow-ms N]        capture requests slower than N ms (wall) into
//                        the /debug/slow ring with their optimized plan
//                        and per-operator span summary. Default 1000;
//                        0 captures everything; -1 disables capture.
//   [--debug-requests N] /debug/requests ring capacity (default 256)
//   [--debug-slow N]     /debug/slow ring capacity (default 32)
//   [--recovery-backoff-ms N]   first recovery-probe delay after a store
//                        write failure degrades the daemon to read-only
//                        (default 100; doubles per failed probe up to 50x)
//   [--max-recovery-attempts N] failed probes before recovery gives up
//                        and stays degraded for an operator (default 0 =
//                        retry forever)
//   [--max-subscriptions N]      standing-query capacity (default 64)
//   [--max-streams N]            concurrent ?stream=1 consumers; each one
//                        occupies a worker thread (default 2)
//   [--subscribe-pending-cap N]  unacknowledged events retained per
//                        subscription before the slow-consumer policy
//                        drops it (default 4096)
//   [--subscribe-heartbeat-ms N] idle-stream keep-alive cadence (5000)
//   [--subscribe-wait-cap-ms N]  longest ?wait_ms= long-poll (30000)
//   [--quarantine-capacity N]    bad-event ring under
//                        --bad-events quarantine (default 1024)
//
// Every request carries a request id: the client's X-Request-Id header
// (sanitized) or a generated "wfq-<seq>", echoed back in the response's
// X-Request-Id header and used across the access log and /debug rings.
//
// Shared flags (engine_flags.h): --trace/--metrics/--metrics-json write
// telemetry on exit; --deadline-ms/--max-incidents set the PER-REQUEST
// defaults (a request's own "deadline_ms"/"max_incidents" override them,
// up to the caps).
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight requests
// finish (cooperatively cancelled after --drain-ms), then the process
// exits 0. SIGHUP reopens the --access-log file so logrotate can move it
// aside without restarting the daemon.
//
// Degraded mode: when a durable append to --store fails, the daemon stays
// up read-only — /query and /batch keep serving the last good snapshot,
// /ingest answers 503 with Retry-After — while a background recovery loop
// reopens the store under capped exponential backoff (see --recovery-*
// above). Transitions are logged to the access log and exported as
// wflog_server_health_* metrics; /healthz reports the current state.

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "engine_flags.h"

#include "common/error.h"
#include "server/handlers.h"
#include "server/json.h"
#include "server/server.h"

namespace {

using namespace wflog;

[[noreturn]] void usage() {
  std::cerr
      << "usage: wfqd --log <file.{csv,jsonl,xes}> | --store <dir>\n"
         "  [--bind ADDR] [--port N (0=ephemeral)] [--threads N] "
         "[--queue N]\n"
         "  [--drain-ms N] [--bad-events reject|skip|quarantine]\n"
         "  [--max-deadline-ms N] [--max-incidents-cap N]\n"
         "shared flags: --trace <out.json>  --metrics  --metrics-json "
         "<file>\n"
         "              --deadline-ms N  --max-incidents N  (per-request "
         "defaults)\n"
         "              --cache-mb N (default 64)  --cache-off\n"
         "              --shards N (0 = hw concurrency, 1 = serial)\n"
         "observability: --access-log PATH|-  --slow-ms N (default 1000, "
         "-1=off)\n"
         "              --debug-requests N (default 256)  --debug-slow N "
         "(default 32)\n"
         "degraded mode: --recovery-backoff-ms N (default 100)\n"
         "              --max-recovery-attempts N (default 0 = forever)\n"
         "standing queries: --max-subscriptions N (default 64)  "
         "--max-streams N (default 2)\n"
         "              --subscribe-pending-cap N (default 4096)  "
         "--subscribe-heartbeat-ms N (default 5000)\n"
         "              --subscribe-wait-cap-ms N (default 30000)  "
         "--quarantine-capacity N (default 1024)\n";
  std::exit(2);
}

server::HttpServer* g_server = nullptr;
server::RequestObserver* g_observer = nullptr;

extern "C" void on_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

extern "C" void on_sighup(int) {
  // request_access_log_reopen is one relaxed atomic store — safe here.
  if (g_observer != nullptr) g_observer->request_access_log_reopen();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  const cli::EngineFlags flags = cli::strip_engine_flags(argc, argv, args);

  std::string log_path;
  std::string store_dir;
  server::ServerOptions sopts;
  sopts.port = 8633;
  server::ServiceOptions svc;
  svc.engine = flags.query_options();
  // The guard flags are per-REQUEST defaults here, not engine-wide ones:
  // limits_from() starts from these and lets each request override within
  // the caps.
  svc.engine.deadline = std::chrono::milliseconds{0};
  svc.engine.max_incidents = 0;
  svc.default_deadline_ms = flags.deadline.count();
  svc.default_max_incidents = flags.max_incidents;
  svc.cache_bytes = flags.cache_bytes();
  server::ObserverOptions obs_opts;
  obs_opts.slow_us = 1000 * 1000;  // --slow-ms default: 1000

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string flag = args[i];
    const bool has_value = i + 1 < args.size();
    if (flag == "--log" && has_value) {
      log_path = args[++i];
    } else if (flag == "--store" && has_value) {
      store_dir = args[++i];
    } else if (flag == "--bind" && has_value) {
      sopts.bind_address = args[++i];
    } else if (flag == "--port" && has_value) {
      sopts.port = static_cast<std::uint16_t>(std::atoi(args[++i]));
    } else if (flag == "--threads" && has_value) {
      sopts.threads = static_cast<std::size_t>(std::atoll(args[++i]));
    } else if (flag == "--queue" && has_value) {
      sopts.queue_capacity = static_cast<std::size_t>(std::atoll(args[++i]));
    } else if (flag == "--drain-ms" && has_value) {
      sopts.drain_timeout_ms = std::atoi(args[++i]);
    } else if (flag == "--batch-threads" && has_value) {
      ++i;
      std::cerr << "note: --batch-threads is ignored; /batch runs on "
                   "--shards\n";
    } else if (flag == "--max-deadline-ms" && has_value) {
      svc.max_deadline_ms = std::atoll(args[++i]);
    } else if (flag == "--max-incidents-cap" && has_value) {
      svc.max_incidents_cap = static_cast<std::size_t>(std::atoll(args[++i]));
    } else if (flag == "--access-log" && has_value) {
      obs_opts.access_log_path = args[++i];
    } else if (flag == "--slow-ms" && has_value) {
      const long long ms = std::atoll(args[++i]);
      obs_opts.slow_us = ms < 0 ? -1 : ms * 1000;
    } else if (flag == "--debug-requests" && has_value) {
      obs_opts.requests_capacity =
          static_cast<std::size_t>(std::atoll(args[++i]));
    } else if (flag == "--debug-slow" && has_value) {
      obs_opts.slow_capacity = static_cast<std::size_t>(std::atoll(args[++i]));
    } else if (flag == "--recovery-backoff-ms" && has_value) {
      svc.recovery_backoff_ms = std::atoll(args[++i]);
      svc.recovery_backoff_cap_ms =
          std::max<std::int64_t>(svc.recovery_backoff_ms * 50,
                                 svc.recovery_backoff_cap_ms);
    } else if (flag == "--max-recovery-attempts" && has_value) {
      svc.max_recovery_attempts = std::atoi(args[++i]);
    } else if (flag == "--max-subscriptions" && has_value) {
      svc.subscribe.max_subscriptions =
          static_cast<std::size_t>(std::atoll(args[++i]));
    } else if (flag == "--max-streams" && has_value) {
      svc.subscribe.max_streams =
          static_cast<std::size_t>(std::atoll(args[++i]));
    } else if (flag == "--subscribe-pending-cap" && has_value) {
      svc.subscribe.pending_cap =
          static_cast<std::size_t>(std::atoll(args[++i]));
    } else if (flag == "--subscribe-heartbeat-ms" && has_value) {
      svc.subscribe_heartbeat_ms = std::atoll(args[++i]);
    } else if (flag == "--subscribe-wait-cap-ms" && has_value) {
      svc.subscribe_wait_cap_ms = std::atoll(args[++i]);
    } else if (flag == "--quarantine-capacity" && has_value) {
      svc.quarantine_capacity =
          static_cast<std::size_t>(std::atoll(args[++i]));
    } else if (flag == "--bad-events" && has_value) {
      const std::string policy = args[++i];
      if (policy == "reject") {
        svc.bad_event_policy = BadEventPolicy::kReject;
      } else if (policy == "skip") {
        svc.bad_event_policy = BadEventPolicy::kSkip;
      } else if (policy == "quarantine") {
        svc.bad_event_policy = BadEventPolicy::kQuarantine;
      } else {
        usage();
      }
    } else {
      usage();
    }
  }
  if (log_path.empty() == store_dir.empty()) usage();  // exactly one source

  // The daemon always runs with telemetry installed so GET /metrics has
  // data even when no telemetry flag was given.
  cli::TelemetryScope telemetry(flags, /*force=*/true);

  // Without a --trace sink nothing ever drains the tracer's per-thread
  // span buffers, so a long-running daemon would grow them forever. Cap
  // them: slow-query capture only summarizes the current request's spans,
  // so dropping new spans once a thread hits the cap costs detail in
  // /debug/slow, not correctness.
  if (flags.trace_path.empty()) {
    WFLOG_TELEMETRY(t) { t->tracer.set_thread_span_limit(1u << 18); }
  }

  try {
    std::optional<Log> initial;
    std::optional<LogStore> store;
    if (!store_dir.empty()) {
      const bool exists =
          std::filesystem::exists(std::filesystem::path(store_dir) /
                                  "MANIFEST");
      store = exists ? LogStore::open(store_dir) : LogStore::create(store_dir);
      initial = store->load();
      const RecoveryReport& rec = store->recovery_report();
      for (const std::string& note : rec.notes) {
        std::cerr << "store recovery: " << note << "\n";
      }
    } else {
      initial = cli::load_log(log_path);
    }

    // The daemon always keeps the request observer on (the /debug rings
    // are cheap); the access log and slow capture follow their flags.
    server::RequestObserver observer(obs_opts);
    sopts.observer = &observer;

    // Health transitions (healthy -> degraded -> recovering -> ...) land
    // in the access log next to the requests they explain, and on stderr
    // for an operator tailing the daemon.
    svc.on_health_transition = [&observer](server::HealthState from,
                                           server::HealthState to,
                                           const std::string& detail) {
      std::cerr << "wfqd health: " << server::to_string(from) << " -> "
                << server::to_string(to) << " (" << detail << ")\n";
      server::JsonValue fields{server::JsonMembers{}};
      fields.set("from", server::to_string(from));
      fields.set("to", server::to_string(to));
      fields.set("detail", detail);
      observer.log_event("health", std::move(fields));
    };

    server::QueryService service(std::move(initial), svc,
                                 sopts.drain_cancel, std::move(store));
    server::Router router;
    service.bind(router);
    service.attach_observer(&observer);

    server::HttpServer http(std::move(router), std::move(sopts));
    service.attach_server(&http);
    g_server = &http;
    g_observer = &observer;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGHUP, on_sighup);
    std::signal(SIGPIPE, SIG_IGN);

    http.start();
    std::cout << "wfqd listening on " << http.port() << " ("
              << service.num_records() << " records)" << std::endl;
    http.wait();
    g_server = nullptr;
    g_observer = nullptr;

    const server::ServerStats stats = http.stats();
    std::cout << "wfqd drained: " << stats.served << " served, "
              << stats.rejected << " rejected, " << stats.bad_requests
              << " bad requests\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "wfqd: " << e.what() << "\n";
    return 1;
  }
}
