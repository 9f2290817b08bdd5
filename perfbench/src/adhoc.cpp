// adhoc_query: read-only analyst traffic. wfqd with its defaults serves a
// procurement log loaded from a JSONL file; an open loop sends /query texts
// that are all distinct, so the result cache is bypassed and evaluation
// dominates. A capacity search finds the highest rate whose p99 meets the
// limit.

#include <fstream>
#include <iostream>
#include <thread>
#include <unordered_set>

#include "core/engine.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

using namespace wflog;
using server::HttpClient;
using server::JsonValue;

namespace {

constexpr std::size_t kInstances = 5000;  // about 61k records
constexpr std::size_t kQueries = 4000;    // distinct texts per seed
constexpr double kRate = 80;              // req/s of the fixed-rate phase
constexpr double kP99LimitMs = 100;       // query_max_rps latency limit
constexpr unsigned kConns = 4;
constexpr std::size_t kReplayQueries = 150;

const char* const kActivities[] = {
    "CreatePO",      "ApprovePO",     "ReceiveGoods",   "InspectGoods",
    "ReceiveInvoice", "VerifyInvoice", "MatchThreeWay",  "Dispute",
    "ApprovePayment", "Pay",           "CloseOrder"};
const char* const kOps[] = {" . ", " -> ", " | ", " & "};

std::string gen_pattern(Rng& r, int depth, bool& negated) {
  if (depth == 0 || r.unit() < 0.3) {
    std::string a = kActivities[r.below(11)];
    if (!negated && r.unit() < 0.08) {
      negated = true;
      return "!" + a;
    }
    return a;
  }
  std::string left = gen_pattern(r, depth - 1, negated);
  std::string right = gen_pattern(r, depth - 1, negated);
  return "(" + left + kOps[r.below(4)] + right + ")";
}

/// Distinct query texts of depth <= 3 over the procurement alphabet, using
/// all five operators (at most one negated atom per query).
std::vector<std::string> gen_queries(std::uint64_t seed, std::size_t n) {
  Rng r(seed ^ 0xadc0ull);
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  while (out.size() < n) {
    bool negated = false;
    std::string left = gen_pattern(r, 2, negated);
    std::string right = gen_pattern(r, 2, negated);
    std::string q = left + kOps[r.below(4)] + right;
    if (seen.insert(q).second) out.push_back(std::move(q));
  }
  return out;
}

/// Incident totals of every query, evaluated in-process on the serial path.
std::vector<std::size_t> reference_totals(const Log& log,
                                          const std::vector<std::string>& qs,
                                          unsigned threads) {
  QueryOptions opts;
  opts.shards = 1;
  const QueryEngine engine(log, opts);
  std::vector<std::size_t> totals(qs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> bad{false};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < qs.size(); i = next++) {
        const QueryResult r = engine.run(qs[i]);
        if (!r.complete()) bad = true;
        totals[i] = r.total();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (bad) throw std::runtime_error("a generated query failed in-process");
  return totals;
}

struct Inputs {
  fs::path log;
  std::vector<std::string> queries;
  std::vector<std::size_t> totals;
};

Inputs load_inputs(const RunConfig& cfg) {
  const fs::path dir = cached_inputs(cfg, [&](const fs::path& tmp) {
    const Log log = simulate("procurement", kInstances, cfg.seed);
    write_log(log, tmp / "log.jsonl");
    const auto qs = gen_queries(cfg.seed, kQueries);
    const auto totals = reference_totals(log, qs, cfg.threads);
    std::ofstream out(tmp / "queries.tsv");
    for (std::size_t i = 0; i < qs.size(); ++i) {
      out << totals[i] << "\t" << qs[i] << "\n";
    }
  });
  Inputs in;
  in.log = dir / "log.jsonl";
  std::ifstream q(dir / "queries.tsv");
  std::string line;
  while (std::getline(q, line)) {
    const std::size_t tab = line.find('\t');
    in.totals.push_back(std::stoull(line.substr(0, tab)));
    in.queries.push_back(line.substr(tab + 1));
  }
  return in;
}

std::string query_body(const std::string& q) {
  JsonValue b{server::JsonMembers{}};
  b.set("query", q);
  b.set("limit", 100);
  return b.dump();
}

/// Sends queries[base + i]; true when the answer's total is the reference.
struct QuerySender {
  const Inputs& in;
  std::size_t base;
  Spans* spans = nullptr;

  bool operator()(std::size_t i, HttpClient& c, unsigned) const {
    const std::size_t k = base + i;
    if (k >= in.queries.size()) throw std::runtime_error("query stream exhausted");
    const std::string id = "pb-" + std::to_string(k);
    int span = -1;
    if (spans != nullptr) span = spans->open("bench.http.query", -1, id);
    const auto r = c.post("/query", query_body(in.queries[k]),
                          "application/json", {{"x-request-id", id}});
    if (spans != nullptr) spans->close(span);
    if (r.status != 200) return false;
    const JsonValue v = server::parse_json(r.body);
    const JsonValue* total = v.find("total");
    return total != nullptr &&
           static_cast<std::size_t>(total->as_int()) == in.totals[k];
  }
};

struct Step {
  double p99_ms = 0;
  bool pass = false;
};

/// One open-loop step at `rate`; pass = no failure, p99 within the limit
/// and no growing backlog (the last tenth of requests is not sent later
/// than half the limit).
Step capacity_step(Report& rep, const Inputs& in, std::size_t& next,
                   double rate, double seconds, std::uint16_t port) {
  const auto s = open_loop(rate, seconds, kConns, port, QuerySender{in, next});
  next += s.size();
  const std::uint64_t f = failures(s);
  rep.phase("capacity@" + std::to_string(static_cast<int>(rate)), s.size(), f);
  const std::vector<double> late = lateness(s);
  const std::vector<double> tail(late.end() - static_cast<long>(late.size() / 10),
                                 late.end());
  Step st;
  st.p99_ms = quantile(latencies(s), 0.99);
  st.pass = f == 0 && st.p99_ms <= kP99LimitMs &&
            median(tail) <= kP99LimitMs / 2;
  std::cerr << "  rate " << rate << " p99 " << st.p99_ms << " ms -> "
            << (st.pass ? "pass" : "fail") << "\n";
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  return st;
}

/// Bisection between the fixed rate (assumed to pass) and the first
/// failing rate, within `budget` seconds. Returns the highest passing rate.
double capacity_search(Report& rep, const Inputs& in, std::size_t& next,
                       double budget, std::uint16_t port) {
  constexpr double kStep = 1.5;
  double lo = kRate;
  double hi = 0;
  double rate = kRate * 2;
  for (double spent = 0; spent + kStep <= budget; spent += kStep + 0.3) {
    const Step st = capacity_step(rep, in, next, rate, kStep, port);
    if (st.pass) {
      lo = rate;
    } else {
      hi = rate;
    }
    rate = hi == 0 ? rate * 1.6 : (lo + hi) / 2;
  }
  return lo;
}

void replay_in_process(const Inputs& in, Report& rep, Spans& spans) {
  int span = spans.open("log.io.read");
  const Log log = read_log(in.log);
  spans.close(span);
  rep.add("log.io.read_ms", spans.us(span) / 1000, "ms");
  {
    Scoped s(spans, "log.index.build");
    const LogIndex index(log);
  }
  rep.add("log.index.build_ms", spans.durations("log.index.build")[0] / 1000,
          "ms");
  QueryOptions sharded;
  sharded.shards = 0;  // wfqd's default: hardware concurrency
  span = spans.open("core.engine.build");
  const QueryEngine engine(log, sharded);
  spans.close(span);
  rep.add("core.engine.build_ms", spans.us(span) / 1000, "ms");
  QueryOptions serial;
  serial.shards = 1;
  const QueryEngine serial_engine(log, serial);
  const Evaluator counting(engine.index());

  std::vector<double> parse, optimize, eval, eval_serial;
  const std::size_t n = std::min(kReplayQueries, in.queries.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& q = in.queries[i];
    const int run = spans.open("core.query.run");
    const QueryResult r = engine.run(q);
    spans.close(run);
    parse.push_back(r.parse_us);
    optimize.push_back(r.optimize_us);
    eval.push_back(r.eval_us);
    if (r.total() != in.totals[i]) rep.mismatch("replay total of " + q);
    const QueryResult s = serial_engine.run(q);
    eval_serial.push_back(s.eval_us);
    counting.evaluate(*r.executed);
  }
  rep.add("core.query.parse_us_p50", median(parse), "us");
  rep.add("core.query.optimize_us_p50", median(optimize), "us");
  rep.add("core.query.eval_us_p50", median(eval), "us");
  rep.add("core.query.eval_us_p99", quantile(eval, 0.99), "us");
  rep.add("core.query.eval_serial_us_p50", median(eval_serial), "us");
  rep.add("core.eval.pairs_examined",
          static_cast<double>(counting.counters().pairs_examined), "count");
  rep.add("core.eval.incidents_emitted",
          static_cast<double>(counting.counters().incidents_emitted), "count");
}

}  // namespace

Report run_adhoc_query(const RunConfig& cfg) {
  Report rep;
  const Inputs in = load_inputs(cfg);
  Spans spans(cfg.trace);
  if (cfg.trace) replay_in_process(in, rep, spans);

  // wfqd's defaults except --shards 1: at this commit concurrent sharded
  // queries can deadlock the shared ShardPool (an exhausted job left at the
  // head of its queue makes a worker spin while holding the pool mutex), so
  // four connections at the default shard count hang the server.
  const std::vector<std::string> args{"--log", in.log.string(), "--shards",
                                      "1"};
  std::vector<double> setups;
  Daemon d;
  for (int i = 0; i < 9; ++i) {
    d.stop();
    setups.push_back(d.start(cfg.wfqd, args));
  }
  rep.add("setup_s", median(setups), "s");
  const std::uint16_t port = d.port();
  HttpClient admin("127.0.0.1", port, no_retry_client());
  const JsonValue stats0 = get_json(admin, "/stats");

  // The untraced measurement. A traced run shortens it to make room for
  // the capacity search and the traced phase.
  std::size_t next = 0;
  const auto warm = open_loop(kRate, 1.0, kConns, port, QuerySender{in, next});
  next += warm.size();
  rep.phase("warmup", warm.size(), failures(warm));

  const auto fixed = open_loop(kRate, cfg.seconds * (cfg.trace ? 0.3 : 1.0),
                               kConns, port, QuerySender{in, next});
  next += fixed.size();
  rep.phase("fixed", fixed.size(), failures(fixed));
  const double p50 = median(latencies(fixed));
  rep.add("op_p50_ms", p50, "ms");
  rep.add("op_tail_ms", quantile(latencies(fixed), 0.9), "ms");
  rep.add("query_p50_ms", p50, "ms");
  rep.add("query_p99_ms", quantile(latencies(fixed), 0.99), "ms");
  rep.add("bench.late_ms_p99", quantile(lateness(fixed), 0.99), "ms");

  if (cfg.trace) {
    rep.add("query_max_rps",
            capacity_search(rep, in, next, cfg.seconds * 0.3, port), "1/s");
    RequestLog reqs;
    auto last_poll = Clock::now();
    const auto poll = [&](unsigned conn, HttpClient& c) {
      if (conn != 0 || seconds_since(last_poll) < 0.25) return;
      last_poll = Clock::now();
      reqs.poll(c);
    };
    reqs.poll(admin);
    const std::size_t base = next;
    const auto traced =
        open_loop(kRate, cfg.seconds * 0.4, kConns, port,
                  QuerySender{in, base, &spans}, poll);
    next += traced.size();
    reqs.poll(admin);
    rep.phase("traced", traced.size(), failures(traced));
    rep.add("bench.trace_overhead_frac", median(latencies(traced)) / p50 - 1,
            "ratio");
    rep.add("server.queue_us_p50", median(reqs.field("/query", "queue_us")),
            "us");
    rep.add("server.queue_us_p99",
            quantile(reqs.field("/query", "queue_us"), 0.99), "us");
    rep.add("server.parse_us_p50", median(reqs.field("/query", "parse_us")),
            "us");
    rep.add("server.serialize_us_p50",
            median(reqs.field("/query", "serialize_us")), "us");
    rep.add("server.eval_us_p50", median(reqs.field("/query", "eval_us")),
            "us");
    rep.add("server.eval_us_p99",
            quantile(reqs.field("/query", "eval_us"), 0.99), "us");
    const auto walls = reqs.wall_by_id();
    std::vector<double> transport;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const auto it = walls.find("pb-" + std::to_string(base + i));
      if (it != walls.end() && traced[i].ok) {
        transport.push_back(traced[i].client_us - it->second);
      }
    }
    rep.add("server.transport_us_p50", median(transport), "us");
  }

  const JsonValue stats1 = get_json(admin, "/stats");
  rep.add("server.cache.hit_ratio", cache_hit_ratio(stats0, stats1), "ratio");
  const auto records =
      static_cast<double>(stats1.find("records")->as_int());
  rep.add("rss_bytes_per_record", d.rss_bytes() / records, "B");
  if (!d.stop()) rep.mismatch("wfqd did not exit cleanly");
  spans.write(cfg.work / ("adhoc_query-" + std::to_string(cfg.seed) +
                          ".spans.jsonl"));
  return rep;
}

}  // namespace perfbench
