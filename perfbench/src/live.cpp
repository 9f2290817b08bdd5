// live_ingest: the paper's Figure 2 setting. wfqd boots from a compacted v2
// store of clinic history (per-append fsync, its default). A producer
// replays a seeded clinic log as one event per /ingest, interleaving about
// eight live instances; two subscribers hold /subscribe streams; a
// dashboard re-sends four fixed /query texts that the subscriptions do not
// cover, so every ingest makes them miss the result cache.

#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "core/engine.h"
#include "core/monitor.h"
#include "inputs.h"
#include "log/io_jsonl.h"
#include "log/store.h"
#include "workloads.h"

namespace perfbench {

using namespace wflog;
using server::HttpClient;
using server::JsonValue;

namespace {

constexpr std::size_t kHistoryInstances = 2000;  // about 22k records
constexpr std::size_t kFeedInstances = 400;
constexpr std::size_t kLive = 8;          // instances open at once
constexpr double kIngestRate = 20;        // /ingest per second
constexpr double kQueryRate = 50;         // dashboard /query per second
constexpr std::size_t kReplayEvents = 150;

const char* const kSubscribed[] = {"SeeDoctor -> PayTreatment",
                                   "CheckIn -> SeeDoctor"};
const char* const kDashboard[] = {
    "UpdateRefer -> GetReimburse", "GetReimburse -> UpdateRefer",
    "SeeDoctor . PayTreatment", "(GetRefer . CheckIn) & UpdateRefer"};

/// One producer event: record `rec` of feed instance `instance`.
struct Event {
  std::size_t instance = 0;
  const LogRecord* rec = nullptr;
};

/// The feed replayed with about kLive instances open at once, the next
/// event drawn from a random open instance.
std::vector<Event> schedule(const Log& feed, std::uint64_t seed) {
  std::vector<std::vector<const LogRecord*>> by_instance;
  std::unordered_map<Wid, std::size_t> index_of;
  for (const LogRecord& r : feed) {
    auto [it, fresh] = index_of.try_emplace(r.wid, by_instance.size());
    if (fresh) by_instance.emplace_back();
    by_instance[it->second].push_back(&r);
  }
  Rng rng(seed ^ 0x11feull);
  std::vector<std::pair<std::size_t, std::size_t>> open;  // instance, next
  std::size_t started = 0;
  std::vector<Event> out;
  while (true) {
    while (open.size() < kLive && started < by_instance.size()) {
      open.push_back({started++, 0});
    }
    if (open.empty()) break;
    const std::size_t k = rng.below(open.size());
    auto& [inst, pos] = open[k];
    out.push_back({inst, by_instance[inst][pos]});
    if (++pos == by_instance[inst].size()) open.erase(open.begin() + static_cast<long>(k));
  }
  return out;
}

JsonValue attrs_json(const Log& log, const AttrMap& m) {
  // The JSONL record codec renders attribute values exactly as /ingest
  // parses them back.
  LogRecord r;
  r.in = m;
  r.activity = log.start_symbol();
  std::ostringstream line;
  write_jsonl_record(line, r, log.interner());
  return *server::parse_json(line.str()).find("in");
}

struct Inputs {
  fs::path history;
  std::size_t history_records = 0;
  Log feed = Log::from_records_unchecked({}, {});
};

Inputs load_inputs(const RunConfig& cfg) {
  const fs::path dir = cached_inputs(cfg, [&](const fs::path& tmp) {
    const Log history = simulate("clinic", kHistoryInstances, cfg.seed);
    write_store(history, tmp / "history");
    write_log(simulate("clinic", kFeedInstances, cfg.seed ^ 0xfeedull),
              tmp / "feed.jsonl");
  });
  Inputs in;
  in.history = dir / "history";
  in.history_records = LogStore::open(in.history).num_records();
  in.feed = read_log(dir / "feed.jsonl");
  return in;
}

/// Producer state: the server wid of each feed instance and when each
/// record was sent.
struct Producer {
  const Log& feed;
  const std::vector<Event>& events;
  std::size_t base = 0;  // first event of this phase
  Spans* spans = nullptr;
  std::vector<Wid> wid_of;  // feed instance -> server wid (0 = not begun)
  /// (server wid, is-lsn) -> send time and event number.
  std::map<std::pair<Wid, IsLsn>, std::pair<Clock::time_point, std::size_t>>
      sent_at;
  std::size_t applied = 0;

  bool operator()(std::size_t i, HttpClient& c, unsigned) {
    const Event& e = events.at(base + i);
    JsonValue ev{server::JsonMembers{}};
    const bool begin = e.rec->activity == feed.start_symbol();
    if (begin) {
      ev.set("op", "begin");
    } else {
      ev.set("op", e.rec->activity == feed.end_symbol() ? "end" : "record");
      ev.set("wid", static_cast<std::int64_t>(wid_of.at(e.instance)));
      if (e.rec->activity != feed.end_symbol()) {
        ev.set("activity", std::string(feed.activity_name(e.rec->activity)));
        ev.set("in", attrs_json(feed, e.rec->in));
        ev.set("out", attrs_json(feed, e.rec->out));
      }
    }
    JsonValue body{server::JsonMembers{}};
    body.set("events", JsonValue(server::JsonArray{std::move(ev)}));
    const std::string id = "pb-ingest-" + std::to_string(base + i);
    const int span =
        spans != nullptr ? spans->open("bench.http.ingest", -1, id) : -1;
    const auto t = Clock::now();
    const auto r = c.post("/ingest", body.dump(), "application/json",
                          {{"x-request-id", id}});
    if (spans != nullptr) spans->close(span);
    if (r.status != 200) return false;
    const JsonValue v = server::parse_json(r.body);
    if (v.find("applied")->as_int() != 1) return false;
    ++applied;
    if (begin) {
      if (wid_of.size() <= e.instance) wid_of.resize(e.instance + 1, 0);
      wid_of[e.instance] =
          static_cast<Wid>(v.find("wids")->as_array().at(0).as_int());
    }
    sent_at[{wid_of[e.instance], e.rec->is_lsn}] = {t, base + i};
    return true;
  }
};

/// One subscriber stream: every delivered incident with its arrival time.
struct Subscriber {
  std::string id;
  std::size_t history = 0;  // events replayed at registration
  std::vector<std::pair<std::pair<Wid, std::vector<IsLsn>>,
                        Clock::time_point>>
      got;
  std::string end_reason;
  std::thread thread;
};

void stream_subscriber(Subscriber& s, std::uint16_t port) {
  HttpClient c("127.0.0.1", port, no_retry_client());
  std::string buf;
  try {
    c.stream("GET",
             "/subscribe/" + s.id + "?stream=1&after=" +
                 std::to_string(s.history),
             "",
             [&](std::string_view chunk) {
               const auto t = Clock::now();
               buf.append(chunk);
               for (std::size_t nl; (nl = buf.find('\n')) !=
                                    std::string::npos;
                    buf.erase(0, nl + 1)) {
                 const JsonValue v = server::parse_json(buf.substr(0, nl));
                 const std::string& type = v.find("type")->as_string();
                 if (type == "end") {
                   s.end_reason = v.find("reason")->as_string();
                 } else if (type == "incident") {
                   std::vector<IsLsn> pos;
                   for (const JsonValue& p : v.find("positions")->as_array()) {
                     pos.push_back(static_cast<IsLsn>(p.as_int()));
                   }
                   s.got.push_back(
                       {{static_cast<Wid>(v.find("wid")->as_int()), pos}, t});
                 }
               }
               return true;
             });
  } catch (const std::exception& e) {
    s.end_reason = std::string("error: ") + e.what();
  }
}

/// Incidents of `query` over the final log, in instances above `min_wid`.
std::set<std::pair<Wid, std::vector<IsLsn>>> final_incidents(
    HttpClient& c, const std::string& query, Wid min_wid) {
  JsonValue body{server::JsonMembers{}};
  body.set("query", query);
  body.set("limit", 1000000);
  const auto r = c.post("/query", body.dump());
  if (r.status != 200) throw std::runtime_error("final /query failed");
  std::set<std::pair<Wid, std::vector<IsLsn>>> out;
  const JsonValue v = server::parse_json(r.body);
  for (const JsonValue& g : v.find("incidents")->as_array()) {
    const auto wid = static_cast<Wid>(g.find("wid")->as_int());
    if (wid <= min_wid) continue;
    for (const JsonValue& inc : g.find("incidents")->as_array()) {
      std::vector<IsLsn> pos;
      for (const JsonValue& p : inc.as_array()) {
        pos.push_back(static_cast<IsLsn>(p.as_int()));
      }
      out.insert({wid, pos});
    }
  }
  return out;
}

/// Dashboard sender: the four fixed texts in turn; correct = a complete
/// 200 answer (the log moves under it, so totals have no fixed reference).
struct Dashboard {
  std::string phase;  // keeps request ids unique across phases
  Spans* spans = nullptr;
  bool operator()(std::size_t i, HttpClient& c, unsigned) const {
    JsonValue body{server::JsonMembers{}};
    body.set("query", kDashboard[i % 4]);
    body.set("limit", 100);
    const std::string id = "pb-dash-" + phase + "-" + std::to_string(i);
    const int span =
        spans != nullptr ? spans->open("bench.http.query", -1, id) : -1;
    const auto r = c.post("/query", body.dump(), "application/json",
                          {{"x-request-id", id}});
    if (spans != nullptr) spans->close(span);
    return r.status == 200 &&
           server::parse_json(r.body).find("complete")->as_bool();
  }
};

/// In-process replay of the ingest path with spans around each layer call:
/// what one /ingest costs inside wfqd, split by layer.
void replay_in_process(const RunConfig& cfg, const Inputs& in,
                       const std::vector<Event>& events, Report& rep,
                       Spans& spans) {
  const fs::path dir = cfg.work / "live_ingest-replay";
  copy_dir(in.history, dir);
  int span = spans.open("log.store.open");
  LogStore store = LogStore::open(dir);
  spans.close(span);
  rep.add("log.store.open_ms", spans.us(span) / 1000, "ms");
  span = spans.open("log.store.load");
  const Log history = store.load();
  spans.close(span);
  rep.add("log.store.load_ms", spans.us(span) / 1000, "ms");
  const LogStore::StorageStats ss = store.storage_stats();
  rep.add("log.store.compression_ratio",
          static_cast<double>(ss.uncompressed_payload_bytes) /
              static_cast<double>(ss.compressed_payload_bytes),
          "ratio");
  {
    const LogStore::PrunedLoad all = store.load_pruned({});
    rep.add("log.store.blocks_skipped_ratio",
            all.blocks_total > 0 ? static_cast<double>(all.blocks_skipped) /
                                       static_cast<double>(all.blocks_total)
                                 : 0,
            "ratio");
  }

  // Like wfqd: the subscribed queries are registered on the monitor.
  LogMonitor monitor;
  for (const char* q : kSubscribed) monitor.add_query(q);
  {
    std::unordered_map<Wid, Wid> wid_of;
    for (const LogRecord& r : history) {
      if (r.activity == history.start_symbol()) {
        wid_of[r.wid] = monitor.begin_instance();
      } else if (r.activity == history.end_symbol()) {
        monitor.end_instance(wid_of.at(r.wid));
      } else {
        monitor.record(wid_of.at(r.wid), history.activity_name(r.activity),
                       named(history, r.in), named(history, r.out));
      }
    }
  }
  {
    const Log snap = monitor.snapshot();
    Scoped s(spans, "log.index.build");
    const LogIndex index(snap);
  }
  rep.add("log.index.build_ms", spans.durations("log.index.build")[0] / 1000,
          "ms");

  QueryOptions engine_opts;
  engine_opts.shards = 0;  // wfqd's default
  std::vector<Wid> wid_of;
  const Log& feed = in.feed;
  const std::size_t n = std::min(kReplayEvents, events.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = events[i];
    const int ingest = spans.open("bench.replay.ingest");
    {
      Scoped m(spans, "core.monitor.append", ingest);
      if (e.rec->activity == feed.start_symbol()) {
        if (wid_of.size() <= e.instance) wid_of.resize(e.instance + 1, 0);
        wid_of[e.instance] = monitor.begin_instance();
      } else if (e.rec->activity == feed.end_symbol()) {
        monitor.end_instance(wid_of[e.instance]);
      } else {
        monitor.record(wid_of[e.instance], feed.activity_name(e.rec->activity),
                       named(feed, e.rec->in), named(feed, e.rec->out));
      }
    }
    {
      Scoped a(spans, "log.store.append", ingest);
      if (e.rec->activity == feed.start_symbol()) {
        store.begin_instance();
      } else if (e.rec->activity == feed.end_symbol()) {
        store.end_instance(wid_of[e.instance]);
      } else {
        store.record(wid_of[e.instance], feed.activity_name(e.rec->activity),
                     named(feed, e.rec->in), named(feed, e.rec->out));
      }
    }
    int snap_span = spans.open("core.monitor.snapshot", ingest);
    const Log snap = monitor.snapshot();
    spans.close(snap_span);
    {
      Scoped b(spans, "core.engine.build", ingest);
      const QueryEngine engine(snap, engine_opts);
    }
    spans.close(ingest);
  }
  rep.add("core.monitor.append_us_p50",
          median(spans.durations("core.monitor.append")), "us");
  rep.add("log.store.append_us_p50",
          median(spans.durations("log.store.append")), "us");
  rep.add("log.store.append_us_p99",
          quantile(spans.durations("log.store.append"), 0.99), "us");
  rep.add("core.monitor.snapshot_ms",
          median(spans.durations("core.monitor.snapshot")) / 1000, "ms");
  rep.add("core.engine.build_ms",
          median(spans.durations("core.engine.build")) / 1000, "ms");
  rep.add("bench.replay_ingest_us_p50",
          median(spans.durations("bench.replay.ingest")), "us");
  rep.add("bench.replay_self_us_p50",
          median(spans.self_times("bench.replay.ingest")), "us");
  fs::remove_all(dir);
}

struct Phase {
  std::vector<OpSample> ingest, query;
};

}  // namespace

Report run_live_ingest(const RunConfig& cfg) {
  Report rep;
  const Inputs in = load_inputs(cfg);
  const std::vector<Event> events = schedule(in.feed, cfg.seed);
  Spans spans(cfg.trace);
  if (cfg.trace) replay_in_process(cfg, in, events, rep, spans);

  // Set-up: boot wfqd on a fresh copy of the history store, nine times.
  const fs::path store = cfg.work / ("live_ingest-" + std::to_string(cfg.seed));
  std::vector<double> setups;
  Daemon d;
  for (int i = 0; i < 9; ++i) {
    d.stop();
    copy_dir(in.history, store);
    setups.push_back(d.start(cfg.wfqd, {"--store", store.string()}));
  }
  rep.add("setup_s", median(setups), "s");
  const std::uint16_t port = d.port();
  HttpClient admin("127.0.0.1", port, no_retry_client());
  const std::uintmax_t store_bytes0 = dir_bytes(store);
  const JsonValue stats0 = get_json(admin, "/stats");
  // History wids are 1..instances; live instances get the wids above.
  const auto history_max_wid =
      static_cast<Wid>(stats0.find("instances")->as_int());

  std::vector<Subscriber> subs(2);
  for (std::size_t k = 0; k < subs.size(); ++k) {
    JsonValue body{server::JsonMembers{}};
    body.set("query", kSubscribed[k]);
    const auto r = admin.post("/subscribe", body.dump());
    if (r.status != 201) throw std::runtime_error("subscribe failed");
    const JsonValue v = server::parse_json(r.body);
    subs[k].id = v.find("id")->as_string();
    subs[k].history = static_cast<std::size_t>(v.find("matched")->as_int());
  }
  for (Subscriber& s : subs) {
    s.thread = std::thread([&s, port] { stream_subscriber(s, port); });
  }

  Producer producer{in.feed, events, 0, nullptr, {}, {}, 0};
  RequestLog reqs;
  double pending_max = 0;
  // Runs the producer and the dashboard side by side for `seconds`.
  const auto run_phase = [&](const std::string& name, double seconds,
                             bool traced) {
    Phase ph;
    producer.spans = traced ? &spans : nullptr;
    auto last_poll = Clock::now();
    const auto poll = [&](unsigned, HttpClient& c) {
      if (!traced || seconds_since(last_poll) < 0.25) return;
      last_poll = Clock::now();
      reqs.poll(c);
      const JsonValue st = get_json(c, "/stats");
      pending_max = std::max(
          pending_max, st.find("subscriptions")->find("pending_events")
                           ->as_double());
    };
    std::thread dash([&] {
      ph.query = open_loop(kQueryRate, seconds, 1, port,
                           Dashboard{name, traced ? &spans : nullptr}, poll);
    });
    ph.ingest = open_loop(
        kIngestRate, seconds, 1, port,
        [&](std::size_t i, HttpClient& c, unsigned k) {
          return producer(i, c, k);
        });
    dash.join();
    producer.base += ph.ingest.size();
    rep.phase(name + " ingest", ph.ingest.size(), failures(ph.ingest));
    rep.phase(name + " dashboard", ph.query.size(), failures(ph.query));
    return ph;
  };

  run_phase("warmup", 2.0, false);
  const std::size_t warm_events = producer.base;
  const double share = cfg.trace ? 0.5 : 1.0;
  const Phase main = run_phase("main", cfg.seconds * share, false);
  const double ingest_p50 = median(latencies(main.ingest));
  rep.add("op_p50_ms", ingest_p50, "ms");
  rep.add("op_tail_ms", quantile(latencies(main.ingest), 0.9), "ms");
  rep.add("ingest_p50_ms", ingest_p50, "ms");
  rep.add("ingest_p99_ms", quantile(latencies(main.ingest), 0.99), "ms");
  rep.add("query_p50_ms", median(latencies(main.query)), "ms");
  rep.add("query_p99_ms", quantile(latencies(main.query), 0.99), "ms");
  std::vector<double> late = lateness(main.ingest);
  for (double l : lateness(main.query)) late.push_back(l);
  rep.add("bench.late_ms_p99", quantile(late, 0.99), "ms");
  const std::size_t main_events = producer.base;

  if (cfg.trace) {
    reqs.poll(admin);
    const Phase traced = run_phase("traced", cfg.seconds * 0.5, true);
    reqs.poll(admin);
    rep.add("bench.trace_overhead_frac",
            median(latencies(traced.ingest)) / ingest_p50 - 1, "ratio");
    std::vector<double> queue = reqs.field("/query", "queue_us");
    for (double q : reqs.field("/ingest", "queue_us")) queue.push_back(q);
    rep.add("server.queue_us_p50", median(queue), "us");
    rep.add("server.queue_us_p99", quantile(queue, 0.99), "us");
    rep.add("server.parse_us_p50", median(reqs.field("/query", "parse_us")),
            "us");
    rep.add("server.serialize_us_p50",
            median(reqs.field("/query", "serialize_us")), "us");
    const auto walls = reqs.wall_by_id();
    std::vector<double> transport;
    for (std::size_t i = 0; i < traced.query.size(); ++i) {
      const auto it = walls.find("pb-dash-traced-" + std::to_string(i));
      if (it != walls.end() && traced.query[i].ok) {
        transport.push_back(traced.query[i].client_us - it->second);
      }
    }
    rep.add("server.transport_us_p50", median(transport), "us");
    rep.add("server.eval_us_p50", median(reqs.field("/query", "eval_us")),
            "us");
    rep.add("server.eval_us_p99",
            quantile(reqs.field("/query", "eval_us"), 0.99), "us");
    rep.add("server.ingest_apply_us_p50",
            median(reqs.field("/ingest", "eval_us")), "us");
    rep.add("server.ingest_apply_us_p99",
            quantile(reqs.field("/ingest", "eval_us"), 0.99), "us");
    // What the replayed layer calls do not explain: subscription routing,
    // cache repair, snapshot publication and contention with the readers.
    const auto layer = [&](const char* name) { return rep.metrics[name].first; };
    rep.add("server.ingest_rest_us_p50",
            median(reqs.field("/ingest", "eval_us")) -
                layer("core.monitor.append_us_p50") -
                layer("log.store.append_us_p50") -
                1000 * layer("core.monitor.snapshot_ms") -
                1000 * layer("core.engine.build_ms"),
            "us");
    rep.add("server.subscribe.pending_max", pending_max, "count");
  }

  // Let the last deliveries arrive, then check the streams against a batch
  // /query over the final log.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const JsonValue stats1 = get_json(admin, "/stats");
  std::vector<double> delivery;
  for (std::size_t k = 0; k < subs.size(); ++k) {
    const auto expect = final_incidents(admin, kSubscribed[k], history_max_wid);
    const auto r = admin.request("DELETE", "/subscribe/" + subs[k].id, "",
                                 "application/json");
    subs[k].thread.join();
    std::set<std::pair<Wid, std::vector<IsLsn>>> got;
    for (const auto& [inc, t] : subs[k].got) {
      got.insert(inc);
      const auto sent = producer.sent_at.find({inc.first, inc.second.back()});
      if (sent == producer.sent_at.end()) {
        rep.mismatch("delivery without a matching ingest");
        continue;
      }
      // An incident is complete once its last record is ingested; count
      // the deliveries of the untraced main phase only.
      const std::size_t event = sent->second.second;
      if (event >= warm_events && event < main_events) {
        delivery.push_back(ms_between(sent->second.first, t));
      }
    }
    rep.phase(std::string("deliveries ") + kSubscribed[k], got.size(),
              got == expect ? 0 : 1);
    if (got != expect || r.status != 200) {
      rep.mismatch(std::string("stream of ") + kSubscribed[k] + ": got " +
                   std::to_string(got.size()) + ", batch /query has " +
                   std::to_string(expect.size()) + " (" + subs[k].end_reason +
                   ")");
    }
  }
  rep.add("delivery_p50_ms", median(delivery), "ms");
  rep.add("delivery_p95_ms", quantile(delivery, 0.95), "ms");

  rep.add("server.cache.hit_ratio", cache_hit_ratio(stats0, stats1), "ratio");
  const auto records = static_cast<double>(stats1.find("records")->as_int());
  rep.add("rss_bytes_per_record", d.rss_bytes() / records, "B");
  if (!d.stop()) rep.mismatch("wfqd did not exit cleanly");

  const std::size_t expect_records = in.history_records + producer.applied;
  const std::size_t reopened = LogStore::open(store).num_records();
  if (reopened != expect_records) {
    rep.mismatch("store holds " + std::to_string(reopened) +
                 " records after reopen, expected " +
                 std::to_string(expect_records));
  }
  rep.add("store_bytes_per_record",
          static_cast<double>(dir_bytes(store) - store_bytes0) /
              static_cast<double>(producer.applied),
          "B");
  fs::remove_all(store);
  spans.write(cfg.work / ("live_ingest-" + std::to_string(cfg.seed) +
                          ".spans.jsonl"));
  return rep;
}

}  // namespace perfbench
