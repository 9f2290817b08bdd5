// wfq: a command-line workflow-log query tool over CSV/JSONL logs — the
// "Log Queries" box of the paper's Figure 2 as a utility.
//
// Usage:
//   wfq stats  <log.{csv,jsonl}>
//   wfq query  <log.{csv,jsonl}> '<pattern>'  [--limit N] [--no-optimize]
//   wfq batch  <log> <queries.txt> [--no-cache] [--compare]
//              one query per line, '#' comments; evaluates all queries in
//              one shared pass (core/batch.h) scattered over --shards
//              (a legacy --threads N is accepted and ignored)
//   wfq exists <log.{csv,jsonl}> '<pattern>'
//   wfq count  <log.{csv,jsonl}> '<pattern>'
//   wfq explain <log.{csv,jsonl}> '<pattern>'
//   wfq tree   '<pattern>'
//   wfq footprint <log>                  direct-succession matrix
//   wfq discover  <log> [out.dot]        mine a model, print/export DOT
//   wfq audit     <log>                  built-in clinic compliance rules
//   wfq compact   <store-dir>            rewrite a LogStore into sealed v2
//                                        segments (log/store.h compaction)
//   wfq inspect-segment <seg-file>       JSON dump of one segment file:
//                                        blocks, zone maps, CRCs, ratios
//   wfq gen    clinic|procurement|random <instances> <seed> <out.{csv,jsonl,xes}>
//
// Logs may be .csv, .jsonl, or .xes (IEEE 1849) — format by extension — or
// a LogStore directory (contains MANIFEST). Store-directory queries go
// through the zone-map-pruned load: blocks whose zone maps rule out every
// instance that could satisfy the pattern's required activities are never
// inflated (identical incident sets either way).
//
// Global telemetry flags (any command, stripped before dispatch):
//   --trace <out.json>     record spans, write Chrome trace_event JSON
//                          (load in chrome://tracing or ui.perfetto.dev);
//                          also enables per-operator-node eval spans
//   --metrics              print Prometheus text exposition on exit
//   --metrics-json <file>  write the metrics snapshot as JSON
//
// Resource-guard flags (query/batch, stripped before dispatch):
//   --deadline-ms N        wall-clock budget per evaluation; on expiry the
//                          incidents found so far are printed with a
//                          "partial result" note (exit stays 0/1)
//   --max-incidents N      stop after emitting ~N incidents (Theorem 1
//                          memory guard); same partial-result semantics
//
// Sharding flag (query/batch/exists/count/repl, stripped before dispatch):
//   --shards N             evaluate over N wid-disjoint shards on a worker
//                          pool (core/shard.h); 0 = hardware concurrency
//                          (default), 1 = serial. Byte-identical results.
//                          A negative or non-numeric N is a usage error.
//
// Pattern syntax: activity names; operators . (consecutive), -> (sequential),
// | (choice), & (parallel); ! negation; [attr op value] predicates.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "engine_flags.h"

#include "common/error.h"
#include "common/text.h"
#include "core/engine.h"
#include "core/compliance.h"
#include "core/explain.h"
#include "core/printer.h"
#include "log/io_csv.h"
#include "log/io_jsonl.h"
#include "log/io_xes.h"
#include "log/segfmt.h"
#include "log/stats.h"
#include "log/store.h"
#include "obs/telemetry.h"
#include "server/client.h"
#include "server/json.h"
#include "workflow/discovery.h"
#include "workflow/dot.h"
#include "workflow/clinic.h"
#include "workflow/workload.h"

namespace {

using namespace wflog;

/// The shared flags (engine_flags.h), stripped in main(); --deadline-ms /
/// --max-incidents fold into every QueryOptions the query/batch commands
/// build via guarded_options().
cli::EngineFlags g_flags;

QueryOptions guarded_options() { return g_flags.query_options(); }

/// One-line note when an evaluation came back flagged partial.
void report_partial(const QueryResult& r) {
  if (r.complete() || !r.ok()) return;
  std::cout << "note: PARTIAL result (" << stop_reason_name(r.stop_reason)
            << " limit hit); incidents shown are a valid subset\n";
}

[[noreturn]] void usage() {
  std::cerr
      << "usage:\n"
         "  wfq stats  <log.{csv,jsonl}>\n"
         "  wfq query  <log> '<pattern>' [--limit N] [--no-optimize]\n"
         "  wfq batch  <log> <queries.txt> [--no-cache] [--compare]\n"
         "  wfq exists <log> '<pattern>'\n"
         "  wfq count  <log> '<pattern>'\n"
         "  wfq explain <log> '<pattern>'\n"
         "  wfq tree   '<pattern>'\n"
         "  wfq footprint <log>\n"
         "  wfq discover  <log> [out.dot]\n"
         "  wfq audit     <log>\n"
         "  wfq compact   <store-dir>\n"
         "  wfq inspect-segment <seg-file>\n"
         "  wfq repl      <log>\n"
         "  wfq subscribe <host:port> '<pattern>' [--stream] [--wait-ms N] "
         "[--max N]\n"
         "  wfq gen    clinic|procurement|random <instances> <seed> "
         "<out.{csv,jsonl,xes}>\n"
         "global flags (any command): --trace <out.json>  --metrics  "
         "--metrics-json <file>\n"
         "guard flags (query/batch):  --deadline-ms N  --max-incidents N\n"
         "shard flag (evaluating commands): --shards N (0 = hw "
         "concurrency, 1 = serial)\n";
  std::exit(2);
}

using cli::has_suffix;

/// A LogStore directory is recognized by its MANIFEST; file paths go
/// through the by-extension readers.
bool is_store_dir(const std::string& path) {
  namespace fs = std::filesystem;
  return fs::is_directory(path) && fs::exists(fs::path(path) / "MANIFEST");
}

Log load_log(const std::string& path) {
  if (is_store_dir(path)) return LogStore::open(path).load();
  return cli::load_log(path);
}

/// Load for one pattern: a store directory goes through the zone-map-pruned
/// path (only instances that could satisfy the pattern's required-activity
/// set are materialized; blocks ruled out by zone maps are never inflated).
Log load_log_for(const std::string& path, const std::string& pattern_text) {
  if (!is_store_dir(path)) return cli::load_log(path);
  const PatternPtr parsed = parse_pattern(pattern_text);
  const LogStore store = LogStore::open(path);
  LogStore::PrunedLoad pruned =
      store.load_pruned(required_activities(*parsed));
  if (pruned.pruned) {
    std::cout << "store: kept " << pruned.records_kept << "/"
              << store.num_records() << " records; blocks read "
              << pruned.blocks_read << ", skipped " << pruned.blocks_skipped
              << " of " << pruned.blocks_total << " zone-mapped\n";
  }
  return std::move(pruned.log);
}

void save_log(const Log& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open '" + path + "' for writing");
  if (has_suffix(path, ".jsonl")) {
    write_jsonl(log, out);
  } else if (has_suffix(path, ".csv")) {
    write_csv(log, out);
  } else if (has_suffix(path, ".xes")) {
    write_xes(log, out);
  } else {
    throw IoError("unknown output format (expect .csv/.jsonl/.xes): " +
                  path);
  }
}

int cmd_stats(const std::string& path) {
  std::cout << compute_stats(load_log(path)).to_string();
  return 0;
}

int cmd_query(const std::string& path, const std::string& pattern,
              std::size_t limit, bool optimize) {
  const Log log = load_log_for(path, pattern);
  QueryOptions opts = guarded_options();
  opts.optimize = optimize;
  QueryEngine engine(log, opts);
  const QueryResult r = engine.run(pattern);
  std::cout << "pattern:   " << to_text(*r.parsed) << "\n";
  if (!r.executed->structurally_equal(*r.parsed)) {
    std::cout << "optimized: " << to_text(*r.executed) << " (est. cost "
              << r.estimated_cost_before << " -> " << r.estimated_cost_after
              << ")\n";
  }
  std::cout << "time: parse " << r.parse_us << " us, optimize "
            << r.optimize_us << " us, eval " << r.eval_us << " us\n"
            << render_incident_set(r.incidents, engine.index(), limit);
  report_partial(r);
  return r.any() ? 0 : 1;
}

int cmd_batch(const std::string& path, const std::string& queries_path,
              bool use_cache, bool compare) {
  std::ifstream in(queries_path);
  if (!in) throw IoError("cannot open '" + queries_path + "'");
  std::vector<std::string> texts;
  std::string line;
  while (std::getline(in, line)) {
    const std::string text{trim(line)};
    if (!text.empty() && text[0] != '#') texts.push_back(text);
  }
  if (texts.empty()) throw IoError("no queries in '" + queries_path + "'");

  const Log log = load_log(path);
  QueryEngine engine(log, guarded_options());
  const BatchResult batch =
      engine.run_batch(texts, /*threads (ignored)=*/1, use_cache);

  // Failure isolation: a malformed query is an error slot, the rest of the
  // batch still ran. Report errors inline, count them for the exit code.
  std::size_t failed = 0;
  for (std::size_t q = 0; q < texts.size(); ++q) {
    const QueryResult& r = batch.results[q];
    std::cout << "[" << q << "] " << texts[q] << "\n      ";
    if (!r.ok()) {
      ++failed;
      std::cout << "error: " << r.error << "\n";
    } else {
      std::cout << r.total() << " incidents";
      if (!r.complete()) {
        std::cout << " (PARTIAL: " << stop_reason_name(r.stop_reason) << ")";
      }
      std::cout << "\n";
    }
  }
  const BatchPlanStats& plan = batch.stats.plan;
  std::cout << "batch: " << plan.num_queries << " queries, "
            << plan.total_nodes << " pattern nodes -> "
            << plan.distinct_slots << " shared slots ("
            << plan.shared_nodes() << " deduplicated)\n"
            << "cache: " << batch.cache_hits() << " hits, "
            << batch.cache_misses() << " misses, " << batch.cache_bytes()
            << " bytes retained\n"
            << "eval:  " << batch.eval_us << " us on "
            << batch.stats.threads_used << " shard(s)\n";

  if (compare) {
    const auto t0 = std::chrono::steady_clock::now();
    bool identical = true;
    for (std::size_t q = 0; q < texts.size(); ++q) {
      if (!batch.results[q].ok()) continue;  // error slots have no answer
      const QueryResult solo = engine.run(texts[q]);
      identical =
          identical && solo.incidents == batch.results[q].incidents;
    }
    const double solo_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    std::cout << "sequential: " << solo_us << " us ("
              << (batch.eval_us > 0 ? solo_us / batch.eval_us : 0)
              << "x batch eval), results "
              << (identical ? "identical" : "DIFFER!") << "\n";
    if (!identical) return 4;
  }
  return failed != 0 ? 5 : 0;
}

int cmd_exists(const std::string& path, const std::string& pattern) {
  const Log log = load_log_for(path, pattern);
  QueryEngine engine(log, guarded_options());
  const bool found = engine.exists(pattern);
  std::cout << (found ? "yes" : "no") << "\n";
  return found ? 0 : 1;
}

int cmd_count(const std::string& path, const std::string& pattern) {
  const Log log = load_log_for(path, pattern);
  QueryEngine engine(log, guarded_options());
  std::cout << engine.count(pattern) << "\n";
  return 0;
}

int cmd_explain(const std::string& path, const std::string& pattern) {
  const Log log = load_log(path);
  const LogIndex index(log);
  const CostModel model(index);
  std::cout << explain(*parse_pattern(pattern), index, model).to_string();
  return 0;
}

int cmd_tree(const std::string& pattern) {
  std::cout << to_tree_string(*parse_pattern(pattern));
  return 0;
}

int cmd_footprint(const std::string& path) {
  const Log log = load_log(path);
  std::cout << discover_footprint(LogIndex(log)).to_string();
  return 0;
}

int cmd_discover(const std::string& path, const std::string& dot_out) {
  const Log log = load_log(path);
  const WorkflowModel model = discover_model(LogIndex(log));
  const std::string dot = to_dot(model);
  if (dot_out.empty()) {
    std::cout << dot;
  } else {
    std::ofstream out(dot_out);
    if (!out) throw IoError("cannot open '" + dot_out + "' for writing");
    out << dot;
    std::cout << "wrote " << model.num_nodes() << "-node model to "
              << dot_out << "\n";
  }
  return 0;
}

int cmd_audit(const std::string& path) {
  const Log log = load_log(path);
  const LogIndex index(log);
  const ComplianceReport report = check_compliance(
      {
          Rule::init("GetRefer"),
          Rule::exactly("GetRefer", 1),
          Rule::exactly("CheckIn", 1),
          Rule::precedence("CheckIn", "SeeDoctor"),
          Rule::precedence("PayTreatment", "GetReimburse"),
          Rule::not_succession("GetReimburse", "UpdateRefer"),
          Rule::absence("GetReimburse", 2),
      },
      index);
  std::cout << report.to_string();
  return report.compliant() ? 0 : 1;
}

int cmd_repl(const std::string& path) {
  const Log log = load_log(path);
  QueryEngine engine(log, guarded_options());
  std::cout << "loaded " << log.size() << " records, "
            << log.wids().size()
            << " instances. Enter patterns (:q quits, :stats, :explain "
               "<pattern>).\n";
  std::string line;
  while (std::cout << "wfq> " && std::getline(std::cin, line)) {
    const std::string text{trim(line)};
    if (text.empty()) continue;
    if (text == ":q" || text == ":quit") break;
    try {
      if (text == ":stats") {
        std::cout << compute_stats(log).to_string();
        continue;
      }
      if (text.starts_with(":explain ")) {
        const CostModel model(engine.index());
        std::cout << explain(*parse_pattern(text.substr(9)), engine.index(),
                             model)
                         .to_string();
        continue;
      }
      const QueryResult r = engine.run(text);
      std::cout << render_incident_set(r.incidents, engine.index(), 10);
    } catch (const Error& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  return 0;
}

int cmd_compact(const std::string& dir) {
  const LogStore::CompactionReport r = LogStore::compact(dir);
  std::cout << "compacted " << r.records << " records: " << r.segments_before
            << " segment(s), " << r.bytes_before << " bytes -> "
            << r.segments_after << " segment(s), " << r.bytes_after
            << " bytes (" << r.blocks_written << " blocks)";
  if (r.bytes_after > 0 && r.bytes_before >= r.bytes_after) {
    std::printf(", %.2fx smaller",
                static_cast<double>(r.bytes_before) /
                    static_cast<double>(r.bytes_after));
  }
  std::cout << "\n";
  return 0;
}

void json_escape_to(std::ostream& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
}

/// Machine-readable dump of one segment file: header facts, per-block zone
/// maps, CRCs, compression ratios. v2 segments are read via the footer
/// when sealed, by block scan otherwise; v1 segments report line counts.
int cmd_inspect_segment(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = std::move(buf).str();

  std::ostream& out = std::cout;
  out << "{\n  \"path\": \"";
  json_escape_to(out, path);
  out << "\",\n  \"bytes\": " << data.size();

  if (!data.starts_with(kSegV2FileMagic)) {
    // v1 JSONL (or foreign) segment: count checksummed record lines.
    std::size_t records = 0;
    std::size_t pos = 0;
    while (pos < data.size()) {
      std::size_t nl = data.find('\n', pos);
      if (nl == std::string::npos) nl = data.size();
      if (!trim(std::string_view(data).substr(pos, nl - pos)).empty()) {
        ++records;
      }
      pos = nl + 1;
    }
    out << ",\n  \"format\": \"v1-jsonl\",\n  \"records\": " << records
        << "\n}\n";
    return 0;
  }

  const std::optional<FooterRead> footer = try_read_v2_footer(data);
  std::vector<BlockZone> zones;
  std::size_t record_count = 0;
  bool torn = false;
  std::string corrupt;
  if (footer.has_value()) {
    zones = footer->footer.blocks;
    record_count = footer->footer.record_count;
  } else {
    const BlockScan scan = scan_v2_blocks(data);
    zones = scan.zones;
    torn = scan.torn;
    corrupt = scan.corrupt_reason;
    for (const BlockZone& z : zones) record_count += z.record_count;
  }
  out << ",\n  \"format\": \"v2-blocks\""
      << ",\n  \"sealed\": " << (footer.has_value() ? "true" : "false")
      << ",\n  \"torn\": " << (torn ? "true" : "false");
  if (!corrupt.empty()) {
    out << ",\n  \"corrupt\": \"";
    json_escape_to(out, corrupt);
    out << "\"";
  }
  out << ",\n  \"records\": " << record_count
      << ",\n  \"blocks\": [";
  std::uint64_t comp_total = 0;
  std::uint64_t uncomp_total = 0;
  for (std::size_t i = 0; i < zones.size(); ++i) {
    const BlockZone& z = zones[i];
    comp_total += z.compressed_size;
    uncomp_total += z.uncompressed_size;
    out << (i == 0 ? "" : ",") << "\n    {\"offset\": " << z.file_offset
        << ", \"codec\": \""
        << (z.codec == static_cast<std::uint32_t>(BlockCodec::kDeflate)
                ? "deflate"
                : "raw")
        << "\", \"compressed_size\": " << z.compressed_size
        << ", \"uncompressed_size\": " << z.uncompressed_size
        << ", \"records\": " << z.record_count << ", \"wid_min\": "
        << z.wid_min << ", \"wid_max\": " << z.wid_max << ", \"lsn_min\": "
        << z.lsn_min << ", \"lsn_max\": " << z.lsn_max
        << ", \"payload_crc\": " << z.payload_crc
        << ", \"bloom_bits\": " << z.bloom.num_bits() << "}";
  }
  out << (zones.empty() ? "]" : "\n  ]")
      << ",\n  \"compressed_payload_bytes\": " << comp_total
      << ",\n  \"uncompressed_payload_bytes\": " << uncomp_total;
  if (comp_total > 0) {
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.3f",
                  static_cast<double>(uncomp_total) /
                      static_cast<double>(comp_total));
    out << ",\n  \"compression_ratio\": " << ratio;
  }
  if (footer.has_value()) {
    out << ",\n  \"footer_offset\": " << footer->footer_start
        << ",\n  \"watermarked_instances\": "
        << footer->footer.next_is_lsn.size();
  }
  out << "\n}\n";
  return !corrupt.empty() ? 1 : 0;
}

int cmd_gen(const std::string& kind, std::size_t instances,
            std::uint64_t seed, const std::string& out) {
  Log log =
      kind == "clinic"        ? workload::clinic(instances, seed)
      : kind == "procurement" ? workload::procurement(instances, seed)
      : kind == "random"      ? workload::random_process(instances, seed)
                              : throw IoError("unknown generator: " + kind);
  save_log(log, out);
  std::cout << "wrote " << log.size() << " records ("
            << log.wids().size() << " instances) to " << out << "\n";
  return 0;
}

/// Standing query against a running wfqd: register via POST /subscribe,
/// then either consume the chunked stream (--stream) or long-poll with
/// per-round acknowledgements. One JSON object per stdout line; status
/// chatter goes to stderr so the output pipes cleanly into jq.
int cmd_subscribe(const std::string& endpoint, const std::string& pattern,
                  bool stream, std::int64_t wait_ms,
                  std::size_t max_events) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    throw IoError("endpoint must be host:port, got '" + endpoint + "'");
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    throw IoError("bad port in '" + endpoint + "'");
  }
  server::HttpClient client(host.empty() ? std::string("127.0.0.1") : host,
                            static_cast<std::uint16_t>(port),
                            /*timeout_ms=*/30000);

  server::JsonValue req;
  req.set("query", pattern);
  const server::ClientResponse created =
      client.post("/subscribe", req.dump());
  if (created.status != 201) {
    std::cerr << "subscribe failed (" << created.status
              << "): " << created.body << "\n";
    return 1;
  }
  const server::JsonValue meta = server::parse_json(created.body);
  const std::string id = meta.find("id")->as_string();
  std::cerr << "subscribed as " << id << " ("
            << meta.find("matched")->as_int()
            << " historical incidents queued)\n";

  std::size_t seen = 0;
  if (stream) {
    // Each chunk is one JSON object: incident, heartbeat, or the terminal
    // end marker. Heartbeats stay off stdout.
    const server::ClientResponse r = client.stream(
        "GET", "/subscribe/" + id + "?stream=1", "",
        [&](std::string_view chunk) {
          std::string line(chunk);
          while (!line.empty() && line.back() == '\n') line.pop_back();
          if (line.find("\"type\":\"heartbeat\"") != std::string::npos) {
            return true;
          }
          std::cout << line << "\n" << std::flush;
          if (line.find("\"type\":\"incident\"") != std::string::npos) {
            ++seen;
            if (max_events > 0 && seen >= max_events) return false;
          }
          return true;
        });
    if (r.status != 200) {
      std::cerr << "stream failed (" << r.status << "): " << r.body << "\n";
      return 1;
    }
    return 0;
  }

  // Long-poll: ?after= acknowledges the previous round, so each incident
  // is delivered exactly once even across reconnects.
  std::uint64_t after = 0;
  while (true) {
    const server::ClientResponse r = client.get(
        "/subscribe/" + id + "?wait_ms=" + std::to_string(wait_ms) +
        "&after=" + std::to_string(after));
    if (r.status == 404) {
      std::cerr << "subscription is gone\n";
      return 1;
    }
    if (r.status != 200) {
      std::cerr << "poll failed (" << r.status << "): " << r.body << "\n";
      return 1;
    }
    const server::JsonValue body = server::parse_json(r.body);
    for (const server::JsonValue& e : body.find("events")->as_array()) {
      std::cout << e.dump() << "\n";
      ++seen;
      if (max_events > 0 && seen >= max_events) {
        std::cout << std::flush;
        return 0;
      }
    }
    std::cout << std::flush;
    after = static_cast<std::uint64_t>(body.find("next_after")->as_int());
    const server::JsonValue* closed = body.find("closed");
    if (closed != nullptr && closed->is_bool() && closed->as_bool()) {
      const server::JsonValue* reason = body.find("reason");
      std::cerr << "subscription closed ("
                << (reason != nullptr && reason->is_string()
                        ? reason->as_string()
                        : std::string("closed"))
                << ")\n";
      return 0;
    }
  }
}

int dispatch(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "stats" && argc == 3) return cmd_stats(argv[2]);
    if (cmd == "query" && argc >= 4) {
      std::size_t limit = 20;
      bool optimize = true;
      for (int i = 4; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--no-optimize") {
          optimize = false;
        } else if (flag == "--limit" && i + 1 < argc) {
          limit = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else {
          usage();
        }
      }
      return cmd_query(argv[2], argv[3], limit, optimize);
    }
    if (cmd == "batch" && argc >= 4) {
      bool use_cache = true;
      bool compare = false;
      for (int i = 4; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--no-cache") {
          use_cache = false;
        } else if (flag == "--compare") {
          compare = true;
        } else if (flag == "--threads" && i + 1 < argc) {
          ++i;
          std::cerr << "note: --threads is ignored; batch parallelism is "
                       "--shards\n";
        } else {
          usage();
        }
      }
      return cmd_batch(argv[2], argv[3], use_cache, compare);
    }
    if (cmd == "exists" && argc == 4) return cmd_exists(argv[2], argv[3]);
    if (cmd == "count" && argc == 4) return cmd_count(argv[2], argv[3]);
    if (cmd == "explain" && argc == 4) return cmd_explain(argv[2], argv[3]);
    if (cmd == "tree" && argc == 3) return cmd_tree(argv[2]);
    if (cmd == "footprint" && argc == 3) return cmd_footprint(argv[2]);
    if (cmd == "discover" && (argc == 3 || argc == 4)) {
      return cmd_discover(argv[2], argc == 4 ? argv[3] : "");
    }
    if (cmd == "audit" && argc == 3) return cmd_audit(argv[2]);
    if (cmd == "compact" && argc == 3) return cmd_compact(argv[2]);
    if (cmd == "inspect-segment" && argc == 3) {
      return cmd_inspect_segment(argv[2]);
    }
    if (cmd == "repl" && argc == 3) return cmd_repl(argv[2]);
    if (cmd == "subscribe" && argc >= 4) {
      bool stream = false;
      std::int64_t wait_ms = 10000;
      std::size_t max_events = 0;
      for (int i = 4; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--stream") {
          stream = true;
        } else if (flag == "--wait-ms" && i + 1 < argc) {
          wait_ms = std::atoll(argv[++i]);
        } else if (flag == "--max" && i + 1 < argc) {
          max_events = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else {
          usage();
        }
      }
      return cmd_subscribe(argv[2], argv[3], stream, wait_ms, max_events);
    }
    if (cmd == "gen" && argc == 6) {
      return cmd_gen(argv[2],
                     static_cast<std::size_t>(std::atoll(argv[3])),
                     static_cast<std::uint64_t>(std::atoll(argv[4])),
                     argv[5]);
    }
  } catch (const ParseError& e) {
    std::cerr << "parse error: " << e.what() << "\n";
    return 3;
  } catch (const QueryError& e) {
    std::cerr << "query error: " << e.what() << "\n";
    return 3;
  } catch (const IoError& e) {
    std::cerr << "io error: " << e.what() << "\n";
    return 3;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the shared flags (engine_flags.h, position-independent) so each
  // subcommand's own argument parsing never sees them; the TelemetryScope
  // writes the trace/metrics outputs when main returns.
  std::vector<char*> args;
  g_flags = cli::strip_engine_flags(argc, argv, args);
  cli::TelemetryScope telemetry(g_flags);

  // Last-resort guard: nothing escapes as std::terminate — every failure
  // becomes a one-line diagnostic and a nonzero exit.
  try {
    return dispatch(static_cast<int>(args.size()), args.data());
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return 3;
  }
}
