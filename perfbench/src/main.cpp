// wflog_perfbench: runs one workload of the wflog benchmark and prints one
// JSON line with every metric it measured. perfbench/run.py builds this
// binary and wfqd, runs it, and keeps the metrics BENCHMARK.json names for
// the run's mode.
//
//   wflog_perfbench --workload adhoc_query|live_ingest|offline_batch
//                   --seed N --seconds S --trace 0|1
//                   --wfqd PATH --inputs DIR --work DIR

#include <cstring>
#include <iostream>
#include <thread>

#include "server/json.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: wflog_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --wfqd PATH --inputs DIR --work DIR\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (flag == "--trace") {
      cfg.trace = value != "0";
    } else if (flag == "--wfqd") {
      cfg.wfqd = value;
    } else if (flag == "--inputs") {
      cfg.inputs = value;
    } else if (flag == "--work") {
      cfg.work = value;
    } else {
      usage();
    }
  }
  if (cfg.wfqd.empty() || cfg.inputs.empty() || cfg.work.empty() ||
      cfg.seconds <= 0) {
    usage();
  }
  cfg.threads = std::max(1u, std::thread::hardware_concurrency());
  fs::create_directories(cfg.inputs);
  fs::create_directories(cfg.work);

  try {
    Report rep;
    if (cfg.workload == "adhoc_query") {
      rep = run_adhoc_query(cfg);
    } else if (cfg.workload == "live_ingest") {
      rep = run_live_ingest(cfg);
    } else if (cfg.workload == "offline_batch") {
      rep = run_offline_batch(cfg);
    } else {
      usage();
    }
    wflog::server::JsonValue metrics{wflog::server::JsonMembers{}};
    for (const auto& [name, vu] : rep.metrics) {
      wflog::server::JsonValue m{wflog::server::JsonMembers{}};
      m.set("value", vu.first);
      m.set("unit", vu.second);
      metrics.set(name, std::move(m));
    }
    wflog::server::JsonValue out{wflog::server::JsonMembers{}};
    out.set("correct", rep.correct && rep.failed == 0);
    out.set("attempted", static_cast<std::int64_t>(rep.attempted));
    out.set("failed", static_cast<std::int64_t>(rep.failed));
    out.set("metrics", std::move(metrics));
    std::cout << out.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "wflog_perfbench: " << e.what() << "\n";
    return 1;
  }
}
