#include "inputs.h"

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <stdexcept>

#include "log/io_jsonl.h"
#include "log/store.h"
#include "workflow/workload.h"

namespace perfbench {

using namespace wflog;

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

NamedAttrs named(const Log& log, const AttrMap& m) {
  NamedAttrs out;
  for (const AttrEntry& e : m) {
    out.emplace_back(log.interner().name(e.attr), e.value);
  }
  return out;
}

Log simulate(const std::string& kind, std::size_t instances,
             std::uint64_t seed) {
  constexpr std::size_t kChunk = 2500;
  LogBuilder b;
  Rng rng(seed);
  for (std::size_t done = 0; done < instances; done += kChunk) {
    const std::size_t n = std::min(kChunk, instances - done);
    const std::uint64_t chunk_seed = rng.next();
    const Log part = kind == "clinic" ? workload::clinic(n, chunk_seed)
                                      : workload::procurement(n, chunk_seed);
    std::unordered_map<Wid, Wid> wid_of;
    for (const LogRecord& r : part) {
      const std::string_view act = part.activity_name(r.activity);
      if (r.activity == part.start_symbol()) {
        wid_of[r.wid] = b.begin_instance();
      } else if (r.activity == part.end_symbol()) {
        b.end_instance(wid_of.at(r.wid));
      } else {
        b.append(wid_of.at(r.wid), act, named(part, r.in),
                 named(part, r.out));
      }
    }
  }
  return b.build();
}

void write_log(const Log& log, const fs::path& path) {
  std::ofstream out(path);
  write_jsonl(log, out);
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

Log read_log(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return read_jsonl(in);
}

void write_store(const Log& log, const fs::path& dir) {
  LogStore::Options opts;
  opts.fsync_policy = FsyncPolicy::kOff;
  {
    LogStore store = LogStore::create(dir, opts);
    std::unordered_map<Wid, Wid> wid_of;
    for (const LogRecord& r : log) {
      if (r.activity == log.start_symbol()) {
        wid_of[r.wid] = store.begin_instance();
      } else if (r.activity == log.end_symbol()) {
        store.end_instance(wid_of.at(r.wid));
      } else {
        store.record(wid_of.at(r.wid), log.activity_name(r.activity),
                     named(log, r.in), named(log, r.out));
      }
    }
    store.sync();
  }
  LogStore::compact(dir);
}

fs::path cached_inputs(const RunConfig& cfg,
                       const std::function<void(const fs::path&)>& make) {
  const fs::path dir =
      cfg.inputs / (cfg.workload + "-" + std::to_string(cfg.seed));
  if (fs::exists(dir / "READY")) return dir;
  const fs::path tmp = dir.string() + ".tmp" + std::to_string(getpid());
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  const auto t0 = Clock::now();
  make(tmp);
  std::ofstream(tmp / "READY") << "ok\n";
  fs::remove_all(dir);
  fs::rename(tmp, dir);
  std::cerr << "generated inputs for " << cfg.workload << " seed " << cfg.seed
            << " in " << seconds_since(t0) << " s\n";
  return dir;
}

}  // namespace perfbench
