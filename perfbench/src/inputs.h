#pragma once

// Seeded inputs of the three workloads. Everything here runs before any
// timed region and is cached on disk per (workload, seed): the simulators
// are super-linear, so logs are simulated in chunks and concatenated.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "log/builder.h"
#include "log/log.h"

namespace perfbench {

/// Concatenation of `instances` simulated instances of `kind` ("clinic" or
/// "procurement"), simulated in chunks of at most 2500 instances with
/// seeds derived from `seed`. Wids are renumbered 1..instances.
wflog::Log simulate(const std::string& kind, std::size_t instances,
                    std::uint64_t seed);

/// Writes `log` as JSONL.
void write_log(const wflog::Log& log, const fs::path& path);
wflog::Log read_log(const fs::path& path);

/// Appends `log` record by record to a fresh LogStore at `dir` and compacts
/// it into sealed v2 segments.
void write_store(const wflog::Log& log, const fs::path& dir);

/// Attribute map `m` of a record of `log` as builder/store/monitor
/// arguments. The names are views into `log`'s interner.
wflog::NamedAttrs named(const wflog::Log& log, const wflog::AttrMap& m);

/// The folder holding the inputs of (workload, seed); `make(dir)` fills a
/// temporary folder that is renamed into place when it returns, so an
/// interrupted generation is never reused.
fs::path cached_inputs(const RunConfig& cfg,
                       const std::function<void(const fs::path&)>& make);

/// Seeded splitmix64 stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

}  // namespace perfbench
