// Extension bench — the linear-pattern fast path (core/linear.h): count()
// and exists() for temporal chains via occurrence-list DP versus full
// incident materialization. Expected shape: materialized counting is bound
// by the (potentially quadratic/cubic) incident-set size; the DP stays
// linear in the occurrence lists, so the gap widens with chain length and
// per-activity frequency.

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "core/evaluator.h"
#include "core/linear.h"
#include "core/parser.h"
#include "workflow/workload.h"

namespace {

using namespace wflog;

/// chain(instances, alphabet=4, repeats): A0..A3 repeated; occurrence lists
/// of length `repeats` per instance.
const Log& chain_log(std::size_t repeats) {
  static std::map<std::size_t, Log> cache;
  auto it = cache.find(repeats);
  if (it == cache.end()) {
    it = cache.emplace(repeats, workload::chain(50, 4, repeats)).first;
  }
  return it->second;
}

std::string chain_query(std::size_t atoms) {
  std::string q = "A0";
  for (std::size_t i = 1; i < atoms; ++i) {
    q += " -> A" + std::to_string(i % 4);
  }
  return q;
}

void BM_CountMaterialized(benchmark::State& state) {
  const Log& log = chain_log(static_cast<std::size_t>(state.range(0)));
  const LogIndex index(log);
  const Evaluator ev(index);
  const PatternPtr p =
      parse_pattern(chain_query(static_cast<std::size_t>(state.range(1))));
  std::size_t count = 0;
  for (auto _ : state) {
    count = ev.evaluate(*p).total();
    benchmark::DoNotOptimize(count);
  }
  state.counters["count"] = static_cast<double>(count);
}

void BM_CountLinearDP(benchmark::State& state) {
  const Log& log = chain_log(static_cast<std::size_t>(state.range(0)));
  const LogIndex index(log);
  const Evaluator ev(index);  // count() takes the DP for linear chains
  const PatternPtr p =
      parse_pattern(chain_query(static_cast<std::size_t>(state.range(1))));
  std::size_t count = 0;
  for (auto _ : state) {
    count = ev.count(*p);
    benchmark::DoNotOptimize(count);
  }
  state.counters["count"] = static_cast<double>(count);
}

void BM_ExistsMaterialized(benchmark::State& state) {
  const Log& log = chain_log(static_cast<std::size_t>(state.range(0)));
  const LogIndex index(log);
  const Evaluator ev(index);
  const PatternPtr p =
      parse_pattern(chain_query(static_cast<std::size_t>(state.range(1))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(!ev.evaluate(*p).empty());
  }
}

void BM_ExistsLinearGreedy(benchmark::State& state) {
  const Log& log = chain_log(static_cast<std::size_t>(state.range(0)));
  const LogIndex index(log);
  const Evaluator ev(index);
  const PatternPtr p =
      parse_pattern(chain_query(static_cast<std::size_t>(state.range(1))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.exists(*p));
  }
}

void linear_args(benchmark::internal::Benchmark* b) {
  // {repeats per activity, chain length}
  for (int repeats : {4, 16, 64}) {
    for (int atoms : {2, 3, 4}) {
      b->Args({repeats, atoms});
    }
  }
}

// Materialized counting is output-bound (up to ~repeats^atoms incidents per
// instance), so its sweep stops where a single evaluation stays tractable.
void materialized_args(benchmark::internal::Benchmark* b) {
  b->Args({4, 2});
  b->Args({4, 3});
  b->Args({4, 4});
  b->Args({16, 2});
  b->Args({16, 3});
  b->Args({64, 2});
}

BENCHMARK(BM_CountMaterialized)->Apply(materialized_args);
BENCHMARK(BM_CountLinearDP)->Apply(linear_args);
BENCHMARK(BM_ExistsMaterialized)->Apply(materialized_args);
BENCHMARK(BM_ExistsLinearGreedy)->Apply(linear_args);

}  // namespace
