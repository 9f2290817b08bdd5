// E5 — Lemma 1, sequential operator ≫.
//
// Paper claim: O(n1·n2) time, output at most n1·n2 — and for uniform
// operands the output really is Θ(n1·n2/2), so both evaluators are
// output-bound there. The "selective" series places every right incident
// before every left one (empty output): the binary-search evaluator drops
// to ~n log n while the naive one stays quadratic. Expected shape: naive ≈
// optimized on the dense series; optimized wins by orders of magnitude on
// the selective series.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/operators.h"
#include "core/operators_opt.h"

namespace {

using namespace wflog;

void BM_SequentialDenseNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [a, b] = bench::operand_lists(n, 1, 4 * n);
  std::size_t out_size = 0;
  for (auto _ : state) {
    IncidentList out = eval_sequential_naive(a, b);
    out_size = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["out"] = static_cast<double>(out_size);
}

void BM_SequentialDenseOptimized(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [a, b] = bench::operand_lists(n, 1, 4 * n);
  std::size_t out_size = 0;
  IncidentList out;  // reused, as the evaluator reuses its scratch
  for (auto _ : state) {
    eval_sequential_opt(a, b, out);
    out_size = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["out"] = static_cast<double>(out_size);
}

/// Right operand entirely precedes the left one: zero matches.
std::pair<IncidentList, IncidentList> selective_lists(std::size_t n) {
  SyntheticIncidentOptions left{n, 1, 2 * n, 1, 0xAAAA};
  SyntheticIncidentOptions right{n, 1, 2 * n, 1, 0xBBBB};
  IncidentList a = synthetic_incidents(left);
  IncidentList b = synthetic_incidents(right);
  // Shift left incidents after every right incident.
  IncidentList shifted;
  shifted.reserve(a.size());
  for (const Incident& o : a) {
    shifted.push_back(Incident::singleton(
        o.wid(), o.first() + static_cast<IsLsn>(2 * n)));
  }
  return {shifted, b};
}

void BM_SequentialSelectiveNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [a, b] = selective_lists(n);
  for (auto _ : state) {
    IncidentList out = eval_sequential_naive(a, b);
    benchmark::DoNotOptimize(out);
  }
}

void BM_SequentialSelectiveOptimized(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [a, b] = selective_lists(n);
  IncidentList out;  // reused, as the evaluator reuses its scratch
  for (auto _ : state) {
    eval_sequential_opt(a, b, out);
    benchmark::DoNotOptimize(out);
  }
}

BENCHMARK(BM_SequentialDenseNaive)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_SequentialDenseOptimized)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_SequentialSelectiveNaive)->Apply(wflog::bench::lemma1_args);
BENCHMARK(BM_SequentialSelectiveOptimized)->Apply(wflog::bench::lemma1_args);

}  // namespace
