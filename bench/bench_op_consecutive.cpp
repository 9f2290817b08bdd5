// E4 — Lemma 1, consecutive operator ⊙.
//
// Paper claim: inc_L(p1 ⊙ p2) computable in O(n1·n2), output at most n1·n2.
// Series: naive Algorithm 1 (the paper's bound) vs the optimized
// binary-search evaluator, n ∈ {64, 256, 1024, 4096} singleton incidents in
// an instance of length 4n (sparse adjacency, the common case).
// Expected shape: naive grows ~quadratically in n; optimized ~n log n.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/operators.h"
#include "core/operators_opt.h"

namespace {

using namespace wflog;

void BM_ConsecutiveNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [a, b] = bench::operand_lists(n, 1, 4 * n);
  std::size_t out_size = 0;
  for (auto _ : state) {
    IncidentList out = eval_consecutive_naive(a, b);
    out_size = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["n1"] = static_cast<double>(a.size());
  state.counters["n2"] = static_cast<double>(b.size());
  state.counters["out"] = static_cast<double>(out_size);
}

void BM_ConsecutiveOptimized(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [a, b] = bench::operand_lists(n, 1, 4 * n);
  std::size_t out_size = 0;
  IncidentList out;  // reused, as the evaluator reuses its scratch
  for (auto _ : state) {
    eval_consecutive_opt(a, b, out);
    out_size = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["out"] = static_cast<double>(out_size);
}

// Dense adjacency: instance length == n, so nearly every position pair is
// live; output approaches the Lemma 1 bound regime.
void BM_ConsecutiveDenseNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [a, b] = bench::operand_lists(n, 1, n);
  for (auto _ : state) {
    IncidentList out = eval_consecutive_naive(a, b);
    benchmark::DoNotOptimize(out);
  }
}

void BM_ConsecutiveDenseOptimized(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [a, b] = bench::operand_lists(n, 1, n);
  IncidentList out;  // reused, as the evaluator reuses its scratch
  for (auto _ : state) {
    eval_consecutive_opt(a, b, out);
    benchmark::DoNotOptimize(out);
  }
}

BENCHMARK(BM_ConsecutiveNaive)->Apply(wflog::bench::lemma1_args);
BENCHMARK(BM_ConsecutiveOptimized)->Apply(wflog::bench::lemma1_args);
BENCHMARK(BM_ConsecutiveDenseNaive)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_ConsecutiveDenseOptimized)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
