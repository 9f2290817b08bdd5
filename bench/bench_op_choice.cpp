// E6 — Lemma 1, choice operator ⊗.
//
// Paper claim: O(n1·n2·min(k1,k2)) with duplicate elimination when the
// operands' activity multisets are equal, O(n1+n2) otherwise. Series:
//   * NoDedup            — disjoint operands, linear merge
//   * DedupNaive         — Algorithm 1's pairwise scan (the quadratic bound)
//   * DedupMerge         — the optimized sorted set-union dedup, O((n1+n2)·k)
// swept over n and over incident size k (the min(k1,k2) factor).
// Expected shape: naive grows ~n²; merge and no-dedup stay ~linear; cost
// grows with k on the dedup series.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/operators.h"
#include "core/operators_opt.h"

namespace {

using namespace wflog;

/// Overlapping operands: half the incidents shared, so dedup has real work.
std::pair<IncidentList, IncidentList> overlapping_lists(std::size_t n,
                                                        std::size_t k) {
  SyntheticIncidentOptions common{n / 2, k, 8 * n, 1, 0xCCCC};
  SyntheticIncidentOptions only_a{n / 2, k, 8 * n, 1, 0xAAAA};
  SyntheticIncidentOptions only_b{n / 2, k, 8 * n, 1, 0xBBBB};
  IncidentList shared = synthetic_incidents(common);
  IncidentList a = synthetic_incidents(only_a);
  IncidentList b = synthetic_incidents(only_b);
  a.insert(a.end(), shared.begin(), shared.end());
  b.insert(b.end(), shared.begin(), shared.end());
  canonicalize(a);
  canonicalize(b);
  return {a, b};
}

void BM_ChoiceNoDedup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto [a, b] = bench::operand_lists(n, 1, 8 * n);
  IncidentList out;  // reused, as the evaluator reuses its scratch
  for (auto _ : state) {
    eval_choice_opt(a, b, /*dedup=*/false, out);
    benchmark::DoNotOptimize(out);
  }
}

void BM_ChoiceDedupNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto [a, b] = overlapping_lists(n, k);
  for (auto _ : state) {
    IncidentList out = eval_choice_naive(a, b, /*dedup=*/true);
    benchmark::DoNotOptimize(out);
  }
}

void BM_ChoiceDedupMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto [a, b] = overlapping_lists(n, k);
  IncidentList out;  // reused, as the evaluator reuses its scratch
  for (auto _ : state) {
    eval_choice_opt(a, b, /*dedup=*/true, out);
    benchmark::DoNotOptimize(out);
  }
}

void dedup_args(benchmark::internal::Benchmark* b) {
  for (int n : {64, 256, 1024, 4096}) {
    for (int k : {1, 4}) {
      b->Args({n, k});
    }
  }
}

BENCHMARK(BM_ChoiceNoDedup)->Apply(wflog::bench::lemma1_args);
BENCHMARK(BM_ChoiceDedupNaive)->Apply(dedup_args);
BENCHMARK(BM_ChoiceDedupMerge)->Apply(dedup_args);

}  // namespace
