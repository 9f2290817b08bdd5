// Batch query evaluation (core/batch.h): N overlapping queries in one
// shared pass vs. N independent run() calls. The query families below
// share a long common prefix, so the canonical-key memo (Theorems 2-4)
// evaluates the prefix once per instance instead of once per query.
// Expected shape: batch time approaches (shared work) + N * (distinct
// work); the no-cache variant isolates the partitioning overhead.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "workflow/workload.h"

namespace {

using namespace wflog;

const Log& procurement_sized(std::size_t n) {
  static std::map<std::size_t, Log> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, workload::procurement(n, 0xBA7C4)).first;
  }
  return it->second;
}

const Log& clinic_sized(std::size_t n) {
  static std::map<std::size_t, Log> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, workload::clinic(n, 0xBA7C4)).first;
  }
  return it->second;
}

// Eight audit queries over the same six-step procurement prefix: "of
// the orders that went through the full receive-and-verify path, which
// ones then ...?". Left-associative parsing makes the prefix a shared
// subtree, so its canonical key is identical across all eight; the
// suffix atoms (Pay, Dispute, ...) also dedup wherever they repeat.
const std::vector<std::string>& procurement_queries() {
  static const std::string prefix =
      "CreatePO -> ApprovePO -> ReceiveGoods -> InspectGoods -> "
      "ReceiveInvoice -> VerifyInvoice";
  static const std::vector<std::string> queries = {
      prefix + " -> Pay",
      prefix + " -> Dispute",
      prefix + " -> CloseOrder",
      prefix + " -> MatchThreeWay",
      prefix + " -> ApprovePayment",
      prefix + " -> (Pay | Dispute)",
      prefix + " -> (MatchThreeWay -> Pay)",
      prefix + " -> (ApprovePayment & Pay)",
  };
  return queries;
}

const std::vector<std::string>& clinic_queries() {
  static const std::vector<std::string> queries = {
      "GetRefer -> SeeDoctor -> GetReimburse",
      "GetRefer -> SeeDoctor -> PayTreatment",
      "GetRefer -> SeeDoctor -> UpdateRefer",
      "GetRefer -> SeeDoctor -> (UpdateRefer -> GetReimburse)",
      "GetRefer -> SeeDoctor -> (GetReimburse | PayTreatment)",
      "GetRefer -> SeeDoctor -> (UpdateRefer & GetReimburse)",
  };
  return queries;
}

// Both arms run the same front-end per query (parse only; the optimizer
// is disabled so the measured difference is evaluation sharing, not
// rewrite luck). run() and run_batch() then evaluate identically modulo
// the memo.
QueryOptions bench_options() {
  QueryOptions options;
  options.optimize = false;
  return options;
}

void report(benchmark::State& state, const QueryEngine& engine,
            const std::vector<std::string>& queries, bool use_cache) {
  const BatchResult r = engine.run_batch(queries, 1, use_cache);
  state.counters["incidents"] = static_cast<double>(r.total());
  state.counters["cache_hits"] = static_cast<double>(r.cache_hits());
  state.counters["shared_nodes"] =
      static_cast<double>(r.stats.plan.shared_nodes());
}

void run_sequential(benchmark::State& state, const Log& log,
                    const std::vector<std::string>& queries) {
  const QueryEngine engine(log, bench_options());
  std::size_t total = 0;
  for (auto _ : state) {
    total = 0;
    for (const std::string& q : queries) {
      const QueryResult r = engine.run(q);
      total += r.total();
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["incidents"] = static_cast<double>(total);
}

void run_batch(benchmark::State& state, const Log& log,
               const std::vector<std::string>& queries, bool use_cache) {
  const QueryEngine engine(log, bench_options());
  for (auto _ : state) {
    const BatchResult r = engine.run_batch(queries, 1, use_cache);
    benchmark::DoNotOptimize(r);
  }
  report(state, engine, queries, use_cache);
}

void BM_ProcurementSequential8(benchmark::State& state) {
  run_sequential(state, procurement_sized(static_cast<std::size_t>(
                            state.range(0))),
                 procurement_queries());
}

void BM_ProcurementBatch8(benchmark::State& state) {
  run_batch(state,
            procurement_sized(static_cast<std::size_t>(state.range(0))),
            procurement_queries(), true);
}

void BM_ProcurementBatch8NoCache(benchmark::State& state) {
  run_batch(state,
            procurement_sized(static_cast<std::size_t>(state.range(0))),
            procurement_queries(), false);
}

void BM_ClinicSequential6(benchmark::State& state) {
  run_sequential(state,
                 clinic_sized(static_cast<std::size_t>(state.range(0))),
                 clinic_queries());
}

void BM_ClinicBatch6(benchmark::State& state) {
  run_batch(state, clinic_sized(static_cast<std::size_t>(state.range(0))),
            clinic_queries(), true);
}

void BM_ClinicBatch6NoCache(benchmark::State& state) {
  run_batch(state, clinic_sized(static_cast<std::size_t>(state.range(0))),
            clinic_queries(), false);
}

// E21: wid-sharded scatter/gather (core/shard.h). One heavy run() and the
// shared batch, each swept over the engine's shard count — results are
// byte-identical across the sweep (shard_test proves it); this measures
// only the latency shape. Speedup is bounded by physical cores.
void run_sharded(benchmark::State& state, const Log& log,
                 std::size_t shards) {
  QueryOptions options = bench_options();
  options.shards = shards;
  const QueryEngine engine(log, options);
  for (auto _ : state) {
    const QueryResult r =
        engine.run("GetRefer -> SeeDoctor -> GetReimburse");
    benchmark::DoNotOptimize(r);
    state.counters["incidents"] = static_cast<double>(r.total());
  }
  state.counters["shards"] = static_cast<double>(engine.shards());
}

void BM_ClinicRunSharded(benchmark::State& state) {
  run_sharded(state, clinic_sized(static_cast<std::size_t>(state.range(0))),
              static_cast<std::size_t>(state.range(1)));
}

void BM_ClinicBatch6Sharded(benchmark::State& state) {
  const Log& log = clinic_sized(static_cast<std::size_t>(state.range(0)));
  QueryOptions options = bench_options();
  options.shards = static_cast<std::size_t>(state.range(1));
  const QueryEngine engine(log, options);
  for (auto _ : state) {
    const BatchResult r = engine.run_batch(clinic_queries(), 1, true);
    benchmark::DoNotOptimize(r);
  }
  report(state, engine, clinic_queries(), true);
}

void shard_sweep(benchmark::internal::Benchmark* b) {
  for (int n : {1000, 10000}) {
    for (int k : {1, 2, 4, 8}) {
      b->Args({n, k});
    }
  }
}

void instance_sweep(benchmark::internal::Benchmark* b) {
  for (int n : {100, 1000, 10000}) {
    b->Arg(n);
  }
}

BENCHMARK(BM_ProcurementSequential8)->Apply(instance_sweep);
BENCHMARK(BM_ProcurementBatch8)->Apply(instance_sweep);
BENCHMARK(BM_ProcurementBatch8NoCache)->Apply(instance_sweep);
BENCHMARK(BM_ClinicSequential6)->Apply(instance_sweep);
BENCHMARK(BM_ClinicBatch6)->Apply(instance_sweep);
BENCHMARK(BM_ClinicBatch6NoCache)->Apply(instance_sweep);
BENCHMARK(BM_ClinicRunSharded)->Apply(shard_sweep);
BENCHMARK(BM_ClinicBatch6Sharded)->Apply(shard_sweep);

}  // namespace
