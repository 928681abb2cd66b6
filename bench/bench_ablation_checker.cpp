// Ablation: checker engines.
//
// The graph engine (constructive theorems, polynomial) vs the exhaustive
// engine (branch-and-bound, factorial) on the same store-generated
// observations, across observation-set sizes. This quantifies why the
// equivalence theorems matter operationally: they turn an exponential
// search into a serialization-graph pass.
//
// The *Scaling benchmarks track the parallel layer: check_batch throughput
// (histories/sec) and branch-parallel refutation latency as thread count
// grows. Each run exports {threads, histories_per_sec, speedup} counters, so
// a JSON export (--benchmark_format=json > BENCH_checker.json) records the
// scaling curve; `speedup` is relative to the threads=1 run of the same
// benchmark within the same process.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "checker/checker.hpp"
#include "model/compiled.hpp"
#include "store/runner.hpp"
#include "workload/workload.hpp"

using namespace crooks;

namespace {

store::RunResult run_of_size(std::size_t n) {
  const auto intents = wl::generate_mix({.transactions = n,
                                         .keys = std::max<std::size_t>(4, n / 3),
                                         .reads_per_txn = 2,
                                         .writes_per_txn = 2,
                                         .seed = n});
  return store::run(intents, {.mode = store::CCMode::kSnapshotIsolation,
                              .seed = 2 * n + 1, .concurrency = 4, .retries = 3});
}

void BM_GraphEngine(benchmark::State& state) {
  const store::RunResult r = run_of_size(static_cast<std::size_t>(state.range(0)));
  checker::CheckOptions opts;
  opts.version_order = &r.version_order;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checker::check_graph(ct::IsolationLevel::kSerializable, r.observations, opts)
            .outcome);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GraphEngine)->Arg(8)->Arg(32)->Arg(128)->Arg(512)->Complexity();

void BM_ExhaustiveEngine(benchmark::State& state) {
  const store::RunResult r = run_of_size(static_cast<std::size_t>(state.range(0)));
  checker::CheckOptions opts;
  opts.version_order = &r.version_order;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checker::check_exhaustive(ct::IsolationLevel::kSerializable, r.observations,
                                  opts)
            .outcome);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExhaustiveEngine)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Complexity();

/// Refutation is where the engines truly diverge: on an UNSATISFIABLE
/// instance (write skew padded with independent writers) the exhaustive
/// engine must exhaust the pruned permutation tree, while the graph engine
/// answers from one phenomena pass.
model::TransactionSet unsat_instance(std::size_t n) {
  using model::TxnBuilder;
  std::vector<model::Transaction> txns;
  txns.push_back(TxnBuilder(1).read(0, 0).read(1, 0).write(0).at(0, 1).build());
  txns.push_back(TxnBuilder(2).read(0, 0).read(1, 0).write(1).at(2, 3).build());
  for (std::uint64_t i = 3; i <= n; ++i) {
    txns.push_back(TxnBuilder(i)
                       .write(Key{i + 10})
                       .at(static_cast<Timestamp>(2 * i), static_cast<Timestamp>(2 * i + 1))
                       .build());
  }
  return model::TransactionSet(std::move(txns));
}

void BM_ExhaustiveRefutation(benchmark::State& state) {
  const model::TransactionSet txns = unsat_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checker::check_exhaustive(ct::IsolationLevel::kSerializable, txns).outcome);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExhaustiveRefutation)->Arg(4)->Arg(6)->Arg(8)->Arg(9)->Complexity();

void BM_GraphRefutation(benchmark::State& state) {
  const model::TransactionSet txns = unsat_instance(static_cast<std::size_t>(state.range(0)));
  std::unordered_map<Key, std::vector<TxnId>> vo;
  for (const model::Transaction& t : txns) {
    for (Key k : t.write_set()) vo[k].push_back(t.id());
  }
  checker::CheckOptions opts;
  opts.version_order = &vo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checker::check_graph(ct::IsolationLevel::kSerializable, txns, opts).outcome);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GraphRefutation)->Arg(4)->Arg(8)->Arg(32)->Arg(128)->Complexity();

void BM_ReadStateAnalysis(benchmark::State& state) {
  const store::RunResult r = run_of_size(static_cast<std::size_t>(state.range(0)));
  const model::Execution e =
      *checker::check(ct::IsolationLevel::kReadCommitted, r.observations).witness;
  for (auto _ : state) {
    const model::ReadStateAnalysis analysis(r.observations, e);
    benchmark::DoNotOptimize(analysis.preread_all());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReadStateAnalysis)->Arg(32)->Arg(128)->Arg(512)->Arg(2048)->Complexity();

/// Seconds-per-iteration baselines keyed by benchmark name, captured at
/// threads == 1 (google-benchmark runs the Arg(1) instance first).
std::map<std::string, double>& baselines() {
  static std::map<std::string, double> b;
  return b;
}

void record_scaling(benchmark::State& state, const std::string& name,
                    double secs_per_iter, double items_per_iter) {
  const auto threads = static_cast<double>(state.range(0));
  if (threads == 1) baselines()[name] = secs_per_iter;
  const double base = baselines().count(name) ? baselines()[name] : secs_per_iter;
  state.counters["threads"] = threads;
  state.counters["histories_per_sec"] = items_per_iter / secs_per_iter;
  state.counters["speedup"] = base / secs_per_iter;
  // Scaling curves are meaningless without the core count of the host that
  // produced them; record it in every exported row.
  state.counters["host_cpus"] = std::thread::hardware_concurrency();
}

/// check_batch over many independent histories — the store-runner /
/// fuzz-suite shape. Half are store-generated (satisfiable, witness found
/// fast), half are write-skew refutations (the whole pruned tree must be
/// exhausted), mirroring a real audit stream. No version order, so every
/// history goes through the exhaustive engine (threshold raised past the
/// history sizes).
std::vector<model::TransactionSet> batch_histories(std::size_t count) {
  std::vector<model::TransactionSet> histories;
  histories.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    histories.push_back(i % 2 == 0 ? run_of_size(9 + i % 3).observations
                                   : unsat_instance(8 + i % 3));
  }
  return histories;
}

void BM_CheckBatchScaling(benchmark::State& state) {
  constexpr std::size_t kHistories = 64;
  static const std::vector<model::TransactionSet> histories = batch_histories(kHistories);

  checker::CheckOptions opts;
  opts.exhaustive_threshold = 64;
  opts.threads = static_cast<std::size_t>(state.range(0));

  double secs = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto results =
        checker::check_batch(ct::IsolationLevel::kSerializable, histories, opts);
    benchmark::DoNotOptimize(results.data());
    secs += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kHistories * state.iterations()));
  record_scaling(state, "CheckBatch", secs / static_cast<double>(state.iterations()),
                 kHistories);
}
BENCHMARK(BM_CheckBatchScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Branch-parallel exhaustive refutation of one hard instance: the verdict
/// needs the whole pruned permutation tree, which the workers split by
/// top-level prefix branch.
void BM_ParallelExhaustiveScaling(benchmark::State& state) {
  const model::TransactionSet txns = unsat_instance(10);
  checker::CheckOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));

  double secs = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        checker::check_exhaustive(ct::IsolationLevel::kSerializable, txns, opts)
            .outcome);
    secs += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  record_scaling(state, "ParallelExhaustive",
                 secs / static_cast<double>(state.iterations()), 1);
}
BENCHMARK(BM_ParallelExhaustiveScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// End-to-end store pipeline: run + verify many workloads through
/// run_verified_batch (runs and checks both fan out).
void BM_VerifiedBatchScaling(benchmark::State& state) {
  constexpr std::size_t kWorkloads = 32;
  static const std::vector<std::vector<store::TxnIntent>> workloads = [] {
    std::vector<std::vector<store::TxnIntent>> ws;
    ws.reserve(kWorkloads);
    for (std::size_t i = 0; i < kWorkloads; ++i) {
      ws.push_back(wl::generate_mix({.transactions = 24,
                                     .keys = 8,
                                     .reads_per_txn = 2,
                                     .writes_per_txn = 2,
                                     .seed = 100 + i}));
    }
    return ws;
  }();

  checker::CheckOptions copts;
  copts.threads = static_cast<std::size_t>(state.range(0));

  double secs = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto verified = store::run_verified_batch(
        workloads,
        {.mode = store::CCMode::kSnapshotIsolation, .seed = 7, .concurrency = 4,
         .retries = 3},
        ct::IsolationLevel::kSerializable, copts);
    benchmark::DoNotOptimize(verified.data());
    secs += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kWorkloads * state.iterations()));
  record_scaling(state, "VerifiedBatch",
                 secs / static_cast<double>(state.iterations()), kWorkloads);
}
BENCHMARK(BM_VerifiedBatchScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// The compiled (interned, flat-indexed) history representation under the
/// sequential exhaustive search. The workload is exhaustive-heavy — half
/// store-generated satisfiable histories, half write-skew refutations whose
/// whole pruned permutation tree must be exhausted — so per-node cost
/// dominates. Exported counters: histories_per_sec, ns_per_node (elapsed
/// over total branch-and-bound nodes), host_cpus. Compare against the
/// committed baseline with tools/bench_diff.py. Export with
///   --benchmark_filter=Representation --benchmark_format=json
///     > BENCH_checker_compiled.json
void BM_RepresentationCompiled(benchmark::State& state) {
  constexpr std::size_t kHistories = 24;
  static const std::vector<model::TransactionSet> histories = batch_histories(kHistories);

  checker::CheckOptions opts;
  opts.exhaustive_threshold = 64;
  opts.threads = 1;

  double secs = 0;
  std::uint64_t total_nodes = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t nodes = 0;
    for (const model::TransactionSet& h : histories) {
      const checker::CheckResult r =
          checker::check_exhaustive(ct::IsolationLevel::kSerializable, h, opts);
      benchmark::DoNotOptimize(r.outcome);
      nodes += r.nodes_explored;
    }
    secs += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    total_nodes += nodes;
  }
  const double secs_per_iter = secs / static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(kHistories * state.iterations()));
  state.counters["histories_per_sec"] = static_cast<double>(kHistories) / secs_per_iter;
  state.counters["ns_per_node"] = secs * 1e9 / static_cast<double>(total_nodes);
  state.counters["host_cpus"] = std::thread::hardware_concurrency();
}
BENCHMARK(BM_RepresentationCompiled)->UseRealTime();

/// The raw per-op scan under the SoA layout: the flags-byte pass every engine
/// runs (fractured-read and CAUS-VIS sweeps touch only op_flags_[], one byte
/// per op; the wr-edge pass adds the writer array, four bytes). Exported
/// ops_per_sec tracks the layout's cache density directly, and
/// hot_bytes_per_op records the per-op hot-state footprint the SoA split
/// pays for a full key+writer+flags touch (9 bytes vs 16 for the old
/// array-of-structs CompiledOp).
void BM_RepresentationFlagsScan(benchmark::State& state) {
  const store::RunResult r = run_of_size(static_cast<std::size_t>(state.range(0)));
  const model::CompiledHistory ch(r.observations);
  std::uint64_t total_ops = 0;
  for (model::TxnIdx d = 0; d < ch.size(); ++d) total_ops += ch.op_count(d);
  for (auto _ : state) {
    std::uint64_t writes = 0, external = 0;
    for (model::TxnIdx d = 0; d < ch.size(); ++d) {
      const model::OpsView ops = ch.ops(d);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops.is_write(i)) {
          ++writes;
        } else if (ops.cls(i) == model::OpClass::kReadExternal) {
          external += ops.writer(i);
        }
      }
    }
    benchmark::DoNotOptimize(writes);
    benchmark::DoNotOptimize(external);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_ops) * state.iterations());
  state.counters["ops_per_sec"] = benchmark::Counter(
      static_cast<double>(total_ops), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["hot_bytes_per_op"] =
      sizeof(model::KeyIdx) + sizeof(model::TxnIdx) + sizeof(std::uint8_t);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RepresentationFlagsScan)->Arg(128)->Arg(512)->Arg(2048)->Complexity();

void BM_PrecedenceClosure(benchmark::State& state) {
  const store::RunResult r = run_of_size(static_cast<std::size_t>(state.range(0)));
  const model::Execution e =
      *checker::check(ct::IsolationLevel::kReadCommitted, r.observations).witness;
  for (auto _ : state) {
    const model::ReadStateAnalysis analysis(r.observations, e);
    benchmark::DoNotOptimize(analysis.precedence().prec_set(0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PrecedenceClosure)->Arg(32)->Arg(128)->Arg(512)->Complexity();

}  // namespace

BENCHMARK_MAIN();
