// Streaming audit throughput: the incremental compiled online checker vs its
// fresh-recompile ablation, on the same store-generated commit stream.
//
//  * Incremental      — one OnlineChecker fed blocks via append_all; each
//    block is one CompiledDelta (extend the interners, re-resolve pending
//    writers, splice ts_order), so steady-state cost per transaction is
//    independent of how much stream came before. This is the `--follow` path.
//  * FreshRecompile   — what append_all on a non-empty checker did before
//    deltas existed conceptually: at every block boundary, build a fresh
//    checker and replay the whole prefix. Work grows quadratically in the
//    number of blocks.
//
// Counters per exported row: appends_per_sec (steady-state transactions
// audited per second), host_cpus, and on the incremental runs
// speedup_vs_recompile (the baseline runs first in the same process).
// BM_OnlineObsOverhead runs the block=100
// configuration with the metrics registry alternately enabled and disabled
// in paired halves and exports obs_overhead_pct — the instrumented-vs-off
// delta CI gates at ≤5%. Export with
//   --benchmark_format=json > BENCH_checker_online.json
//
// When CROOKS_OBS_METRICS_JSON names a file, the process's final metrics
// scrape (obs::Registry JSON) is written there on exit — the CI metrics
// gate asserts on that scrape instead of parsing per-row bench counters.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "checker/online.hpp"
#include "obs/metrics.hpp"
#include "store/runner.hpp"
#include "workload/workload.hpp"

using namespace crooks;

namespace {

constexpr std::size_t kStreamTxns = 5000;

/// The commit stream: a store run's observations in apply order. Generated
/// once; every variant audits the identical stream.
const model::TransactionSet& stream() {
  static const model::TransactionSet txns = [] {
    const auto intents = wl::generate_mix({.transactions = kStreamTxns,
                                           .keys = 64,
                                           .reads_per_txn = 2,
                                           .writes_per_txn = 2,
                                           .seed = 41});
    return store::run(intents, {.mode = store::CCMode::kSnapshotIsolation,
                                .seed = 83, .concurrency = 4, .retries = 3})
        .observations;
  }();
  return txns;
}

/// Seconds per iteration of the fresh-recompile baseline; 0 until it runs.
double& recompile_secs_per_iter() {
  static double secs = 0;
  return secs;
}

void record(benchmark::State& state, double secs_per_iter, std::size_t appends) {
  state.SetItemsProcessed(static_cast<std::int64_t>(appends) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["appends_per_sec"] = static_cast<double>(appends) / secs_per_iter;
  state.counters["host_cpus"] = std::thread::hardware_concurrency();
}

/// Re-audit from scratch at every block boundary (block size = Arg). The
/// appends counted are the stream's transactions — the quadratic replay work
/// is the overhead under measurement, exactly what deltas eliminate.
void BM_OnlineFreshRecompile(benchmark::State& state) {
  const model::TransactionSet& txns = stream();
  const auto block = static_cast<std::size_t>(state.range(0));
  std::vector<model::Transaction> all(txns.begin(), txns.end());
  double secs = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t end = block; end - block < all.size(); end += block) {
      checker::OnlineChecker chk;
      benchmark::DoNotOptimize(chk.append_all(
          std::span<const model::Transaction>(all.data(), std::min(end, all.size()))));
      benchmark::DoNotOptimize(chk.all_ok());
    }
    secs += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  const double secs_per_iter = secs / static_cast<double>(state.iterations());
  recompile_secs_per_iter() = secs_per_iter;
  record(state, secs_per_iter, all.size());
}
BENCHMARK(BM_OnlineFreshRecompile)->Arg(100)->UseRealTime();

/// The real streaming path: one checker, one CompiledDelta per block.
void BM_OnlineIncremental(benchmark::State& state) {
  const model::TransactionSet& txns = stream();
  const auto block = static_cast<std::size_t>(state.range(0));
  std::vector<model::Transaction> all(txns.begin(), txns.end());
  double secs = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    checker::OnlineChecker chk;
    for (std::size_t off = 0; off < all.size(); off += block) {
      benchmark::DoNotOptimize(chk.append_all(std::span<const model::Transaction>(
          all.data() + off, std::min(block, all.size() - off))));
    }
    benchmark::DoNotOptimize(chk.all_ok());
    secs += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  const double secs_per_iter = secs / static_cast<double>(state.iterations());
  record(state, secs_per_iter, all.size());
  if (recompile_secs_per_iter() > 0) {
    state.counters["speedup_vs_recompile"] = recompile_secs_per_iter() / secs_per_iter;
  }
}
BENCHMARK(BM_OnlineIncremental)->Arg(1)->Arg(10)->Arg(100)->UseRealTime();

/// Instrumentation overhead, paired A/B: every iteration runs the block=100
/// streaming audit four times in an ABBA pattern (registry on, off, off, on)
/// so linear clock/thermal drift contributes equally to both arms, and the
/// exported overhead is the median of per-cycle on/off ratios. Comparing
/// against a benchmark that happened to run earlier in the process reported
/// phantom double-digit overheads on shared runners; this design measures
/// 1–2% on the same machine. Exports obs_overhead_pct; CI gates ≤5%.
void BM_OnlineObsOverhead(benchmark::State& state) {
  const model::TransactionSet& txns = stream();
  const auto block = static_cast<std::size_t>(state.range(0));
  std::vector<model::Transaction> all(txns.begin(), txns.end());
  const auto audit_once = [&all, block] {
    const auto t0 = std::chrono::steady_clock::now();
    checker::OnlineChecker chk;
    for (std::size_t off = 0; off < all.size(); off += block) {
      benchmark::DoNotOptimize(chk.append_all(std::span<const model::Transaction>(
          all.data() + off, std::min(block, all.size() - off))));
    }
    benchmark::DoNotOptimize(chk.all_ok());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  audit_once();  // untimed warmup: the first audit pays allocator/cache
                 // cold-start, which must not land on one arm of the A/B
  double secs_on = 0, secs_off = 0;
  std::vector<double> ratios;  // one on/off ratio per ABBA cycle
  for (auto _ : state) {
    // ABBA within the iteration: linear clock/thermal drift contributes
    // equally to both arms even when the measurement is a single iteration.
    // The exported overhead is the MEDIAN of per-cycle ratios, not the ratio
    // of totals — one descheduled audit (common on small shared runners)
    // would otherwise swing the whole measurement by double digits.
    double on = 0, off = 0;
    static constexpr bool kPattern[] = {true, false, false, true};
    for (const bool measure_on : kPattern) {
      obs::set_enabled(measure_on);
      (measure_on ? on : off) += audit_once();
    }
    secs_on += on;
    secs_off += off;
    if (off > 0) ratios.push_back(on / off);
  }
  obs::set_enabled(true);
  // Two instrumented audits per iteration: halve for a per-audit figure.
  const double iters = static_cast<double>(state.iterations());
  record(state, secs_on / (2 * iters), all.size());
  if (!ratios.empty()) {
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    state.counters["obs_overhead_pct"] =
        (ratios[ratios.size() / 2] - 1.0) * 100.0;
  }
}
BENCHMARK(BM_OnlineObsOverhead)->Arg(100)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  // The online series live in the metrics registry; export the final scrape
  // for the CI gate.
  if (const char* path = std::getenv("CROOKS_OBS_METRICS_JSON")) {
    std::ofstream out(path);
    out << crooks::obs::Registry::global().json() << "\n";
  }
  return 0;
}
