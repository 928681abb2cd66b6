// Bounded-memory windowed audit: does `--follow` really run forever?
//
//  * BM_WindowedSoak — the headline: ONE checker with a 4096-transaction
//    window audits a million-transaction synthetic commit stream, generated
//    block-by-block so the bench process itself stays small. The exported
//    counters are the flatness evidence the CI gate asserts on:
//      resident_ops_max / resident_ops_steady ("resident_flatness") must stay
//      near 1 — resident footprint is a sawtooth between folds, not a ramp —
//      and retired_txns must account for (stream − window) transactions.
//      lossy_evaluations (past-window reads + checks) stays 0 on this stream:
//      every verdict is bit-identical to the unwindowed monitor's.
//  * BM_WindowedVsUnwindowed — throughput of windowing vs not, measured at
//    5×10⁴ transactions — the largest stream the UNWINDOWED all-levels
//    monitor audits in reasonable time: its PSI predecessor sets make the
//    unwindowed audit superlinear in both time and memory (measured ≈8×
//    cost per stream doubling on this generator), which is the very problem
//    the window removes. Exports windowed_vs_unwindowed (>1 means windowing
//    WINS even at a scale the unwindowed monitor can still handle — folding
//    pays for itself in bounded predecessor sets and smaller searches — and
//    the gap widens without bound as the stream grows).
//
// Export with --benchmark_format=json > BENCH_checker_window.json. When
// CROOKS_OBS_METRICS_JSON names a file, the final obs::Registry scrape is
// written there on exit (crooks_online_retired_ops_total etc. for CI).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <span>
#include <thread>
#include <vector>

#include "checker/online.hpp"
#include "obs/metrics.hpp"

using namespace crooks;

namespace {

constexpr std::size_t kKeys = 64;
constexpr std::uint32_t kSessions = 8;
constexpr std::size_t kBlock = 1000;

/// Block-at-a-time stream generator: every transaction writes one key and
/// reads another from its latest committed writer, sessions round-robin (so
/// no session stalls and the watermark is free to advance), timestamps
/// strictly monotone. The stream is serializable by construction — the soak
/// measures steady-state audit cost, not violation handling.
struct StreamGen {
  std::vector<TxnId> latest = std::vector<TxnId>(kKeys, TxnId{0});
  std::uint64_t next_id = 1;
  Timestamp ts = 0;

  std::vector<model::Transaction> block(std::size_t count) {
    std::vector<model::Transaction> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t id = next_id++;
      const std::size_t wk = id % kKeys;
      const std::size_t rk = (id * 7 + 3) % kKeys;
      out.push_back(model::TxnBuilder(id)
                        .read(Key{rk}, latest[rk])
                        .write(Key{wk})
                        .session(SessionId{static_cast<std::uint32_t>(id % kSessions)})
                        .at(ts, ts + 1)
                        .build());
      latest[wk] = TxnId{id};
      ts += 2;
    }
    return out;
  }
};

void BM_WindowedSoak(benchmark::State& state) {
  const auto total = static_cast<std::size_t>(state.range(0));
  const std::size_t window = 4096;
  for (auto _ : state) {
    StreamGen gen;
    checker::OnlineChecker chk;
    chk.set_window({.max_resident_txns = window});
    std::size_t resident_ops_max = 0;
    std::size_t resident_ops_steady = 0;  // first sample after the first fold
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t fed = 0; fed < total; fed += kBlock) {
      const std::vector<model::Transaction> blk = gen.block(kBlock);
      benchmark::DoNotOptimize(
          chk.append_all(std::span<const model::Transaction>(blk)));
      const std::size_t ro = chk.resident_ops();
      resident_ops_max = std::max(resident_ops_max, ro);
      if (resident_ops_steady == 0 && chk.stats().window_folds > 0) {
        resident_ops_steady = ro;
      }
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    benchmark::DoNotOptimize(chk.all_ok());
    const checker::OnlineChecker::Stats& st = chk.stats();
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
    state.counters["appends_per_sec"] = static_cast<double>(total) / secs;
    state.counters["resident_txns_final"] =
        static_cast<double>(chk.resident_txns());
    state.counters["resident_ops_max"] = static_cast<double>(resident_ops_max);
    state.counters["resident_ops_final"] = static_cast<double>(chk.resident_ops());
    state.counters["resident_flatness"] =
        resident_ops_steady > 0
            ? static_cast<double>(resident_ops_max) / resident_ops_steady
            : 0.0;
    state.counters["resident_bytes_final"] =
        static_cast<double>(chk.resident_bytes());
    state.counters["retired_txns"] = static_cast<double>(st.retired_txns);
    state.counters["retired_ops"] = static_cast<double>(st.retired_ops);
    state.counters["window_folds"] = static_cast<double>(st.window_folds);
    state.counters["lossy_evaluations"] =
        static_cast<double>(st.past_window_reads + st.past_window_checks);
    state.counters["host_cpus"] = std::thread::hardware_concurrency();
  }
}
BENCHMARK(BM_WindowedSoak)->Arg(1000000)->Iterations(1)->UseRealTime();

/// Same stream, windowed vs unwindowed, at a scale the unwindowed monitor
/// can still hold. Both arms in one benchmark so the ratio is same-process.
void BM_WindowedVsUnwindowed(benchmark::State& state) {
  const auto total = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto run = [&](std::size_t window) {
      StreamGen gen;
      checker::OnlineChecker chk;
      if (window != 0) chk.set_window({.max_resident_txns = window});
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t fed = 0; fed < total; fed += kBlock) {
        const std::vector<model::Transaction> blk = gen.block(kBlock);
        benchmark::DoNotOptimize(
            chk.append_all(std::span<const model::Transaction>(blk)));
      }
      benchmark::DoNotOptimize(chk.all_ok());
      return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
    };
    const double unwindowed = run(0);
    const double windowed = run(4096);
    state.SetItemsProcessed(static_cast<std::int64_t>(2 * total));
    state.counters["unwindowed_secs"] = unwindowed;
    state.counters["windowed_secs"] = windowed;
    state.counters["windowed_vs_unwindowed"] = unwindowed / windowed;
    state.counters["appends_per_sec_windowed"] =
        static_cast<double>(total) / windowed;
  }
}
BENCHMARK(BM_WindowedVsUnwindowed)->Arg(50000)->Iterations(1)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  // The retirement counters CI gates on live in the metrics registry.
  if (const char* path = std::getenv("CROOKS_OBS_METRICS_JSON")) {
    std::ofstream out(path);
    out << crooks::obs::Registry::global().json() << "\n";
  }
  return 0;
}
