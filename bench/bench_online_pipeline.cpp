// Pipelined session-sharded ingest vs the serial follow loop.
//
//  * startup parity assert — before any timing, the same observation text is
//    audited serially and through the pipeline at 1 and 8 shards; verdicts,
//    counters, per-level statuses and forensics JSON must be byte-identical
//    or the process aborts. A pipeline that is fast but wrong never reports
//    a number.
//  * BM_FollowIngest/threads — the headline: tail the same multi-megabyte
//    observation stream (plain-text format, 8 sessions, chunked like a
//    growing file) through report::stream_audit serially and with
//    --ingest-threads=N, same process, same chunk boundaries. Exports
//    serial_secs / pipelined_secs / speedup_vs_serial / txns_per_sec and
//    host_cpus (the CI gate asserts speedup_vs_serial >= 1.5 at N=4 only
//    when host_cpus >= 4 — a 1-core runner records the numbers without the
//    claim).
//
// The stream is audited under --window=4096 (the soak configuration): decode
// cost dominates append cost there, which is precisely the asymmetry the
// shard stage exploits.
//
// Export with --benchmark_format=json > BENCH_checker_pipeline.json.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.hpp"
#include "checker/online.hpp"
#include "forensics/collector.hpp"
#include "obs/metrics.hpp"
#include "report/forensics_render.hpp"
#include "report/serialize.hpp"
#include "report/stream_audit.hpp"

using namespace crooks;

namespace {

constexpr std::size_t kKeys = 64;
constexpr std::uint32_t kSessions = 8;
constexpr std::size_t kChunks = 32;

/// Same generator shape as bench_online_window's StreamGen — read-latest,
/// sessions round-robin, monotone timestamps, serializable by construction —
/// but rendered to the plain-text observation format, because THIS bench
/// measures the ingest path (tokenize, parse, build) ahead of the checker.
std::string stream_text(std::size_t total) {
  std::vector<TxnId> latest(kKeys, TxnId{0});
  Timestamp ts = 0;
  std::string out;
  out.reserve(total * 48);
  for (std::uint64_t id = 1; id <= total; ++id) {
    const std::size_t wk = id % kKeys;
    const std::size_t rk = (id * 7 + 3) % kKeys;
    report::Observations obs;
    obs.txns = model::TransactionSet{std::vector<model::Transaction>{
        model::TxnBuilder(id)
            .read(Key{rk}, latest[rk])
            .write(Key{wk})
            .session(SessionId{static_cast<std::uint32_t>(id % kSessions)})
            .at(ts, ts + 1)
            .build()}};
    out += report::to_text(obs);
    latest[wk] = TxnId{id};
    ts += 2;
  }
  return out;
}

/// An istream source that reports EOF every text.size()/chunks bytes and
/// resumes after clear() — the in-process stand-in for a growing file, giving
/// both arms identical, deterministic batch boundaries.
class ChunkedBuf : public std::streambuf {
 public:
  ChunkedBuf(const std::string& text, std::size_t chunks)
      : text_(text),
        chunk_(std::max<std::size_t>(1, text.size() / chunks)) {}

  /// True once every byte has been consumed — the audit callback's exit
  /// signal (deterministic, unlike an idle timeout). Atomic because the
  /// pipelined path's callback runs on the merge thread while the reader
  /// thread is still driving underflow().
  bool exhausted() const { return done_.load(std::memory_order_acquire); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (pos_ >= text_.size()) {
      done_.store(true, std::memory_order_release);
      return traits_type::eof();
    }
    if (pending_break_) {
      pending_break_ = false;
      return traits_type::eof();
    }
    char* data = const_cast<char*>(text_.data());
    const std::size_t n = std::min(chunk_, text_.size() - pos_);
    setg(data + pos_, data + pos_, data + pos_ + n);
    pos_ += n;
    pending_break_ = true;
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::string& text_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
  bool pending_break_ = false;
  std::atomic<bool> done_{false};
};

struct AuditRun {
  report::StreamAuditResult result;
  std::string forensics;
  double seconds = 0;
};

/// Untimed serial pre-pass: learn how many batches this text yields at these
/// chunk boundaries. The exhausted() callback is a correct exit ONLY
/// serially — the pipelined reader runs ahead of the merge stage, so the
/// merge-side callback would see "input done" epochs early and stop the
/// audit mid-stream. The timed arms exit on max_blocks instead, which both
/// paths define identically.
std::uint64_t count_blocks(const std::string& text) {
  ChunkedBuf buf(text, kChunks);
  std::istream in(&buf);
  report::StreamAuditOptions opts;
  opts.poll_ms = 0;
  opts.idle_exit_ms = 10000;
  opts.window_txns = 4096;
  const report::StreamAuditResult r = report::stream_audit(
      in, opts, [&](const report::StreamBlockReport&) { return !buf.exhausted(); });
  return r.blocks;
}

AuditRun run_audit(const std::string& text, std::size_t ingest_threads,
                   std::uint64_t max_blocks) {
  ChunkedBuf buf(text, kChunks);
  std::istream in(&buf);
  forensics::Collector collector;
  report::StreamAuditOptions opts;
  opts.poll_ms = 0;
  opts.idle_exit_ms = 10000;  // safety net; max_blocks is the real exit
  opts.max_blocks = max_blocks;
  opts.window_txns = 4096;
  opts.ingest_threads = ingest_threads;
  opts.on_checker = [&](checker::OnlineChecker& chk) { collector.attach(chk); };
  AuditRun run;
  const auto t0 = std::chrono::steady_clock::now();
  run.result = report::stream_audit(in, opts);
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  run.forensics = report::forensics_json(collector.table());
  return run;
}

std::string fingerprint(const AuditRun& run) {
  std::ostringstream os;
  const report::StreamAuditResult& r = run.result;
  os << r.blocks << ' ' << r.transactions << ' ' << r.duplicates << " ["
     << r.error << "]\n";
  for (const auto& [level, st] : r.statuses) {
    os << ct::name_of(level) << ' ' << st.ok << ' '
       << (st.first_violation ? st.first_violation->value : 0) << ' '
       << st.explanation << '\n';
  }
  const checker::OnlineChecker::Stats& s = r.checker_stats;
  os << s.blocks << ' ' << s.compiled_appends << ' ' << s.duplicates_ignored
     << ' ' << s.ops_evaluated << ' ' << s.retired_txns << ' ' << s.retired_ops
     << ' ' << s.window_folds << ' ' << s.past_window_reads << ' '
     << s.past_window_checks << '\n';
  os << run.forensics;
  return os.str();
}

/// Abort-on-mismatch parity check: the pipeline must agree with the serial
/// monitor byte-for-byte before any throughput number is worth exporting.
void assert_startup_parity() {
  const std::string text = stream_text(4000);
  const std::uint64_t blocks = count_blocks(text);
  const AuditRun serial = run_audit(text, 0, blocks);
  const std::string want = fingerprint(serial);
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const AuditRun piped = run_audit(text, threads, blocks);
    const std::string got = fingerprint(piped);
    if (got != want) {
      std::fprintf(stderr,
                   "startup parity FAILED at ingest_threads=%zu\n"
                   "--- serial ---\n%s\n--- pipelined ---\n%s\n",
                   threads, want.c_str(), got.c_str());
      std::abort();
    }
  }
}

void BM_FollowIngest(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::size_t total = 60000;
  static const std::string& text = *new std::string(stream_text(total));
  static const std::uint64_t blocks = count_blocks(text);
  for (auto _ : state) {
    const AuditRun serial = run_audit(text, 0, blocks);
    const AuditRun piped = run_audit(text, threads, blocks);
    if (fingerprint(serial) != fingerprint(piped)) {
      std::fprintf(stderr, "parity lost at ingest_threads=%zu\n", threads);
      std::abort();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
    state.counters["serial_secs"] = serial.seconds;
    state.counters["pipelined_secs"] = piped.seconds;
    state.counters["speedup_vs_serial"] = serial.seconds / piped.seconds;
    state.counters["txns_per_sec"] =
        static_cast<double>(total) / piped.seconds;
    state.counters["txns_per_sec_serial"] =
        static_cast<double>(total) / serial.seconds;
    state.counters["host_cpus"] = std::thread::hardware_concurrency();
  }
}
BENCHMARK(BM_FollowIngest)->Arg(1)->Arg(2)->Arg(4)->Iterations(1)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  crooks::benchx::stamp_build_type();  // also force-included; idempotent
  assert_startup_parity();
  benchmark::RunSpecifiedBenchmarks();
  // The per-shard ingest series CI gates on live in the metrics registry.
  if (const char* path = std::getenv("CROOKS_OBS_METRICS_JSON")) {
    std::ofstream out(path);
    out << crooks::obs::Registry::global().json() << "\n";
  }
  return 0;
}
