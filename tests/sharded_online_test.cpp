// Differential suite for the pipelined session-sharded ingest.
//
// The strict contract under test: ShardedOnlineChecker (and the pipelined
// report::stream_audit path built on it) produces BYTE-IDENTICAL results to
// the serial streaming monitor at every shard count — verdicts per level,
// first-violation witnesses and explanation strings, Stats totals, duplicate
// accounting, error messages (first in line order), and the aggregated
// forensics JSON — across random epoch cuts, all ten uniform levels, mixed
// per-transaction assignments, and bounded-memory windowing. The pipeline is
// allowed to change wall-clock only.
//
// Also pinned here: the backpressure discipline (a slow merge stage blocks
// the producer through the bounded rings — the drop tripwire stays zero and
// the stall counters move), the hoisted `default-level` directive, and the
// stage-1 error reconciliation (an earlier pending block's parse error beats
// a later stream-level error).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/online.hpp"
#include "checker/sharded_online.hpp"
#include "forensics/collector.hpp"
#include "obs/metrics.hpp"
#include "report/forensics_render.hpp"
#include "report/serialize.hpp"
#include "report/stream_audit.hpp"
#include "workload/observations.hpp"

namespace crooks::checker {
namespace {

using model::Transaction;
using model::TransactionSet;

std::vector<Transaction> to_vector(const TransactionSet& txns) {
  std::vector<Transaction> all;
  all.reserve(txns.size());
  for (const Transaction& t : txns) all.push_back(t);
  return all;
}

/// One transaction rendered as its own observation block (the granularity
/// stage 1 cuts the raw stream at).
RawBlock block_of(const Transaction& t, std::uint64_t first_line) {
  report::Observations obs;
  obs.txns = TransactionSet{std::vector<Transaction>{t}};
  RawBlock b;
  b.text = report::to_text(obs);
  b.first_line = first_line;
  b.route = t.session().value;
  return b;
}

DecodedBlock parse_decoder(const RawBlock& block) {
  DecodedBlock out;
  out.error_line = block.first_line;
  try {
    const report::Observations obs = report::parse_observations(block.text);
    out.txns = to_vector(obs.txns);
  } catch (const std::exception& e) {
    out.error = "block starting at line " + std::to_string(block.first_line) +
                ": " + e.what();
  }
  return out;
}

/// Cut `txns` into `epochs` contiguous runs at seeded random boundaries.
std::vector<std::vector<Transaction>> random_cuts(
    const std::vector<Transaction>& txns, std::size_t epochs,
    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> bounds = {0, txns.size()};
  while (bounds.size() < epochs + 1) {
    bounds.push_back(rng() % (txns.size() + 1));
  }
  std::sort(bounds.begin(), bounds.end());
  std::vector<std::vector<Transaction>> cuts;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    cuts.emplace_back(txns.begin() + bounds[i], txns.begin() + bounds[i + 1]);
  }
  return cuts;
}

struct Fingerprint {
  std::string statuses;  // per-level ok/witness/explanation, or assigned
  std::string stats;
  std::uint64_t epochs = 0;
  std::size_t transactions = 0;
  std::size_t duplicates = 0;
  std::string error;
  std::string forensics;
};

std::string status_line(ct::IsolationLevel level,
                        const OnlineChecker::LevelStatus& st) {
  std::string out(ct::name_of(level));
  out += st.ok ? " ok" : " violated";
  if (st.first_violation.has_value()) {
    out += " first=" + std::to_string(st.first_violation->value);
  }
  out += " | " + st.explanation + "\n";
  return out;
}

std::string stats_line(const OnlineChecker::Stats& s) {
  std::ostringstream os;
  os << s.blocks << ' ' << s.compiled_appends << ' ' << s.duplicates_ignored
     << ' ' << s.ops_evaluated << ' ' << s.retired_txns << ' ' << s.retired_ops
     << ' ' << s.window_folds << ' ' << s.past_window_reads << ' '
     << s.past_window_checks;
  return os.str();
}

std::string checker_fingerprint(const OnlineChecker& chk,
                                const std::vector<ct::IsolationLevel>& levels,
                                bool assigned) {
  std::string out;
  if (assigned) {
    out += status_line(ct::IsolationLevel::kSerializable, chk.assigned_status());
  } else {
    for (ct::IsolationLevel level : levels) {
      out += status_line(level, chk.status(level));
    }
  }
  return out;
}

struct PipelineConfig {
  std::size_t shards = 0;  // 0 = serial OnlineChecker reference
  std::vector<ct::IsolationLevel> levels = {ct::kAllLevels.begin(),
                                            ct::kAllLevels.end()};
  bool track_assigned = false;
  OnlineChecker::WindowOptions window{};
  std::size_t max_inflight_epochs = 4;
};

/// Run `cuts` through either the serial reference monitor or the pipeline
/// and fingerprint everything the contract covers.
Fingerprint run_cuts(const std::vector<std::vector<Transaction>>& cuts,
                     const PipelineConfig& cfg) {
  Fingerprint fp;
  forensics::Collector collector;
  if (cfg.shards == 0) {
    OnlineChecker chk =
        cfg.track_assigned
            ? OnlineChecker(OnlineChecker::kTrackAssigned,
                            ct::IsolationLevel::kSerializable)
            : OnlineChecker(cfg.levels);
    chk.set_window(cfg.window);
    collector.attach(chk);
    for (const std::vector<Transaction>& cut : cuts) {
      if (cut.empty()) continue;
      ++fp.epochs;
      fp.transactions += chk.append_all(std::span<const Transaction>(cut));
    }
    fp.duplicates = chk.stats().duplicates_ignored;
    fp.statuses = checker_fingerprint(chk, cfg.levels, cfg.track_assigned);
    fp.stats = stats_line(chk.stats());
  } else {
    ShardedOnlineChecker::Options opts;
    opts.shards = cfg.shards;
    opts.max_inflight_epochs = cfg.max_inflight_epochs;
    opts.levels = cfg.levels;
    opts.track_assigned = cfg.track_assigned;
    opts.window = cfg.window;
    opts.decoder = parse_decoder;
    opts.on_checker = [&](OnlineChecker& chk) { collector.attach(chk); };
    ShardedOnlineChecker pipe(std::move(opts));
    std::uint64_t line = 1;
    for (const std::vector<Transaction>& cut : cuts) {
      std::vector<RawBlock> blocks;
      blocks.reserve(cut.size());
      for (const Transaction& t : cut) {
        blocks.push_back(block_of(t, line));
        line += 100;  // synthetic but strictly increasing
      }
      pipe.submit(std::move(blocks));
    }
    const ShardedOnlineChecker::Result& r = pipe.finish();
    fp.epochs = r.epochs;
    fp.transactions = r.transactions;
    fp.duplicates = r.duplicates;
    fp.error = r.error;
    fp.statuses =
        checker_fingerprint(pipe.checker(), cfg.levels, cfg.track_assigned);
    fp.stats = stats_line(pipe.checker().stats());
  }
  fp.forensics = report::forensics_json(collector.table());
  return fp;
}

void expect_identical(const Fingerprint& want, const Fingerprint& got,
                      const std::string& what) {
  EXPECT_EQ(want.statuses, got.statuses) << what;
  EXPECT_EQ(want.stats, got.stats) << what;
  EXPECT_EQ(want.epochs, got.epochs) << what;
  EXPECT_EQ(want.transactions, got.transactions) << what;
  EXPECT_EQ(want.duplicates, got.duplicates) << what;
  EXPECT_EQ(want.error, got.error) << what;
  EXPECT_EQ(want.forensics, got.forensics) << what;
}

const std::size_t kShardCounts[] = {1, 2, 8};

TEST(ShardedOnline, MatchesSerialAcrossLevelsAndCuts) {
  // Adversarial fuzzed observations (dangling reads, phantoms, dropped
  // timestamps) so plenty of levels actually die mid-stream.
  for (std::uint64_t seed : {3u, 17u, 58u}) {
    const auto fuzz = wl::fuzz_observations(
        seed, {.transactions = 32, .keys = 4, .p_dangling = 0.1,
               .p_phantom = 0.1, .p_untimestamped = 0.2, .sessions = 4});
    const std::vector<Transaction> all = to_vector(fuzz.txns);
    for (std::size_t epochs : {std::size_t{1}, std::size_t{5}}) {
      const auto cuts = random_cuts(all, epochs, seed * 7 + epochs);
      const Fingerprint serial = run_cuts(cuts, {});
      for (std::size_t shards : kShardCounts) {
        PipelineConfig cfg;
        cfg.shards = shards;
        const Fingerprint piped = run_cuts(cuts, cfg);
        expect_identical(serial, piped,
                         "seed " + std::to_string(seed) + " epochs " +
                             std::to_string(epochs) + " shards " +
                             std::to_string(shards));
      }
    }
  }
}

TEST(ShardedOnline, MatchesSerialPerUniformLevel) {
  const auto fuzz = wl::fuzz_observations(
      23, {.transactions = 24, .keys = 3, .p_dangling = 0.15, .p_phantom = 0.1});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  const auto cuts = random_cuts(all, 4, 99);
  for (ct::IsolationLevel level : ct::kAllLevels) {
    PipelineConfig cfg;
    cfg.levels = {level};
    const Fingerprint serial = run_cuts(cuts, cfg);
    cfg.shards = 2;
    const Fingerprint piped = run_cuts(cuts, cfg);
    expect_identical(serial, piped, std::string(ct::name_of(level)));
  }
}

TEST(ShardedOnline, MatchesSerialInAssignedMode) {
  const auto fuzz = wl::fuzz_observations(
      41, {.transactions = 28, .keys = 4, .p_dangling = 0.1,
           .sessions = 3, .p_level_annotation = 0.6});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  const auto cuts = random_cuts(all, 3, 5);
  PipelineConfig cfg;
  cfg.track_assigned = true;
  const Fingerprint serial = run_cuts(cuts, cfg);
  for (std::size_t shards : kShardCounts) {
    cfg.shards = shards;
    const Fingerprint piped = run_cuts(cuts, cfg);
    expect_identical(serial, piped, "assigned shards " + std::to_string(shards));
  }
}

TEST(ShardedOnline, MatchesSerialUnderWindowing) {
  const auto fuzz = wl::fuzz_observations(
      11, {.transactions = 48, .keys = 4, .p_dangling = 0.08, .sessions = 4});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  const auto cuts = random_cuts(all, 6, 77);
  PipelineConfig cfg;
  cfg.window = {.max_resident_txns = 12};
  const Fingerprint serial = run_cuts(cuts, cfg);
  for (std::size_t shards : kShardCounts) {
    cfg.shards = shards;
    const Fingerprint piped = run_cuts(cuts, cfg);
    expect_identical(serial, piped, "window shards " + std::to_string(shards));
  }
}

TEST(ShardedOnline, DuplicatesAcrossEpochsAndWithinEpochs) {
  const auto fuzz = wl::fuzz_observations(9, {.transactions = 10, .keys = 3});
  std::vector<Transaction> all = to_vector(fuzz.txns);
  // Same transaction twice within one epoch (lands on the same shard by
  // session routing) plus whole-epoch replays.
  std::vector<std::vector<Transaction>> cuts = {all, all};
  cuts.push_back({all[0], all[0], all[3]});
  const Fingerprint serial = run_cuts(cuts, {});
  for (std::size_t shards : kShardCounts) {
    PipelineConfig cfg;
    cfg.shards = shards;
    const Fingerprint piped = run_cuts(cuts, cfg);
    expect_identical(serial, piped, "dup shards " + std::to_string(shards));
    EXPECT_GT(piped.duplicates, 0u);
  }
}

TEST(ShardedOnline, ParseErrorReportsFirstInLineOrder) {
  // Three blocks: clean (line 1), malformed read (line 10), malformed level
  // (line 20). Whatever shard decodes what first, the reported error must be
  // the line-10 one, and nothing from the erroring epoch may be appended.
  const auto fuzz = wl::fuzz_observations(2, {.transactions = 3, .keys = 2});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  for (std::size_t shards : kShardCounts) {
    ShardedOnlineChecker::Options opts;
    opts.shards = shards;
    opts.decoder = parse_decoder;
    ShardedOnlineChecker pipe(std::move(opts));
    std::vector<RawBlock> blocks;
    blocks.push_back(block_of(all[0], 1));
    blocks.push_back({"txn 90\n read\nend\n", 10, 1, std::nullopt});
    blocks.push_back({"txn 91 level=bogus\n write 0\nend\n", 20, 2, std::nullopt});
    pipe.submit(std::move(blocks));
    const ShardedOnlineChecker::Result& r = pipe.finish();
    EXPECT_EQ(r.epochs, 0u) << shards;
    EXPECT_EQ(r.transactions, 0u) << shards;
    EXPECT_EQ(r.error.rfind("block starting at line 10:", 0), 0u)
        << "shards " << shards << ": " << r.error;
    EXPECT_TRUE(pipe.stopped());
    // A stopped pipeline discards later submissions whole.
    EXPECT_FALSE(pipe.submit({block_of(all[1], 30)}));
  }
}

TEST(ShardedOnline, StreamErrorValidatesPendingBlocksFirst) {
  // submit_error carries pending blocks; a pending block's own parse error
  // on an EARLIER line must win over the stream-level error.
  ShardedOnlineChecker::Options opts;
  opts.shards = 2;
  opts.decoder = parse_decoder;
  {
    ShardedOnlineChecker pipe(std::move(opts));
    std::vector<RawBlock> pending;
    pending.push_back({"txn 7\n read\nend\n", 4, 0, std::nullopt});
    pipe.submit_error(std::move(pending), 9, "line 9: 'vo' is not allowed");
    const ShardedOnlineChecker::Result& r = pipe.finish();
    EXPECT_EQ(r.error.rfind("block starting at line 4:", 0), 0u) << r.error;
  }
  // With clean pending blocks the stream error itself is reported — and the
  // pending blocks are validated only, never appended.
  ShardedOnlineChecker::Options opts2;
  opts2.shards = 2;
  opts2.decoder = parse_decoder;
  ShardedOnlineChecker pipe(std::move(opts2));
  const auto fuzz = wl::fuzz_observations(2, {.transactions = 2, .keys = 2});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  pipe.submit_error({block_of(all[0], 4)}, 9, "line 9: 'vo' is not allowed");
  const ShardedOnlineChecker::Result& r = pipe.finish();
  EXPECT_EQ(r.error, "line 9: 'vo' is not allowed");
  EXPECT_EQ(r.transactions, 0u);
  EXPECT_EQ(pipe.checker().size(), 0u);
}

TEST(ShardedOnline, BackpressureBlocksWithoutDropping) {
  // Tiny rings, a merge stage slowed by its epoch callback, and far more
  // epochs than the rings hold: submit() must block (stall counters move)
  // and every single epoch must still be audited — the drop tripwire stays 0.
  const auto fuzz = wl::fuzz_observations(
      77, {.transactions = 60, .keys = 5, .sessions = 4});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  obs::Registry::global().reset();
  std::atomic<std::uint64_t> seen{0};
  ShardedOnlineChecker::Options opts;
  opts.shards = 2;
  opts.max_inflight_epochs = 1;  // per-shard ring capacity 2
  opts.decoder = parse_decoder;
  ShardedOnlineChecker pipe(std::move(opts),
                            [&](const ShardedOnlineChecker::EpochReport&) {
                              seen.fetch_add(1);
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(2));
                              return true;
                            });
  std::uint64_t line = 1;
  std::uint64_t submitted = 0;
  for (const Transaction& t : all) {  // one-transaction epochs, 60 of them
    pipe.submit({block_of(t, line)});
    line += 100;
    ++submitted;
  }
  const ShardedOnlineChecker::Result& r = pipe.finish();
  EXPECT_EQ(r.epochs, submitted);
  EXPECT_EQ(seen.load(), submitted);
  EXPECT_EQ(r.transactions, all.size());
  EXPECT_TRUE(r.error.empty()) << r.error;
  const std::string scrape = obs::Registry::global().json();
  EXPECT_NE(scrape.find("\"crooks_ingest_ring_dropped_total\":0"),
            std::string::npos)
      << scrape;
}

TEST(ShardedOnline, EpochCallbackFalseStopsPipeline) {
  const auto fuzz = wl::fuzz_observations(5, {.transactions = 20, .keys = 3});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  ShardedOnlineChecker::Options opts;
  opts.shards = 2;
  opts.decoder = parse_decoder;
  ShardedOnlineChecker pipe(std::move(opts),
                            [](const ShardedOnlineChecker::EpochReport& er) {
                              return er.epoch < 2;  // stop after epoch 2
                            });
  std::uint64_t line = 1;
  for (const Transaction& t : all) {
    if (!pipe.submit({block_of(t, line)})) break;
    line += 100;
  }
  const ShardedOnlineChecker::Result& r = pipe.finish();
  EXPECT_EQ(r.epochs, 2u);
  EXPECT_EQ(r.transactions, 2u);
  EXPECT_TRUE(r.error.empty()) << r.error;
}

// ---- stream_audit pipelined path -----------------------------------------

report::StreamAuditResult audit_text(const std::string& text,
                                     std::size_t ingest_threads,
                                     std::string* forensics = nullptr,
                                     std::uint64_t max_blocks = 0) {
  std::istringstream in(text);
  forensics::Collector collector;
  report::StreamAuditOptions opts;
  opts.poll_ms = 1;
  opts.idle_exit_ms = 1;
  opts.ingest_threads = ingest_threads;
  opts.max_blocks = max_blocks;
  opts.on_checker = [&](OnlineChecker& chk) { collector.attach(chk); };
  const report::StreamAuditResult r = report::stream_audit(in, opts);
  if (forensics != nullptr) *forensics = report::forensics_json(collector.table());
  return r;
}

void expect_audits_identical(const report::StreamAuditResult& want,
                             const report::StreamAuditResult& got,
                             const std::string& what) {
  EXPECT_EQ(want.blocks, got.blocks) << what;
  EXPECT_EQ(want.transactions, got.transactions) << what;
  EXPECT_EQ(want.duplicates, got.duplicates) << what;
  EXPECT_EQ(want.error, got.error) << what;
  EXPECT_EQ(want.surviving, got.surviving) << what;
  ASSERT_EQ(want.statuses.size(), got.statuses.size()) << what;
  for (const auto& [level, st] : want.statuses) {
    const auto it = got.statuses.find(level);
    ASSERT_NE(it, got.statuses.end()) << what;
    EXPECT_EQ(st.ok, it->second.ok) << what << ' ' << ct::name_of(level);
    EXPECT_EQ(st.first_violation, it->second.first_violation)
        << what << ' ' << ct::name_of(level);
    EXPECT_EQ(st.explanation, it->second.explanation)
        << what << ' ' << ct::name_of(level);
  }
  EXPECT_EQ(stats_line(want.checker_stats), stats_line(got.checker_stats)) << what;
}

TEST(ShardedStreamAudit, PipelinedMatchesSerialOnFuzzedStreams) {
  for (std::uint64_t seed : {8u, 21u}) {
    const auto fuzz = wl::fuzz_observations(
        seed, {.transactions = 30, .keys = 4, .p_dangling = 0.1,
               .p_phantom = 0.1, .sessions = 4});
    report::Observations obs;
    obs.txns = fuzz.txns;
    const std::string text = report::to_text(obs);
    std::string serial_forensics;
    const report::StreamAuditResult serial =
        audit_text(text, 0, &serial_forensics);
    for (std::size_t threads : kShardCounts) {
      std::string piped_forensics;
      const report::StreamAuditResult piped =
          audit_text(text, threads, &piped_forensics);
      expect_audits_identical(serial, piped,
                              "seed " + std::to_string(seed) + " threads " +
                                  std::to_string(threads));
      EXPECT_EQ(serial_forensics, piped_forensics) << threads;
    }
  }
}

TEST(ShardedStreamAudit, ParseAndStreamErrorsMatchSerial) {
  const std::string parse_error =
      "txn 1 start=0 commit=1\n write 0\nend\n"
      "txn 2\n read\nend\n";  // malformed read in block at line 4
  const std::string stream_error =
      "txn 1 start=0 commit=1\n write 0\nend\n"
      "vo 0 1\n";  // vo rejected in streaming mode (line 4)
  const std::string error_before_vo =
      "txn 2\n read\nend\n"  // parse error in the block at line 1...
      "vo 0 1\n";            // ...beats the stream error at line 4
  for (const std::string& text : {parse_error, stream_error, error_before_vo}) {
    const report::StreamAuditResult serial = audit_text(text, 0);
    ASSERT_FALSE(serial.error.empty());
    for (std::size_t threads : kShardCounts) {
      const report::StreamAuditResult piped = audit_text(text, threads);
      expect_audits_identical(serial, piped,
                              "threads " + std::to_string(threads));
    }
  }
}

TEST(ShardedStreamAudit, DefaultLevelDirectiveAppliesToLaterBlocks) {
  // The directive is hoisted to stage 1 and stamped onto later unannotated
  // blocks; annotations are inert for the uniform monitor, so serial and
  // pipelined must agree — and both must parse the directive mid-stream.
  const std::string text =
      "txn 1 start=0 commit=1\n write 0\nend\n"
      "default-level RC\n"
      "txn 2 start=2 commit=3\n read 0 1\nend\n";
  const report::StreamAuditResult serial = audit_text(text, 0);
  EXPECT_TRUE(serial.error.empty()) << serial.error;
  EXPECT_EQ(serial.transactions, 2u);
  for (std::size_t threads : kShardCounts) {
    const report::StreamAuditResult piped = audit_text(text, threads);
    expect_audits_identical(serial, piped, std::to_string(threads));
  }
  // A malformed directive is a stream error on its exact line.
  const std::string bad = "default-level bogus\n";
  const report::StreamAuditResult serial_bad = audit_text(bad, 0);
  EXPECT_EQ(serial_bad.error.rfind("line 1: unknown isolation level 'bogus'", 0),
            0u)
      << serial_bad.error;
  const report::StreamAuditResult piped_bad = audit_text(bad, 2);
  expect_audits_identical(serial_bad, piped_bad, "bad directive");
}

TEST(ShardedStreamAudit, MaxBlocksMatchesSerial) {
  const auto fuzz = wl::fuzz_observations(13, {.transactions = 12, .keys = 3});
  report::Observations obs;
  obs.txns = fuzz.txns;
  const std::string text = report::to_text(obs);
  const report::StreamAuditResult serial = audit_text(text, 0, nullptr, 1);
  EXPECT_EQ(serial.blocks, 1u);
  for (std::size_t threads : kShardCounts) {
    const report::StreamAuditResult piped = audit_text(text, threads, nullptr, 1);
    expect_audits_identical(serial, piped, std::to_string(threads));
  }
}

TEST(ShardedStreamAudit, FollowsGrowingFileAcrossThreadCounts) {
  // The writer appends in bursts while the auditor tails: batch boundaries
  // are timing-dependent, so compare everything that must NOT depend on the
  // cut — totals, per-level statuses, stats minus block count, forensics.
  const auto fuzz = wl::fuzz_observations(
      64, {.transactions = 32, .keys = 4, .p_dangling = 0.1, .sessions = 4});
  const std::vector<Transaction> all = to_vector(fuzz.txns);

  auto run = [&](std::size_t threads, std::string* forensics) {
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("crooks_sharded_follow_" + std::to_string(threads) + ".txt");
    std::remove(path.string().c_str());
    { std::ofstream touch(path); }
    std::thread writer([&] {
      std::ofstream out(path, std::ios::app);
      for (std::size_t at = 0; at < all.size(); at += 4) {
        const std::size_t take = std::min<std::size_t>(4, all.size() - at);
        report::Observations obs;
        obs.txns = TransactionSet{
            std::vector<Transaction>(all.begin() + at, all.begin() + at + take)};
        out << report::to_text(obs) << std::flush;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    std::ifstream in(path);
    forensics::Collector collector;
    report::StreamAuditOptions opts;
    opts.poll_ms = 1;
    opts.idle_exit_ms = 200;
    opts.ingest_threads = threads;
    opts.on_checker = [&](OnlineChecker& chk) { collector.attach(chk); };
    const report::StreamAuditResult r = report::stream_audit(in, opts);
    writer.join();
    std::remove(path.string().c_str());
    *forensics = report::forensics_json(collector.table());
    return r;
  };

  std::string serial_forensics;
  const report::StreamAuditResult serial = run(0, &serial_forensics);
  EXPECT_TRUE(serial.error.empty()) << serial.error;
  EXPECT_EQ(serial.transactions, all.size());
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::string piped_forensics;
    const report::StreamAuditResult piped = run(threads, &piped_forensics);
    EXPECT_TRUE(piped.error.empty()) << piped.error;
    EXPECT_EQ(piped.transactions, serial.transactions) << threads;
    EXPECT_EQ(piped.duplicates, serial.duplicates) << threads;
    EXPECT_EQ(piped.surviving, serial.surviving) << threads;
    for (const auto& [level, st] : serial.statuses) {
      const auto it = piped.statuses.find(level);
      ASSERT_NE(it, piped.statuses.end());
      EXPECT_EQ(st.ok, it->second.ok) << ct::name_of(level);
      EXPECT_EQ(st.first_violation, it->second.first_violation)
          << ct::name_of(level);
      EXPECT_EQ(st.explanation, it->second.explanation) << ct::name_of(level);
    }
    EXPECT_EQ(piped_forensics, serial_forensics) << threads;
  }
}

}  // namespace
}  // namespace crooks::checker
