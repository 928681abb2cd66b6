// Incremental compilation and the streaming checker, differentially.
//
// Three oracles pin the incremental paths down:
//  * a grown CompiledHistory must be structurally identical to compiling the
//    final set fresh — every field an engine can observe, including the lazy
//    adjacency whether it is built at the end or extended block by block;
//  * OnlineChecker under any interleaving of append()/append_all() must, after
//    every block, give each level the verdict of the commit tests over the
//    apply-order prefix (ct::CommitTester on its identity execution) and
//    name a transaction that fails them as the first violation; and it must
//    agree per level (ok, first violation, explanation text) with a fresh
//    OnlineChecker fed everything at once;
//  * check_incremental / check_batch prefix chains must reproduce the
//    verdicts of independent check() calls on each prefix.
// Inputs are store-generated apply orders (real system behaviour, one of them
// applied against real time) and fuzzed adversarial observations (dangling
// writers, phantoms, mixed timestamps).
// The final test tails a growing file through report::stream_audit with a
// concurrent writer — the `crooks-check --follow` loop, exercised under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "checker/checker.hpp"
#include "checker/online.hpp"
#include "committest/commit_test.hpp"
#include "forensics/collector.hpp"
#include "model/analysis.hpp"
#include "model/compiled.hpp"
#include "report/forensics_render.hpp"
#include "report/serialize.hpp"
#include "report/stream_audit.hpp"
#include "store/runner.hpp"
#include "workload/observations.hpp"
#include "workload/workload.hpp"

namespace crooks::checker {
namespace {

using model::CompiledHistory;
using model::Transaction;
using model::TransactionSet;
using model::TxnBuilder;
using model::TxnIdx;

std::vector<Transaction> to_vector(const TransactionSet& txns) {
  std::vector<Transaction> all;
  all.reserve(txns.size());
  for (const Transaction& t : txns) all.push_back(t);
  return all;
}

/// The adversarial input mix: store runs and fuzz shapes that hit every
/// classification branch (dangling writers, phantoms, untimestamped tails).
std::vector<std::vector<Transaction>> interesting_streams() {
  std::vector<std::vector<Transaction>> streams;
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    streams.push_back(to_vector(wl::fuzz_observations(seed, {.transactions = 28,
                                                             .keys = 5,
                                                             .p_dangling = 0.15,
                                                             .p_phantom = 0.15})
                                    .txns));
  }
  streams.push_back(to_vector(
      wl::fuzz_observations(5, {.transactions = 24, .keys = 4, .p_untimestamped = 0.4})
          .txns));
  streams.push_back(to_vector(
      wl::fuzz_observations(9, {.transactions = 20, .keys = 4, .with_timestamps = false})
          .txns));
  for (std::uint64_t seed : {3u, 11u}) {
    const auto intents = wl::generate_mix({.transactions = 60,
                                           .keys = 8,
                                           .reads_per_txn = 2,
                                           .writes_per_txn = 2,
                                           .seed = seed});
    streams.push_back(to_vector(
        store::run(intents, {.mode = store::CCMode::kSnapshotIsolation,
                             .seed = seed + 1, .concurrency = 4, .retries = 3})
            .observations));
  }
  // A serial run applied against real time: in commit order, but with
  // adjacent key-disjoint pairs swapped (23 swaps). The reads stay
  // serializable; each swap applies a transaction after one it real-time
  // precedes, which only the monitor's retroactive clauses can catch.
  const auto intents = wl::generate_mix({.transactions = 60,
                                         .keys = 16,
                                         .reads_per_txn = 2,
                                         .writes_per_txn = 2,
                                         .sessions = 4,
                                         .seed = 13});
  std::vector<Transaction> inverted = to_vector(
      store::run(intents, {.mode = store::CCMode::kSerial, .seed = 13}).observations);
  std::sort(inverted.begin(), inverted.end(), [](const auto& a, const auto& b) {
    return a.commit_ts() < b.commit_ts();
  });
  const auto disjoint = [](const Transaction& a, const Transaction& b) {
    for (const model::Operation& x : a.ops()) {
      for (const model::Operation& y : b.ops()) {
        if (x.key == y.key) return false;
      }
    }
    return true;
  };
  for (std::size_t i = 0; i + 1 < inverted.size(); ++i) {
    if (disjoint(inverted[i], inverted[i + 1])) std::swap(inverted[i], inverted[i + 1]);
  }
  streams.push_back(std::move(inverted));
  return streams;
}

/// Split [0, n) into random-sized consecutive blocks (sizes 1..max_block).
std::vector<std::size_t> random_cuts(std::size_t n, std::size_t max_block,
                                     std::mt19937_64& rng) {
  std::vector<std::size_t> cuts;
  std::uniform_int_distribution<std::size_t> d(1, max_block);
  for (std::size_t at = 0; at < n;) {
    at = std::min(n, at + d(rng));
    cuts.push_back(at);
  }
  return cuts;
}

void expect_structurally_equal(const CompiledHistory& a, const CompiledHistory& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.key_count(), b.key_count());
  EXPECT_EQ(a.all_timestamped(), b.all_timestamped());
  for (model::KeyIdx k = 0; k < a.key_count(); ++k) {
    EXPECT_EQ(a.keys().key_of(k), b.keys().key_of(k)) << "key " << k;
    const auto wa = a.writers_of(k), wb = b.writers_of(k);
    ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()))
        << "writers_of " << k;
  }
  for (TxnIdx d = 0; d < a.size(); ++d) {
    EXPECT_EQ(a.id_of(d), b.id_of(d));
    EXPECT_EQ(a.start_ts(d), b.start_ts(d));
    EXPECT_EQ(a.commit_ts(d), b.commit_ts(d));
    EXPECT_EQ(a.session(d), b.session(d));
    const auto oa = a.ops(d), ob = b.ops(d);
    ASSERT_EQ(oa.size(), ob.size()) << "ops of " << d;
    for (std::size_t i = 0; i < oa.size(); ++i) {
      // Compare through the SoA field accessors (each reads one parallel
      // array) so a desynchronized array is caught even if the gathering
      // operator[] happened to mask it.
      EXPECT_EQ(oa.key(i), ob.key(i)) << d << ":" << i;
      EXPECT_EQ(oa.writer(i), ob.writer(i)) << d << ":" << i;
      EXPECT_EQ(oa.cls(i), ob.cls(i)) << d << ":" << i;
      EXPECT_EQ(oa.flags(i), ob.flags(i)) << d << ":" << i;
      // The gathered record must agree with the field accessors.
      EXPECT_EQ(oa[i].key, oa.key(i)) << d << ":" << i;
      EXPECT_EQ(oa[i].writer, oa.writer(i)) << d << ":" << i;
      EXPECT_EQ(oa[i].cls, oa.cls(i)) << d << ":" << i;
      EXPECT_EQ(oa[i].is_write(), oa.is_write(i)) << d << ":" << i;
      EXPECT_EQ(oa[i].internal(), oa.internal(i)) << d << ":" << i;
    }
    const auto wka = a.write_keys(d), wkb = b.write_keys(d);
    EXPECT_TRUE(std::equal(wka.begin(), wka.end(), wkb.begin(), wkb.end()));
    const auto rka = a.read_keys(d), rkb = b.read_keys(d);
    EXPECT_TRUE(std::equal(rka.begin(), rka.end(), rkb.begin(), rkb.end()));
    // Masks may be sized to different key universes (block-time vs final);
    // the observable predicate must agree over every final key.
    for (model::KeyIdx k = 0; k < a.key_count(); ++k) {
      EXPECT_EQ(a.writes_key(d, k), b.writes_key(d, k)) << d << "/" << k;
    }
  }
  EXPECT_EQ(a.ts_order(), b.ts_order());
}

void expect_adjacency_equal(const CompiledHistory& a, const CompiledHistory& b) {
  const auto& x = a.adjacency();
  const auto& y = b.adjacency();
  EXPECT_EQ(x.by_commit, y.by_commit);
  EXPECT_EQ(x.by_start, y.by_start);
  EXPECT_EQ(x.rt_preds.rows, y.rt_preds.rows);
  EXPECT_EQ(x.rt_succs.rows, y.rt_succs.rows);
  EXPECT_EQ(x.sess_preds.rows, y.sess_preds.rows);
  EXPECT_EQ(x.sess_succs.rows, y.sess_succs.rows);
}

TEST(CompiledDelta, GrownHistoryMatchesFreshCompile) {
  std::mt19937_64 rng(1234);
  for (const std::vector<Transaction>& all : interesting_streams()) {
    const TransactionSet whole{std::vector<Transaction>(all)};
    const CompiledHistory fresh(whole);
    for (int rep = 0; rep < 4; ++rep) {
      CompiledHistory grown;
      ASSERT_TRUE(grown.owns_transactions());
      std::size_t prev = 0;
      for (std::size_t cut : random_cuts(all.size(), 6, rng)) {
        const auto& delta = grown.extend(
            std::span<const Transaction>(all.data() + prev, cut - prev));
        EXPECT_EQ(delta.first, prev);
        EXPECT_EQ(delta.count, cut - prev);
        prev = cut;
      }
      expect_structurally_equal(fresh, grown);
      expect_adjacency_equal(fresh, grown);
    }
  }
}

TEST(CompiledDelta, AdjacencyExtendedInPlaceMatchesFreshBuild) {
  std::mt19937_64 rng(99);
  for (const std::vector<Transaction>& all : interesting_streams()) {
    const TransactionSet whole{std::vector<Transaction>(all)};
    const CompiledHistory fresh(whole);
    CompiledHistory grown;
    std::size_t prev = 0;
    for (std::size_t cut : random_cuts(all.size(), 5, rng)) {
      grown.extend(std::span<const Transaction>(all.data() + prev, cut - prev));
      prev = cut;
      // Materialize after every block: later extends must update the rows in
      // place (extend_adjacency), not just invalidate them.
      (void)grown.adjacency();
    }
    expect_adjacency_equal(fresh, grown);
  }
}

TEST(CompiledDelta, LateWriterResolvedAcrossBlocks) {
  // T2 reads T9 before T9 exists: unknown writer at block 1, resolved (and
  // reclassified kReadExternal) when T9's block arrives. T3 reads T8 which
  // arrives but never writes the awaited key: resolved to writer-misses-key.
  CompiledHistory ch;
  ch.extend(TxnBuilder(2).read(Key{0}, TxnId{9}).at(0, 1).build());
  ch.extend(TxnBuilder(3).read(Key{1}, TxnId{8}).at(2, 3).build());
  EXPECT_EQ(ch.ops(0)[0].cls, model::OpClass::kReadNever);
  EXPECT_EQ(ch.ops(0)[0].writer, model::kNoTxnIdx);

  const auto& delta = ch.extend(TxnBuilder(9).write(Key{0}).at(4, 5).build());
  ASSERT_EQ(delta.resolved.size(), 1u);
  EXPECT_EQ(delta.resolved[0], (std::pair<TxnIdx, std::uint32_t>{0, 0}));
  EXPECT_EQ(ch.ops(0)[0].cls, model::OpClass::kReadExternal);
  EXPECT_EQ(ch.ops(0)[0].writer, 2u);

  ch.extend(TxnBuilder(8).write(Key{7}).at(6, 7).build());
  EXPECT_EQ(ch.ops(1)[0].cls, model::OpClass::kReadNever);
  EXPECT_NE(ch.ops(1)[0].flags & model::kOpWriterMissesKey, 0);
  EXPECT_EQ(ch.ops(1)[0].writer, 3u);

  // The grown result is what a fresh compile of the final set produces.
  const TransactionSet whole{to_vector(ch.txns())};
  expect_structurally_equal(CompiledHistory(whole), ch);
}

TEST(CompiledDelta, ExtendValidatesWithoutMutating) {
  CompiledHistory ch;
  ch.extend(TxnBuilder(1).write(Key{0}).build());
  EXPECT_THROW(ch.extend(TxnBuilder(1).write(Key{1}).build()), std::invalid_argument);
  const std::vector<Transaction> bad = {TxnBuilder(2).write(Key{0}).build(),
                                        TxnBuilder(2).write(Key{1}).build()};
  EXPECT_THROW(ch.extend(std::span<const Transaction>(bad)), std::invalid_argument);
  EXPECT_EQ(ch.size(), 1u);
  const TransactionSet borrowed{{TxnBuilder(5).write(Key{0}).build()}};
  CompiledHistory immutable(borrowed);
  EXPECT_THROW(immutable.extend(TxnBuilder(6).write(Key{1}).build()), std::logic_error);
}

/// The monitor's definition: its verdict on the stream so far is CT over
/// the apply order. After each block, every level's `ok` must equal
/// CommitTester::test_all on the prefix's identity execution, and a level's
/// first violation must be one of the transactions that fail CT at the
/// first failing prefix. That need not be the lowest dense index: a C-ORD
/// failure of a newcomer and a retroactive real-time failure of an earlier
/// transaction can land in the same block. CT failures persist as the
/// prefix grows, so a sticky first violation is the right answer.
class ApplyOrderOracle {
 public:
  explicit ApplyOrderOracle(std::vector<ct::IsolationLevel> levels)
      : levels_(std::move(levels)) {}

  void expect_agrees(const OnlineChecker& chk, std::span<const Transaction> prefix) {
    const TransactionSet txns{std::vector<Transaction>(prefix.begin(), prefix.end())};
    const CompiledHistory ch(txns);
    const model::Execution e = model::Execution::identity(txns);
    const model::ReadStateAnalysis analysis(ch, e);
    const ct::CommitTester tester(analysis);
    for (ct::IsolationLevel level : levels_) {
      const auto& got = chk.status(level);
      const ct::ExecutionVerdict want = tester.test_all(level);
      ASSERT_EQ(got.ok, want.ok) << ct::name_of(level) << " after " << prefix.size()
                                 << " txns: " << (want.ok ? got.explanation
                                                          : want.explanation);
      if (want.ok || failed_.contains(level)) continue;
      failed_.insert(level);
      std::set<TxnId> failing;
      for (TxnIdx d = 0; d < ch.size(); ++d) {
        if (!tester.test(level, d).ok) failing.insert(ch.id_of(d));
      }
      ASSERT_TRUE(got.first_violation.has_value()) << ct::name_of(level);
      EXPECT_TRUE(failing.contains(*got.first_violation))
          << ct::name_of(level) << ": " << got.explanation;
    }
  }

 private:
  std::vector<ct::IsolationLevel> levels_;
  std::set<ct::IsolationLevel> failed_;
};

/// Drive `chk` with a random interleaving of append() and append_all(),
/// holding it to the commit tests over the apply order after every step.
void drive_differentially(const std::vector<Transaction>& all, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  OnlineChecker chk;
  ApplyOrderOracle oracle({ct::kAllLevels.begin(), ct::kAllLevels.end()});
  std::uint64_t blocks = 0;
  std::size_t at = 0;
  std::uniform_int_distribution<std::size_t> d(1, 5);
  while (at < all.size()) {
    const std::size_t take = std::min(all.size() - at, d(rng));
    if (take == 1 && rng() % 2 == 0) {
      EXPECT_TRUE(chk.append(all[at]));
    } else {
      EXPECT_EQ(chk.append_all(std::span<const Transaction>(all.data() + at, take)),
                take);
    }
    ++blocks;
    at += take;
    SCOPED_TRACE("seed " + std::to_string(seed));
    oracle.expect_agrees(chk, std::span<const Transaction>(all.data(), at));
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Every transaction went through a compiled delta.
  EXPECT_EQ(chk.stats().blocks, blocks);
  EXPECT_EQ(chk.stats().compiled_appends, all.size());
  EXPECT_EQ(chk.stats().duplicates_ignored, 0u);

  // And the whole interleaving matches one fresh whole-stream append_all.
  OnlineChecker fresh;
  EXPECT_EQ(fresh.append_all(std::span<const Transaction>(all)), all.size());
  for (ct::IsolationLevel level : ct::kAllLevels) {
    EXPECT_EQ(fresh.status(level).ok, chk.status(level).ok) << ct::name_of(level);
    EXPECT_EQ(fresh.status(level).first_violation, chk.status(level).first_violation);
    EXPECT_EQ(fresh.status(level).explanation, chk.status(level).explanation);
  }
  EXPECT_EQ(fresh.surviving_levels(), chk.surviving_levels());
}

TEST(OnlineIncremental, AgreesWithCommitTestsOnAnyInterleaving) {
  std::uint64_t seed = 42;
  for (const std::vector<Transaction>& all : interesting_streams()) {
    for (int rep = 0; rep < 3; ++rep) drive_differentially(all, seed++);
  }
}

TEST(OnlineIncremental, WeakOnlyDirectPathMatchesGeneralAndCommitTests) {
  // A checker tracking only the untimed-weak levels is start-only (no
  // interval ends, no timeline searches). Differentially: under random
  // block interleavings — including duplicate re-appends of an
  // already-streamed block — it must agree per level, byte for byte, with
  // an all-levels checker, and with the commit tests over the apply order.
  const std::vector<ct::IsolationLevel> weak{
      ct::IsolationLevel::kReadUncommitted, ct::IsolationLevel::kReadCommitted,
      ct::IsolationLevel::kReadAtomic, ct::IsolationLevel::kPSI};
  std::mt19937_64 rng(771);
  for (const std::vector<Transaction>& all : interesting_streams()) {
    OnlineChecker direct(weak);
    OnlineChecker general;
    ApplyOrderOracle oracle(weak);
    std::size_t at = 0;
    std::size_t duplicates = 0;
    std::uniform_int_distribution<std::size_t> d(1, 5);
    while (at < all.size()) {
      const std::size_t take = std::min(all.size() - at, d(rng));
      const std::span<const Transaction> block(all.data() + at, take);
      EXPECT_EQ(direct.append_all(block), take);
      EXPECT_EQ(general.append_all(block), take);
      if (at > 0 && rng() % 3 == 0) {
        // Re-append an already-streamed transaction: ignored on every path.
        EXPECT_FALSE(direct.append(all[rng() % at]));
        ++duplicates;
      }
      at += take;
      for (ct::IsolationLevel level : weak) {
        const auto& got = direct.status(level);
        const auto& gen = general.status(level);
        ASSERT_EQ(got.ok, gen.ok)
            << ct::name_of(level) << " after " << at << " txns";
        ASSERT_EQ(got.first_violation, gen.first_violation) << ct::name_of(level);
        ASSERT_EQ(got.explanation, gen.explanation) << ct::name_of(level);
      }
      oracle.expect_agrees(direct, std::span<const Transaction>(all.data(), at));
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(direct.stats().compiled_appends, all.size());
    EXPECT_EQ(direct.stats().duplicates_ignored, duplicates);
    EXPECT_EQ(direct.stats().ops_evaluated, general.stats().ops_evaluated);
  }
}

TEST(OnlineIncremental, DuplicatesAndReservedIdsIgnored) {
  const std::vector<Transaction> all = {
      TxnBuilder(1).write(Key{0}).at(0, 1).build(),
      TxnBuilder(2).read(Key{0}, TxnId{1}).at(2, 3).build()};
  OnlineChecker chk;
  EXPECT_EQ(chk.append_all(std::span<const Transaction>(all)), 2u);
  EXPECT_FALSE(chk.append(all[0]));                 // stream duplicate
  EXPECT_FALSE(chk.append(TxnBuilder(0).write(Key{0}).build()));  // reserved
  // A block mixing new, stream-duplicate and intra-block-duplicate ids keeps
  // only the new ones, first occurrence wins.
  const std::vector<Transaction> block = {
      TxnBuilder(3).write(Key{1}).at(4, 5).build(), all[1],
      TxnBuilder(3).write(Key{2}).at(6, 7).build()};
  EXPECT_EQ(chk.append_all(std::span<const Transaction>(block)), 1u);
  EXPECT_EQ(chk.size(), 3u);
  EXPECT_EQ(chk.stats().duplicates_ignored, 4u);
  EXPECT_TRUE(chk.stream().writes_key(2, chk.stream().keys().find(Key{1})));
}

TEST(CheckIncremental, MatchesIndependentPrefixChecks) {
  const auto fuzz = wl::fuzz_observations(17, {.transactions = 8, .keys = 3});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  std::vector<TransactionSet> blocks;
  std::vector<TransactionSet> prefixes;
  for (std::size_t at = 0; at < all.size(); at += 3) {
    const std::size_t take = std::min<std::size_t>(3, all.size() - at);
    blocks.emplace_back(
        std::vector<Transaction>(all.begin() + at, all.begin() + at + take));
    prefixes.emplace_back(
        std::vector<Transaction>(all.begin(), all.begin() + at + take));
  }
  CheckOptions opts;
  opts.threads = 1;
  for (ct::IsolationLevel level :
       {ct::IsolationLevel::kReadAtomic, ct::IsolationLevel::kPSI,
        ct::IsolationLevel::kSerializable, ct::IsolationLevel::kStrongSI}) {
    const std::vector<CheckResult> inc = check_incremental(level, blocks, opts);
    ASSERT_EQ(inc.size(), blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const CheckResult lone = check(level, prefixes[i], opts);
      EXPECT_EQ(inc[i].outcome, lone.outcome)
          << ct::name_of(level) << " prefix " << i;
      EXPECT_EQ(inc[i].nodes_explored, lone.nodes_explored)
          << ct::name_of(level) << " prefix " << i;
    }
  }
  std::vector<TransactionSet> dup = {blocks[0], blocks[0]};
  EXPECT_THROW(check_incremental(ct::IsolationLevel::kReadAtomic, dup, opts),
               std::invalid_argument);
}

TEST(CheckBatch, PrefixChainsMatchIndependentChecks) {
  const auto fuzz = wl::fuzz_observations(29, {.transactions = 7, .keys = 3});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  std::vector<TransactionSet> histories;
  for (std::size_t end : {3u, 5u, 7u}) {  // a chain of growing prefixes...
    histories.emplace_back(std::vector<Transaction>(all.begin(), all.begin() + end));
  }
  // ...then a chain-breaking unrelated history, then a fresh chain.
  histories.push_back(wl::fuzz_observations(31, {.transactions = 5, .keys = 3}).txns);
  histories.emplace_back(std::vector<Transaction>(all.begin(), all.begin() + 4));
  histories.emplace_back(std::vector<Transaction>(all.begin(), all.begin() + 6));

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    CheckOptions opts;
    opts.threads = threads;
    const std::vector<CheckResult> batch =
        check_batch(ct::IsolationLevel::kSerializable, histories, opts);
    ASSERT_EQ(batch.size(), histories.size());
    CheckOptions lone_opts;
    lone_opts.threads = 1;
    for (std::size_t i = 0; i < histories.size(); ++i) {
      const CheckResult lone =
          check(ct::IsolationLevel::kSerializable, histories[i], lone_opts);
      EXPECT_EQ(batch[i].outcome, lone.outcome) << "history " << i;
      EXPECT_EQ(batch[i].nodes_explored, lone.nodes_explored) << "history " << i;
    }
  }
}

TEST(StreamAudit, RejectsVersionOrderLines) {
  std::istringstream in("vo 1 1 2\n");
  const report::StreamAuditResult r = report::stream_audit(in, {.idle_exit_ms = 1});
  EXPECT_NE(r.error.find("vo"), std::string::npos);
  EXPECT_EQ(r.blocks, 0u);
}

TEST(StreamAudit, AuditsBatchesAndCountsDuplicates) {
  const std::string text =
      "txn 1 start=0 commit=1\n write 0\nend\n"
      "txn 2 start=2 commit=3\n read 0 1\nend\n"
      "txn 1 start=0 commit=1\n write 0\nend\n";  // duplicate, ignored
  std::istringstream in(text);
  std::uint64_t callbacks = 0;
  const report::StreamAuditResult r =
      report::stream_audit(in, {.idle_exit_ms = 1}, [&](const auto& rep) {
        ++callbacks;
        EXPECT_EQ(rep.block, callbacks);
        EXPECT_NE(rep.checker, nullptr);
        return true;
      });
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(callbacks, r.blocks);
  EXPECT_EQ(r.transactions, 2u);
  EXPECT_EQ(r.duplicates, 1u);
  EXPECT_EQ(r.surviving.size(), ct::kAllLevels.size());
}

TEST(StreamAudit, HandlesCrlfLineEndings) {
  const std::string text =
      "txn 1 start=0 commit=1\r\n write 0\r\nend\r\n"
      "txn 2 start=2 commit=3\r\n read 0 1\r\nend\r\n";
  std::istringstream in(text);
  const report::StreamAuditResult r = report::stream_audit(in, {.idle_exit_ms = 1});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.transactions, 2u);
}

TEST(StreamAudit, BlankAndCommentOnlyInputProducesNoBatches) {
  std::istringstream in("\n  # comment only\n\n\t\n# another\n");
  std::uint64_t callbacks = 0;
  const report::StreamAuditResult r = report::stream_audit(
      in, {.idle_exit_ms = 1}, [&](const auto&) {
        ++callbacks;
        return true;
      });
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(callbacks, 0u);
  EXPECT_EQ(r.blocks, 0u);
  EXPECT_EQ(r.transactions, 0u);
}

TEST(StreamAudit, PartialFinalLineAuditedAtIdleExit) {
  // The final `end` never gets its newline — the writer exited mid-line.
  // Idle-exit must still audit the complete block.
  const std::string text =
      "txn 1 start=0 commit=1\n write 0\nend\n"
      "txn 2 start=2 commit=3\n read 0 1\nend";  // no trailing '\n'
  std::istringstream in(text);
  const report::StreamAuditResult r = report::stream_audit(in, {.idle_exit_ms = 1});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.transactions, 2u);
}

TEST(StreamAudit, UnfinishedBlockAtIdleExitIsNotAudited) {
  // `txn 2` is open but its `end` never arrives: only the complete block
  // before it may be audited.
  const std::string text =
      "txn 1 start=0 commit=1\n write 0\nend\n"
      "txn 2 start=2 commit=3\n read 0 1\n";
  std::istringstream in(text);
  const report::StreamAuditResult r = report::stream_audit(in, {.idle_exit_ms = 1});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.transactions, 1u);
}

TEST(StreamAudit, MetricsSnapshotEveryNthBatch) {
  // Three polls' worth of blocks: feed one block per flush by capping batches
  // via a growing stringstream is overkill — instead use three blocks in one
  // stream and metrics_every=1 so every batch carries a snapshot, then
  // confirm metrics_every=0 never does.
  const std::string text =
      "txn 1 start=0 commit=1\n write 0\nend\n"
      "txn 2 start=2 commit=3\n read 0 1\nend\n";
  {
    std::istringstream in(text);
    std::vector<std::string> snapshots;
    report::StreamAuditOptions opts;
    opts.idle_exit_ms = 1;
    opts.metrics_every = 1;
    const report::StreamAuditResult r =
        report::stream_audit(in, opts, [&](const auto& rep) {
          snapshots.push_back(rep.metrics_snapshot);
          return true;
        });
    EXPECT_TRUE(r.error.empty()) << r.error;
    ASSERT_GE(snapshots.size(), 1u);
    for (const std::string& s : snapshots) {
      EXPECT_NE(s.find("\"crooks_follow_batches_total\""), std::string::npos) << s;
      EXPECT_EQ(s.find('\n'), std::string::npos);
    }
  }
  {
    std::istringstream in(text);
    const report::StreamAuditResult r = report::stream_audit(
        in, {.idle_exit_ms = 1}, [&](const auto& rep) {
          EXPECT_TRUE(rep.metrics_snapshot.empty());
          return true;
        });
    EXPECT_TRUE(r.error.empty()) << r.error;
  }
}

TEST(StreamAudit, ErrorOrderDirectivesAndCheckerHook) {
  // The first error in line order wins, a batch with an error is dropped
  // whole, and a `default-level` directive reaches the compiled level column
  // of later blocks only.
  struct Case {
    const char* what;
    std::string text;
    std::string error_prefix;  // empty: a clean exit
    std::size_t transactions;
    std::vector<std::optional<ct::IsolationLevel>> levels;  // per dense slot
  };
  const Case cases[] = {
      {"parse error before a stream error", "txn 2\n read\nend\nvo 0 1\n",
       "block starting at line 1:", 0, {}},
      {"stream error after a clean block",
       "txn 1 start=0 commit=1\n write 0\nend\nvo 0 1\n",
       "line 4: version order", 0, {}},
      {"directive between two blocks",
       "txn 1 start=0 commit=1\n write 0\nend\n"
       "default-level RC\n"
       "txn 2 start=2 commit=3\n read 0 1\nend\n",
       "", 2, {std::nullopt, ct::IsolationLevel::kReadCommitted}},
      {"unknown directive level", "default-level bogus\n",
       "line 1: unknown isolation level 'bogus'", 0, {}},
  };
  for (const Case& c : cases) {
    std::istringstream in(c.text);
    std::vector<std::optional<ct::IsolationLevel>> levels;
    const report::StreamAuditResult r = report::stream_audit(
        in, {.idle_exit_ms = 1}, [&](const report::StreamBlockReport& rep) {
          const CompiledHistory& ch = rep.checker->stream();
          levels.clear();
          for (TxnIdx d = 0; d < ch.size(); ++d) {
            levels.push_back(ch.annotated_level(d));
          }
          return true;
        });
    if (c.error_prefix.empty()) {
      EXPECT_TRUE(r.error.empty()) << c.what << ": " << r.error;
    } else {
      EXPECT_EQ(r.error.rfind(c.error_prefix, 0), 0u) << c.what << ": " << r.error;
    }
    EXPECT_EQ(r.transactions, c.transactions) << c.what;
    EXPECT_EQ(levels, c.levels) << c.what;
  }

  // The on_checker hook: a Collector attached through it sees the same
  // violations as one attached to a direct replay of the same transactions.
  // Every 7th transaction reads the version its key held before the latest.
  std::string text;
  std::uint64_t latest[4] = {}, previous[4] = {};
  for (std::uint64_t i = 1; i <= 60; ++i) {
    const std::uint64_t wk = i % 4, rk = (i * 3 + 1) % 4;
    const std::uint64_t seen = i % 7 == 0 ? previous[rk] : latest[rk];
    text += "txn " + std::to_string(i) + " session=" + std::to_string(i % 3) +
            " start=" + std::to_string(2 * i) +
            " commit=" + std::to_string(2 * i + 1) + "\n read " +
            std::to_string(rk) + " " + std::to_string(seen) + "\n write " +
            std::to_string(wk) + "\nend\n";
    previous[wk] = latest[wk];
    latest[wk] = i;
  }
  forensics::Collector streamed;
  std::istringstream in(text);
  const report::StreamAuditResult r = report::stream_audit(
      in, {.idle_exit_ms = 1,
           .on_checker = [&](OnlineChecker& chk) { streamed.attach(chk); }});
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.transactions, 60u);

  forensics::Collector replayed;
  OnlineChecker chk;
  replayed.attach(chk);
  const std::vector<Transaction> all = to_vector(report::parse_observations(text).txns);
  chk.append_all(std::span<const Transaction>(all));
  EXPECT_GT(replayed.table().witnesses(), 0u);
  EXPECT_EQ(report::forensics_json(streamed.table()),
            report::forensics_json(replayed.table()));
}

TEST(StreamAudit, FollowsGrowingFileWithConcurrentWriter) {
  const auto fuzz = wl::fuzz_observations(55, {.transactions = 24, .keys = 4});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "crooks_follow_smoke.txt";
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
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const report::StreamAuditResult r =
      report::stream_audit(in, {.poll_ms = 5, .idle_exit_ms = 400});
  writer.join();
  std::remove(path.string().c_str());

  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.transactions, all.size());
  EXPECT_GE(r.blocks, 1u);

  // Whatever batching the race produced, the verdicts match a direct feed.
  OnlineChecker direct;
  direct.append_all(std::span<const Transaction>(all));
  for (ct::IsolationLevel level : ct::kAllLevels) {
    const auto it = r.statuses.find(level);
    ASSERT_NE(it, r.statuses.end());
    EXPECT_EQ(it->second.ok, direct.status(level).ok) << ct::name_of(level);
    EXPECT_EQ(it->second.explanation, direct.status(level).explanation);
  }
}

}  // namespace
}  // namespace crooks::checker
