// Streaming checker: scenario behavior and agreement with the batch
// CommitTester on store-generated apply orders.
#include <gtest/gtest.h>

#include "checker/online.hpp"
#include "committest/commit_test.hpp"
#include "model/analysis.hpp"
#include "store/runner.hpp"
#include "workload/workload.hpp"

namespace crooks::checker {
namespace {

using ct::IsolationLevel;
using model::TxnBuilder;

constexpr Key kX{0}, kY{1};

TEST(Online, CleanChainKeepsEverything) {
  OnlineChecker oc;
  oc.append(TxnBuilder(1).write(kX).at(0, 1).build());
  oc.append(TxnBuilder(2).read(kX, TxnId{1}).write(kY).at(2, 3).build());
  oc.append(TxnBuilder(3).read(kY, TxnId{2}).at(4, 5).build());
  EXPECT_TRUE(oc.all_ok());
  EXPECT_EQ(oc.surviving_levels().size(), ct::kAllLevels.size());
}

TEST(Online, DuplicateAppendsIgnored) {
  OnlineChecker oc;
  EXPECT_TRUE(oc.append(TxnBuilder(1).write(kX).build()));
  EXPECT_FALSE(oc.append(TxnBuilder(1).write(kY).build()));
  EXPECT_EQ(oc.size(), 1u);
}

TEST(Online, WriteSkewKillsOnlySerializability) {
  OnlineChecker oc;
  oc.append(
      TxnBuilder(1).read(kX, kInitTxn).read(kY, kInitTxn).write(kX).at(0, 10).build());
  oc.append(
      TxnBuilder(2).read(kX, kInitTxn).read(kY, kInitTxn).write(kY).at(1, 11).build());
  EXPECT_FALSE(oc.status(IsolationLevel::kSerializable).ok);
  EXPECT_EQ(oc.status(IsolationLevel::kSerializable).first_violation, TxnId{2});
  EXPECT_TRUE(oc.status(IsolationLevel::kAdyaSI).ok);
  EXPECT_TRUE(oc.status(IsolationLevel::kStrongSI).ok);
  EXPECT_TRUE(oc.status(IsolationLevel::kPSI).ok);
}

TEST(Online, DirtyReadCaughtAtAppend) {
  OnlineChecker oc;
  oc.append(TxnBuilder(2).read(kX, TxnId{99}).at(0, 1).build());
  EXPECT_FALSE(oc.status(IsolationLevel::kReadCommitted).ok);
  EXPECT_TRUE(oc.status(IsolationLevel::kReadUncommitted).ok);
  EXPECT_NE(oc.status(IsolationLevel::kReadCommitted).explanation.find("PREREAD"),
            std::string::npos);
}

TEST(Online, RetroactiveRealTimeInversion) {
  OnlineChecker oc;
  // T2 applied first, then T1 arrives late although it committed before T2
  // started: strict serializability and Strong SI are retroactively dead.
  oc.append(TxnBuilder(2).write(kY).at(20, 30).build());
  EXPECT_TRUE(oc.all_ok());
  oc.append(TxnBuilder(1).write(kX).at(0, 10).build());
  EXPECT_FALSE(oc.status(IsolationLevel::kStrictSerializable).ok);
  EXPECT_EQ(oc.status(IsolationLevel::kStrictSerializable).first_violation, TxnId{2});
  EXPECT_FALSE(oc.status(IsolationLevel::kStrongSI).ok);
  // ...but plain serializability survives (T2's parent state is complete).
  EXPECT_TRUE(oc.status(IsolationLevel::kSerializable).ok);
  // C-ORD also fails for the timed snapshot family at the late append.
  EXPECT_FALSE(oc.status(IsolationLevel::kAnsiSI).ok);
}

TEST(Online, SessionInversionOnlyHitsSessionLevels) {
  OnlineChecker oc;
  oc.append(TxnBuilder(2).write(kY).session(SessionId{1}).at(20, 30).build());
  oc.append(TxnBuilder(1).write(kX).session(SessionId{2}).at(0, 10).build());
  // Different sessions: SessionSI violated? No session relation, but C-ORD
  // fails for the timed family at T1's out-of-commit-order append.
  EXPECT_FALSE(oc.status(IsolationLevel::kSessionSI).ok);

  OnlineChecker oc2;
  oc2.append(TxnBuilder(2).write(kY).session(SessionId{1}).at(20, 30).build());
  oc2.append(TxnBuilder(1).write(kX).session(SessionId{1}).at(0, 10).build());
  EXPECT_FALSE(oc2.status(IsolationLevel::kSessionSI).ok);
}

TEST(Online, ViolationsAreSticky) {
  OnlineChecker oc;
  oc.append(TxnBuilder(1).read(kX, TxnId{99}).at(0, 1).build());
  ASSERT_FALSE(oc.status(IsolationLevel::kReadCommitted).ok);
  const std::string first = oc.status(IsolationLevel::kReadCommitted).explanation;
  oc.append(TxnBuilder(2).read(kY, TxnId{98}).at(2, 3).build());
  EXPECT_EQ(oc.status(IsolationLevel::kReadCommitted).explanation, first);
  EXPECT_EQ(oc.status(IsolationLevel::kReadCommitted).first_violation, TxnId{1});
}

TEST(Online, TracksOnlyRequestedLevels) {
  OnlineChecker oc({IsolationLevel::kReadUncommitted});
  oc.append(TxnBuilder(1).read(kX, TxnId{99}).build());  // violates RC, SER...
  EXPECT_TRUE(oc.all_ok());                              // ...all untracked
  EXPECT_THROW(oc.status(IsolationLevel::kReadCommitted), std::out_of_range);
}

/// Agreement with the batch evaluator: feeding a store's apply order to the
/// online checker must yield exactly test_execution's verdict per level.
TEST(Online, AgreesWithBatchOnStoreRuns) {
  for (store::CCMode mode :
       {store::CCMode::kSnapshotIsolation, store::CCMode::kReadCommitted,
        store::CCMode::kReadUncommitted, store::CCMode::kTwoPhaseLocking}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto intents = wl::generate_mix({.transactions = 25,
                                             .keys = 6,
                                             .reads_per_txn = 2,
                                             .writes_per_txn = 2,
                                             .sessions = 3,
                                             .seed = seed});
      const store::RunResult r =
          store::run(intents, {.mode = mode, .seed = seed + 50, .concurrency = 5,
                               .injected_abort_prob = 0.05});

      // Apply order = commit-timestamp order (how the store installed them).
      std::vector<const model::Transaction*> order;
      for (const model::Transaction& t : r.observations) order.push_back(&t);
      std::sort(order.begin(), order.end(), [](auto* a, auto* b) {
        return a->commit_ts() < b->commit_ts();
      });

      OnlineChecker oc;
      std::vector<TxnId> ids;
      for (const model::Transaction* t : order) {
        oc.append(*t);
        ids.push_back(t->id());
      }

      const model::Execution e(r.observations, std::move(ids));
      const model::ReadStateAnalysis analysis(r.observations, e);
      const ct::CommitTester batch(analysis);
      for (IsolationLevel level : ct::kAllLevels) {
        EXPECT_EQ(oc.status(level).ok, batch.test_all(level).ok)
            << store::name_of(mode) << " seed " << seed << " @ "
            << ct::name_of(level) << ": online="
            << oc.status(level).explanation;
      }
    }
  }
}

// ------------------------------------------------------ start-only checkers
//
// An OnlineChecker tracking only {RU, RC, RA, PSI} is start-only: it never
// computes read-state interval ends, so no timeline binary searches. The
// contract is byte-identical verdicts and explanations to a checker that
// tracks every level.

const std::vector<IsolationLevel>& weak_levels() {
  static const std::vector<IsolationLevel> kWeak{
      IsolationLevel::kReadUncommitted, IsolationLevel::kReadCommitted,
      IsolationLevel::kReadAtomic, IsolationLevel::kPSI};
  return kWeak;
}

TEST(OnlineWeak, FracturedReadStreamedBlockByBlock) {
  OnlineChecker oc(weak_levels());
  oc.append(TxnBuilder(1).write(kX).write(kY).at(0, 10).build());
  EXPECT_TRUE(oc.all_ok());
  oc.append(TxnBuilder(2).read(kX, TxnId{1}).read(kY, kInitTxn).at(1, 11).build());
  EXPECT_TRUE(oc.status(IsolationLevel::kReadCommitted).ok);
  EXPECT_FALSE(oc.status(IsolationLevel::kReadAtomic).ok);
  EXPECT_NE(oc.status(IsolationLevel::kReadAtomic).explanation.find("fractured read"),
            std::string::npos);
  EXPECT_FALSE(oc.status(IsolationLevel::kPSI).ok);
  EXPECT_NE(oc.status(IsolationLevel::kPSI).explanation.find("CAUS-VIS"),
            std::string::npos);
}

TEST(OnlineWeak, DirtyReadAndDuplicateAppends) {
  OnlineChecker oc(weak_levels());
  oc.append(TxnBuilder(1).write(kX).at(0, 1).build());
  EXPECT_FALSE(oc.append(TxnBuilder(1).write(kY).at(0, 1).build()));  // dup
  oc.append(TxnBuilder(2).read(kX, TxnId{99}).at(2, 3).build());
  EXPECT_TRUE(oc.status(IsolationLevel::kReadUncommitted).ok);
  for (IsolationLevel l : {IsolationLevel::kReadCommitted,
                           IsolationLevel::kReadAtomic, IsolationLevel::kPSI}) {
    EXPECT_FALSE(oc.status(l).ok) << ct::name_of(l);
    EXPECT_EQ(oc.status(l).first_violation, TxnId{2}) << ct::name_of(l);
    EXPECT_NE(oc.status(l).explanation.find("PREREAD fails in the apply order"),
              std::string::npos);
  }
  EXPECT_EQ(oc.stats().duplicates_ignored, 1u);
  EXPECT_EQ(oc.stats().compiled_appends, 2u);
}

TEST(OnlineWeak, RetroactiveReadStaysStickyWhenWriterArrives) {
  // T2 reads T5 before T5 is applied: in the apply order that read has no
  // candidate state, so the weak levels die at T2 — and stay dead when T5
  // eventually arrives (placement verdicts are final).
  OnlineChecker oc(weak_levels());
  oc.append(TxnBuilder(2).read(kX, TxnId{5}).at(0, 1).build());
  ASSERT_FALSE(oc.status(IsolationLevel::kReadCommitted).ok);
  const std::string first = oc.status(IsolationLevel::kReadCommitted).explanation;
  oc.append(TxnBuilder(5).write(kX).at(2, 3).build());
  EXPECT_FALSE(oc.status(IsolationLevel::kReadCommitted).ok);
  EXPECT_EQ(oc.status(IsolationLevel::kReadCommitted).explanation, first);
  EXPECT_EQ(oc.status(IsolationLevel::kReadCommitted).first_violation, TxnId{2});
  EXPECT_FALSE(oc.status(IsolationLevel::kPSI).ok);
}

TEST(OnlineWeak, CausalityViolationCaughtByPsiOnly) {
  OnlineChecker oc(weak_levels());
  oc.append(TxnBuilder(1).write(kX).at(0, 10).build());
  oc.append(TxnBuilder(2).read(kX, TxnId{1}).write(kY).at(11, 12).build());
  oc.append(TxnBuilder(3).read(kY, TxnId{2}).read(kX, kInitTxn).at(13, 14).build());
  EXPECT_TRUE(oc.status(IsolationLevel::kReadCommitted).ok);
  EXPECT_TRUE(oc.status(IsolationLevel::kReadAtomic).ok);
  EXPECT_FALSE(oc.status(IsolationLevel::kPSI).ok);
  EXPECT_EQ(oc.status(IsolationLevel::kPSI).first_violation, TxnId{3});
  EXPECT_NE(oc.status(IsolationLevel::kPSI).explanation.find("misses T1's write"),
            std::string::npos);
}

TEST(OnlineWeak, AgreesWithGeneralPathOnStoreRuns) {
  for (store::CCMode mode :
       {store::CCMode::kSnapshotIsolation, store::CCMode::kReadCommitted,
        store::CCMode::kReadUncommitted, store::CCMode::kTwoPhaseLocking}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto intents = wl::generate_mix({.transactions = 25,
                                             .keys = 6,
                                             .reads_per_txn = 2,
                                             .writes_per_txn = 2,
                                             .sessions = 3,
                                             .seed = seed});
      const store::RunResult r =
          store::run(intents, {.mode = mode, .seed = seed + 50, .concurrency = 5,
                               .injected_abort_prob = 0.05});
      std::vector<const model::Transaction*> order;
      for (const model::Transaction& t : r.observations) order.push_back(&t);
      std::sort(order.begin(), order.end(), [](auto* a, auto* b) {
        return a->commit_ts() < b->commit_ts();
      });

      OnlineChecker weak(weak_levels());
      OnlineChecker general;
      for (const model::Transaction* t : order) {
        weak.append(*t);
        general.append(*t);
      }
      for (IsolationLevel level : weak_levels()) {
        EXPECT_EQ(weak.status(level).ok, general.status(level).ok)
            << store::name_of(mode) << " seed " << seed << " @ "
            << ct::name_of(level);
        EXPECT_EQ(weak.status(level).first_violation,
                  general.status(level).first_violation)
            << ct::name_of(level);
        EXPECT_EQ(weak.status(level).explanation, general.status(level).explanation)
            << ct::name_of(level);
      }
      EXPECT_EQ(weak.stats().ops_evaluated, general.stats().ops_evaluated);
    }
  }
}

}  // namespace
}  // namespace crooks::checker
