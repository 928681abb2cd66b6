// Read-state analysis tests, including the paper's Figure 2 example.
#include <gtest/gtest.h>

#include "model/analysis.hpp"

namespace crooks::model {
namespace {

constexpr Key kX{0}, kY{1}, kZ{2};

/// Figure 2 reconstruction. Execution:
///   s0 --Ta: w(x)--> s1 --Tc: w(y)--> s2 --Td: w(y),w(z)--> s3
///      --Tb: r(y=Tc), r(z=⊥)--> s4 --Te: r(x=⊥), r(z=Td)--> s5
/// Tb's r(y=Tc) can only have read from s2 (y overwritten at s3); its
/// r(z=⊥) from s0..s2 — s2 is a complete state for Tb. Te has no complete
/// state: r(x=⊥) only fits s0, r(z=Td) only states ≥ s3.
struct Figure2 : ::testing::Test {
  TransactionSet txns{{
      TxnBuilder(1).write(kX).build(),                                // Ta
      TxnBuilder(2).read(kY, TxnId{3}).read(kZ, kInitTxn).build(),    // Tb
      TxnBuilder(3).write(kY).build(),                                // Tc
      TxnBuilder(4).write(kY).write(kZ).build(),                      // Td
      TxnBuilder(5).read(kX, kInitTxn).read(kZ, TxnId{4}).build(),    // Te
  }};
  Execution e{txns, {TxnId{1}, TxnId{3}, TxnId{4}, TxnId{2}, TxnId{5}}};
  ReadStateAnalysis a{txns, e};
};

TEST_F(Figure2, ReadStatesOfTb) {
  const TxnAnalysis& tb = a.txn(TxnId{2});
  EXPECT_EQ(tb.ops[0].rs, (StateInterval{2, 2}));  // r(y=Tc): only s2
  EXPECT_EQ(tb.ops[1].rs, (StateInterval{0, 2}));  // r(z=⊥): s0..s2
}

TEST_F(Figure2, CompleteStateOfTbIsS2) {
  const TxnAnalysis& tb = a.txn(TxnId{2});
  EXPECT_TRUE(tb.preread);
  EXPECT_EQ(tb.complete, (StateInterval{2, 2}));
}

TEST_F(Figure2, TeHasNoCompleteState) {
  const TxnAnalysis& te = a.txn(TxnId{5});
  EXPECT_TRUE(te.preread);  // every op individually has read states
  EXPECT_EQ(te.ops[0].rs, (StateInterval{0, 0}));  // r(x=⊥): only s0
  EXPECT_EQ(te.ops[1].rs, (StateInterval{3, 4}));  // r(z=Td): s3..parent
  EXPECT_TRUE(te.complete.empty());
}

TEST_F(Figure2, WritersReadStatesSpanToParent) {
  const TxnAnalysis& td = a.txn(TxnId{4});
  EXPECT_EQ(td.parent, 2);
  EXPECT_EQ(td.ops[0].rs, (StateInterval{0, 2}));
  EXPECT_EQ(td.ops[1].rs, (StateInterval{0, 2}));
}

TEST_F(Figure2, PrereadHoldsForAll) { EXPECT_TRUE(a.preread_all()); }

TEST_F(Figure2, TimelinesTrackVersions) {
  const auto& tl = a.timeline(kY);
  ASSERT_EQ(tl.size(), 3u);
  EXPECT_EQ(tl[0].writer, kInitTxn);
  EXPECT_EQ(tl[1].writer, TxnId{3});
  EXPECT_EQ(tl[1].pos, 2);
  EXPECT_EQ(tl[2].writer, TxnId{4});
  EXPECT_EQ(tl[2].pos, 3);
}

TEST_F(Figure2, UnwrittenKeyTimelineIsInitialOnly) {
  const auto& tl = a.timeline(Key{99});
  ASSERT_EQ(tl.size(), 1u);
  EXPECT_EQ(tl[0].writer, kInitTxn);
}

TEST_F(Figure2, LastWriteQueries) {
  EXPECT_EQ(a.last_write_at_or_before(kY, 5), 3);
  EXPECT_EQ(a.last_write_at_or_before(kY, 2), 2);
  EXPECT_EQ(a.last_write_at_or_before(kY, 1), 0);
  EXPECT_EQ(a.last_write_at_or_before(kX, 5), 1);
}

TEST(Analysis, FutureReadHasEmptyReadStates) {
  // T1 reads T2's write, but the execution orders T1 first: no read state.
  TransactionSet txns{{TxnBuilder(1).read(kX, TxnId{2}).build(),
                       TxnBuilder(2).write(kX).build()}};
  Execution e(txns, {TxnId{1}, TxnId{2}});
  ReadStateAnalysis a(txns, e);
  EXPECT_FALSE(a.txn(TxnId{1}).preread);
  EXPECT_TRUE(a.txn(TxnId{1}).ops[0].rs.empty());

  // Reversed order: fine.
  Execution e2(txns, {TxnId{2}, TxnId{1}});
  ReadStateAnalysis a2(txns, e2);
  EXPECT_TRUE(a2.txn(TxnId{1}).preread);
  EXPECT_EQ(a2.txn(TxnId{1}).ops[0].rs, (StateInterval{1, 1}));
}

TEST(Analysis, ReadFromUnknownWriterFailsPreread) {
  TransactionSet txns{{TxnBuilder(1).read(kX, TxnId{77}).build()}};
  ReadStateAnalysis a(txns, Execution::identity(txns));
  EXPECT_FALSE(a.preread_all());
}

TEST(Analysis, ReadFromWriterThatNeverWroteKeyFailsPreread) {
  TransactionSet txns{{TxnBuilder(1).write(kY).build(),
                       TxnBuilder(2).read(kX, TxnId{1}).build()}};
  ReadStateAnalysis a(txns, Execution::identity(txns));
  EXPECT_FALSE(a.txn(TxnId{2}).preread);
}

TEST(Analysis, PhantomReadFailsPreread) {
  TransactionSet txns{{TxnBuilder(1).write(kX).build(),
                       TxnBuilder(2).read_intermediate(kX, TxnId{1}).build()}};
  ReadStateAnalysis a(txns, Execution::identity(txns));
  EXPECT_FALSE(a.txn(TxnId{2}).preread);
}

TEST(Analysis, InternalReadByConventionSpansToParent) {
  TransactionSet txns{{TxnBuilder(1).write(kX).build(),
                       TxnBuilder(2).write(kX).read(kX, TxnId{2}).build()}};
  Execution e(txns, {TxnId{1}, TxnId{2}});
  ReadStateAnalysis a(txns, e);
  const TxnAnalysis& t2 = a.txn(TxnId{2});
  EXPECT_TRUE(t2.ops[1].internal);
  EXPECT_EQ(t2.ops[1].rs, (StateInterval{0, 1}));
}

TEST(Analysis, InternalReadOfWrongValueFailsPreread) {
  // Claims to read T1's value for x after writing x itself: violates
  // read-your-own-writes; no read state exists (Definition 2).
  TransactionSet txns{{TxnBuilder(1).write(kX).build(),
                       TxnBuilder(2).write(kX).read(kX, TxnId{1}).build()}};
  Execution e(txns, {TxnId{1}, TxnId{2}});
  ReadStateAnalysis a(txns, e);
  EXPECT_FALSE(a.txn(TxnId{2}).preread);
}

TEST(Analysis, NoConfThresholdTracksConflictingWrites) {
  // T3 writes x; x was last written at state 2 (by T2) before T3's parent.
  TransactionSet txns{{TxnBuilder(1).write(kX).build(), TxnBuilder(2).write(kX).build(),
                       TxnBuilder(3).write(kX).build(), TxnBuilder(4).write(kY).build()}};
  Execution e(txns, {TxnId{1}, TxnId{2}, TxnId{4}, TxnId{3}});
  ReadStateAnalysis a(txns, e);
  EXPECT_EQ(a.txn(TxnId{3}).no_conf_min, 2);   // T2's write at s2
  EXPECT_EQ(a.txn(TxnId{2}).no_conf_min, 1);   // T1's write at s1
  EXPECT_EQ(a.txn(TxnId{1}).no_conf_min, 0);   // nothing before
  EXPECT_EQ(a.txn(TxnId{4}).no_conf_min, 0);   // y never written before
}

TEST(Analysis, PrecedenceReadAndWriteDeps) {
  // T2 reads T1's x; T3 writes x (after T1, T2); T4 reads T3's x.
  TransactionSet txns{{TxnBuilder(1).write(kX).build(),
                       TxnBuilder(2).read(kX, TxnId{1}).build(),
                       TxnBuilder(3).write(kX).build(),
                       TxnBuilder(4).read(kX, TxnId{3}).build()}};
  Execution e(txns, {TxnId{1}, TxnId{2}, TxnId{3}, TxnId{4}});
  ReadStateAnalysis a(txns, e);
  const Precedence& p = a.precedence();
  const auto d = [&](std::uint64_t id) { return txns.dense_index_of(TxnId{id}); };
  EXPECT_TRUE(p.precedes(d(1), d(2)));   // read dep
  EXPECT_TRUE(p.precedes(d(1), d(3)));   // ww dep
  EXPECT_TRUE(p.precedes(d(3), d(4)));   // read dep
  EXPECT_TRUE(p.precedes(d(1), d(4)));   // transitive
  EXPECT_FALSE(p.precedes(d(2), d(3)));  // rw is NOT a D-PREC edge
  EXPECT_FALSE(p.precedes(d(4), d(1)));
}

TEST(Analysis, PrecedenceCountsDistinctDirectPreds) {
  // T3 reads from T1 and T2 and ww-depends on both: D-PREC = {T1, T2}.
  TransactionSet txns{{TxnBuilder(1).write(kX).build(), TxnBuilder(2).write(kY).build(),
                       TxnBuilder(3)
                           .read(kX, TxnId{1})
                           .read(kY, TxnId{2})
                           .write(kX)
                           .write(kY)
                           .build()}};
  Execution e(txns, {TxnId{1}, TxnId{2}, TxnId{3}});
  ReadStateAnalysis a(txns, e);
  const Precedence& p = a.precedence();
  const auto d = [&](std::uint64_t id) { return txns.dense_index_of(TxnId{id}); };
  EXPECT_TRUE(p.precedes(d(1), d(3)));
  EXPECT_TRUE(p.precedes(d(2), d(3)));
  EXPECT_FALSE(p.precedes(d(3), d(1)));
}

}  // namespace
}  // namespace crooks::model
