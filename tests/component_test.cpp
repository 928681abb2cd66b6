// The component step of check()'s kAuto dispatch, against the paper's
// definition.
//
// Once the polynomial tiers give up on a history over exhaustive_threshold,
// check() splits it into key-connected components and decides each one on
// its own (graph_engine.cpp; the argument is DESIGN.md §2.14). This suite
// pins the step down:
//   * on fuzzed two-component histories, run at exhaustive_threshold = 0 so
//     that six transactions already reach the step, every definite verdict
//     at every level equals Definition 5 decided by enumeration
//     (oracle::definition_verdicts), with and without a version order; every
//     witness verifies and installs the version order as listed; and the
//     verdict is the same at 1, 2 and 8 threads;
//   * random mixed assignments on the same inputs agree with
//     oracle::definition_holds;
//   * regression shapes: the audit benchmark's write-skew audit at 10^3
//     transactions, a write skew padded with 10^4 independent writers, and
//     Adya SI under a version order on histories of many components.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "checker/checker.hpp"
#include "common/rng.hpp"
#include "engine_oracle.hpp"
#include "model/compiled.hpp"
#include "workload/observations.hpp"

namespace crooks {
namespace {

using checker::CheckOptions;
using checker::CheckResult;
using checker::Outcome;
using checker::oracle::VersionOrder;
using L = ct::IsolationLevel;
using model::TransactionSet;
using model::TxnBuilder;

bool via_components(const CheckResult& r) {
  return r.detail.find("key-connected component") != std::string::npos;
}

/// Two fuzzed sub-histories of 2–4 transactions each, six in total, joined
/// with disjoint ids and keys.
checker::oracle::JoinedHistory two_components(std::uint64_t seed,
                                              double p_untimestamped) {
  wl::ObservationFuzzOptions o;
  o.keys = 3;
  o.p_untimestamped = p_untimestamped;
  o.transactions = 2 + seed % 3;
  const wl::FuzzedObservations a = wl::fuzz_observations(seed, o);
  o.transactions = 6 - o.transactions;
  const wl::FuzzedObservations b = wl::fuzz_observations(seed + 100'000, o);
  return checker::oracle::join_disjoint(a.txns, a.version_order, b.txns,
                                        b.version_order);
}

/// True when `e` installs each key of `vo` in the listed order (restricted
/// to members), the restriction a version order places on the witness.
bool installs_as_listed(const VersionOrder& vo, const model::CompiledHistory& ch,
                        const model::Execution& e) {
  for (const auto& [key, installers] : vo) {
    const model::KeyIdx k = ch.keys().find(key);
    if (k == model::kNoKeyIdx) continue;
    std::vector<TxnId> listed, applied;
    for (TxnId id : installers) {
      if (ch.txns().contains(id)) listed.push_back(id);
    }
    for (std::uint32_t d : e.dense_order()) {
      if (ch.writes_key(d, k)) applied.push_back(ch.id_of(d));
    }
    if (listed != applied) return false;
  }
  return true;
}

struct Tally {
  std::size_t cases = 0;
  std::size_t decided = 0;
  std::size_t split = 0;  // decided by the component step
};

TEST(ComponentStep, TwoComponentFuzzAgreesWithDefinition) {
  Tally t;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (double p_untimestamped : {0.0, 0.35}) {
      const checker::oracle::JoinedHistory j = two_components(seed, p_untimestamped);
      const model::CompiledHistory ch(j.txns);
      for (const VersionOrder* vo : {static_cast<const VersionOrder*>(nullptr),
                                     &j.version_order}) {
        const std::set<L> sat = checker::oracle::definition_verdicts(ch, vo);
        for (L level : ct::kAllLevels) {
          CheckOptions opts;
          opts.exhaustive_threshold = 0;
          opts.version_order = vo;
          opts.threads = 1;
          const CheckResult r = checker::check(level, ch, opts);
          const std::string what = "seed=" + std::to_string(seed) +
                                   " p_untimestamped=" + std::to_string(p_untimestamped) +
                                   (vo != nullptr ? " vo " : " ") +
                                   std::string(ct::name_of(level));
          ++t.cases;
          if (r.outcome != Outcome::kUnknown) {
            ++t.decided;
            t.split += via_components(r) ? 1 : 0;
            EXPECT_EQ(r.outcome, checker::oracle::definition_outcome(sat, level))
                << what << ": " << r.detail;
          }
          if (r.satisfiable()) {
            ASSERT_TRUE(r.witness.has_value()) << what;
            const ct::ExecutionVerdict v = checker::verify_witness(level, ch, *r.witness);
            EXPECT_TRUE(v.ok) << what << ": " << v.explanation;
            if (vo != nullptr) {
              EXPECT_TRUE(installs_as_listed(*vo, ch, *r.witness)) << what;
            }
          }
          for (std::size_t threads : {2, 8}) {
            opts.threads = threads;
            EXPECT_EQ(checker::check(level, ch, opts).outcome, r.outcome)
                << what << " threads=" << threads;
          }
        }
      }
    }
  }
  std::cout << "[ components ] " << t.cases << " cases, " << t.decided
            << " decided, " << t.split << " of them by the component step\n";
  EXPECT_EQ(t.decided, t.cases);
  EXPECT_GT(t.split, t.cases / 10);
}

TEST(ComponentStep, MixedAssignmentsAgreeWithDefinition) {
  Tally t;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const checker::oracle::JoinedHistory j = two_components(seed, seed % 2 ? 0.35 : 0.0);
    const model::CompiledHistory ch(j.txns);
    Rng rng(seed);
    std::vector<L> column(ch.size());
    for (L& l : column) l = ct::kAllLevels[rng.below(ct::kAllLevels.size())];
    const ct::LevelAssignment levels(ct::kAllLevels[rng.below(ct::kAllLevels.size())],
                                     std::move(column));
    CheckOptions opts;
    opts.exhaustive_threshold = 0;
    opts.version_order = seed % 4 < 2 ? nullptr : &j.version_order;
    opts.threads = 1;
    const CheckResult r = checker::check(levels, ch, opts);
    const std::string what = "seed=" + std::to_string(seed) + " " + levels.describe();
    ++t.cases;
    if (r.outcome != Outcome::kUnknown) {
      ++t.decided;
      t.split += via_components(r) ? 1 : 0;
      EXPECT_EQ(r.satisfiable(),
                checker::oracle::definition_holds(levels, ch, opts.version_order))
          << what << ": " << r.detail;
    }
    if (r.satisfiable()) {
      ASSERT_TRUE(r.witness.has_value()) << what;
      EXPECT_TRUE(checker::verify_witness(levels, ch, *r.witness).ok) << what;
    }
    for (std::size_t threads : {2, 8}) {
      opts.threads = threads;
      EXPECT_EQ(checker::check(levels, ch, opts).outcome, r.outcome)
          << what << " threads=" << threads;
    }
  }
  std::cout << "[ components ] " << t.cases << " mixed cases, " << t.decided
            << " decided, " << t.split << " of them by the component step\n";
  EXPECT_EQ(t.decided, t.cases);
  EXPECT_GT(t.split, 0u);
}

/// The audit benchmark's write-skew audit, rebuilt here: a load writes 64 hot
/// keys, then each transaction reads one hot key from its latest writer and
/// writes another, with monotone timestamps. Three write skews (Figure 3's
/// banking shape) sit on dedicated keys: a deposit to two accounts, then two
/// withdrawals that read both and each write one, the first committing after
/// the second starts. `withdrawals` receives the planted withdrawals.
TransactionSet skew_audit_history(std::size_t n, std::vector<TxnId>& withdrawals) {
  constexpr std::uint64_t kHot = 64;
  std::vector<model::Transaction> txns;
  std::vector<std::uint64_t> latest(kHot + 1, 0);
  Rng rng(1);
  std::uint64_t plant_key = 1000;
  for (std::uint64_t i = 1; i <= n; ++i) {
    const Timestamp start = 10 * static_cast<Timestamp>(i) + 1;
    const SessionId session{static_cast<std::uint32_t>(i % 8)};
    TxnBuilder b(i);
    b.session(session);
    if (i == 1) {
      for (std::uint64_t k = 1; k <= kHot; ++k) {
        b.write(k);
        latest[k] = 1;
      }
      txns.push_back(b.at(start, start + 4).build());
    } else if (i % (n / 4) == 0 && i + 2 <= n && plant_key < 1006) {
      const std::uint64_t x = plant_key, y = plant_key + 1;
      plant_key += 2;
      txns.push_back(b.write(x).write(y).at(start, start + 4).build());
      for (std::uint64_t w = 0; w < 2; ++w) {
        ++i;
        const Timestamp s = 10 * static_cast<Timestamp>(i) + 1;
        txns.push_back(TxnBuilder(i)
                           .read(x, i - 1 - w)
                           .read(y, i - 1 - w)
                           .write(w == 0 ? x : y)
                           .session(SessionId{static_cast<std::uint32_t>(i % 8)})
                           .at(s, s + (w == 0 ? 12 : 4))
                           .build());
        withdrawals.push_back(TxnId{i});
      }
    } else {
      const std::uint64_t r = 1 + rng.below(kHot), w = 1 + rng.below(kHot);
      txns.push_back(b.read(r, latest[r]).write(w).at(start, start + 4).build());
      latest[w] = i;
    }
  }
  return TransactionSet(std::move(txns));
}

TEST(ComponentStep, SkewAuditRefutesSerializableInAFewNodes) {
  std::vector<TxnId> withdrawals;
  const TransactionSet txns = skew_audit_history(1000, withdrawals);
  ASSERT_EQ(withdrawals.size(), 6u);
  const model::CompiledHistory ch(txns);
  for (std::size_t threads : {1, 2, 8}) {
    CheckOptions opts;
    opts.threads = threads;
    for (L level : {L::kSerializable, L::kStrictSerializable}) {
      const std::string what =
          std::string(ct::name_of(level)) + " threads=" + std::to_string(threads);
      const CheckResult r = checker::check(level, ch, opts);
      ASSERT_EQ(r.outcome, Outcome::kUnsatisfiable) << what << ": " << r.detail;
      EXPECT_TRUE(via_components(r)) << what << ": " << r.detail;
      EXPECT_LT(r.nodes_explored, 100u) << what;
      ASSERT_TRUE(r.diagnosis.has_value()) << what;
      EXPECT_NE(std::find(withdrawals.begin(), withdrawals.end(), r.diagnosis->txn),
                withdrawals.end())
          << what << " blames " << to_string(r.diagnosis->txn);
    }
    const CheckResult si = checker::check(L::kAdyaSI, ch, opts);
    ASSERT_EQ(si.outcome, Outcome::kSatisfiable) << si.detail;
    EXPECT_TRUE(checker::verify_witness(L::kAdyaSI, ch, *si.witness).ok);
  }
}

/// A write skew on keys 0 and 1, padded with independent writers of their
/// own keys: n - 1 components.
TransactionSet padded_write_skew(std::size_t n) {
  std::vector<model::Transaction> txns;
  txns.push_back(TxnBuilder(1).read(0, 0).read(1, 0).write(0).at(0, 1).build());
  txns.push_back(TxnBuilder(2).read(0, 0).read(1, 0).write(1).at(2, 3).build());
  for (std::uint64_t i = 3; i <= n; ++i) {
    txns.push_back(TxnBuilder(i)
                       .write(Key{i + 10})
                       .at(static_cast<Timestamp>(2 * i), static_cast<Timestamp>(2 * i + 1))
                       .build());
  }
  return TransactionSet(std::move(txns));
}

TEST(ComponentStep, PaddedWriteSkewRefutedAcrossTenThousandComponents) {
  constexpr std::size_t n = 10'000;
  const TransactionSet txns = padded_write_skew(n);
  const CheckResult r = checker::check(L::kSerializable, txns);
  ASSERT_EQ(r.outcome, Outcome::kUnsatisfiable) << r.detail;
  EXPECT_TRUE(via_components(r)) << r.detail;
  EXPECT_LE(r.nodes_explored, 2 * n);
  ASSERT_TRUE(r.diagnosis.has_value());
  EXPECT_TRUE(r.diagnosis->txn == TxnId{1} || r.diagnosis->txn == TxnId{2});
}

/// Untimestamped, so no commit-order candidate exists. Component A (ids
/// 1–4) passes Adya SI only when T4 runs before T2 — which the dependency
/// order, the heuristic's one candidate, does not do; `second` (ids 5 on)
/// is a write skew or a long fork; ten independent writers pad the history
/// past the exhaustive threshold. The version order lists every writer.
struct AdyaSiCase {
  TransactionSet txns;
  VersionOrder vo;
};

AdyaSiCase adya_si_case(bool long_fork) {
  std::vector<model::Transaction> txns{
      TxnBuilder(1).write(1).build(),
      TxnBuilder(2).write(1).build(),
      TxnBuilder(3).write(2).build(),
      TxnBuilder(4).read(1, 1).write(2).build(),
  };
  if (long_fork) {
    txns.push_back(TxnBuilder(5).write(3).build());
    txns.push_back(TxnBuilder(6).write(4).build());
    txns.push_back(TxnBuilder(7).read(3, 5).read(4, 0).build());
    txns.push_back(TxnBuilder(8).read(3, 0).read(4, 6).build());
  } else {
    txns.push_back(TxnBuilder(5).read(3, 0).read(4, 0).write(3).build());
    txns.push_back(TxnBuilder(6).read(3, 0).read(4, 0).write(4).build());
  }
  for (std::uint64_t i = 20; i < 30; ++i) txns.push_back(TxnBuilder(i).write(i).build());
  AdyaSiCase c{TransactionSet(std::move(txns)), {}};
  for (const model::Transaction& t : c.txns) {
    for (const model::Operation& op : t.ops()) {
      if (op.is_write()) c.vo[op.key].push_back(t.id());
    }
  }
  return c;
}

TEST(ComponentStep, AdyaSiWithVersionOrderAcrossComponents) {
  for (bool long_fork : {false, true}) {
    const AdyaSiCase c = adya_si_case(long_fork);
    const model::CompiledHistory ch(c.txns);
    ASSERT_GT(ch.size(), CheckOptions{}.exhaustive_threshold);
    for (std::size_t threads : {1, 8}) {
      CheckOptions opts;
      opts.version_order = &c.vo;
      opts.threads = threads;
      const CheckResult r = checker::check(L::kAdyaSI, ch, opts);
      const std::string what = std::string(long_fork ? "long fork" : "write skew") +
                               " threads=" + std::to_string(threads);
      EXPECT_TRUE(via_components(r)) << what << ": " << r.detail;
      if (!long_fork) {
        ASSERT_EQ(r.outcome, Outcome::kSatisfiable) << what << ": " << r.detail;
        EXPECT_TRUE(checker::verify_witness(L::kAdyaSI, ch, *r.witness).ok) << what;
        EXPECT_TRUE(installs_as_listed(c.vo, ch, *r.witness)) << what;
        continue;
      }
      ASSERT_EQ(r.outcome, Outcome::kUnsatisfiable) << what << ": " << r.detail;
      ASSERT_TRUE(r.diagnosis.has_value()) << what;
      EXPECT_TRUE(r.diagnosis->txn == TxnId{7} || r.diagnosis->txn == TxnId{8})
          << what << " blames " << to_string(r.diagnosis->txn);
    }
  }
}

}  // namespace
}  // namespace crooks
