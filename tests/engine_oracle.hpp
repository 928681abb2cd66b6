// Shared three-way differential oracle for the checker's engine tiers.
//
// run_three_way() forces the direct, graph, and exhaustive engines (via
// CheckOptions::engine) onto the same compiled history and asserts the
// cross-engine contract:
//   * the exhaustive engine always decides — it is the oracle,
//   * the direct engine decides every eligible level (RC/RA/PSI); its PSI
//     saturation may resolve through the exhaustive fallback but must not
//     give up while the history fits opts.exhaustive_threshold,
//   * any engine that decides agrees with the oracle's verdict,
//   * every SAT witness verifies against the canonical commit tests (the
//     engines legitimately produce *different* orders — equality is modulo
//     "is a valid execution for this level", which verify_witness decides),
//   * every UNSAT verdict carries the same canonical diagnosis (violating
//     transaction, clause, candidate execution): all engines delegate to the
//     single explain_refutation() entry point, so divergence means an engine
//     refuted a different history than the one it was given.
//
// The exhaustive engine itself answers to definition_verdicts() below: the
// paper's Definition 5 decided by trying every order. join_disjoint() builds
// the multi-component inputs that check()'s component step splits.
//
// The classic anomaly × level scenarios (anomaly_matrix_test.cpp's table)
// live here too, so engine suites can re-run them without duplicating it.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "checker/checker.hpp"
#include "committest/commit_test.hpp"
#include "model/analysis.hpp"

namespace crooks::checker::oracle {

using L = ct::IsolationLevel;
using VersionOrder = std::unordered_map<Key, std::vector<TxnId>>;

// --- Definition 5 by enumeration --------------------------------------------
//
// ∃e ∀T CT(T, e), decided the one way that shares no reasoning with the
// engines: run the commit tests of Tables 1–2 (ct::CommitTester) on every
// order of the history. Deciding ∃e is NP-hard in general, so this is for
// small histories only.

inline constexpr std::size_t kDefinitionMaxTxns = 8;

/// Call visit(tester) on the commit tests of every execution of `ch` until
/// visit returns false. With `vo`, only executions that install each listed
/// key's writers in exactly the listed sequence (restricted to members of
/// the history) are visited: the execution space CheckOptions::version_order
/// leaves the engines.
template <typename Visit>
void for_each_execution(const model::CompiledHistory& ch, const VersionOrder* vo,
                        Visit&& visit) {
  ASSERT_LE(ch.size(), kDefinitionMaxTxns) << "enumeration is factorial";
  static const VersionOrder kUnrestricted;
  std::vector<std::pair<model::KeyIdx, std::vector<std::uint32_t>>> installs;
  for (const auto& [key, installers] : vo != nullptr ? *vo : kUnrestricted) {
    const model::KeyIdx k = ch.keys().find(key);
    if (k == model::kNoKeyIdx) continue;  // no member touches the key
    auto& want = installs.emplace_back(k, std::vector<std::uint32_t>{}).second;
    for (TxnId id : installers) {
      if (ch.txns().contains(id)) {
        want.push_back(static_cast<std::uint32_t>(ch.txns().dense_index_of(id)));
      }
    }
  }
  const auto installs_as_listed = [&](const std::vector<std::uint32_t>& order) {
    for (const auto& [k, want] : installs) {
      auto next = want.begin();
      for (std::uint32_t d : order) {
        if (ch.writes_key(d, k) && (next == want.end() || *next++ != d)) return false;
      }
      if (next != want.end()) return false;
    }
    return true;
  };

  std::vector<std::uint32_t> order(ch.size());
  std::iota(order.begin(), order.end(), 0u);
  do {
    if (!installs_as_listed(order)) continue;
    const model::Execution e = model::Execution::from_dense(ch.txns(), order);
    const model::ReadStateAnalysis analysis(ch, e);
    if (!visit(ct::CommitTester(analysis))) return;
  } while (std::next_permutation(order.begin(), order.end()));
}

/// The levels at which Definition 5 holds, all ten from one enumeration.
inline std::set<L> definition_verdicts(const model::CompiledHistory& ch,
                                       const VersionOrder* vo = nullptr) {
  std::set<L> sat;
  for_each_execution(ch, vo, [&](const ct::CommitTester& tester) {
    for (L level : ct::kAllLevels) {
      if (!sat.contains(level) && tester.test_all(level).ok) sat.insert(level);
    }
    return sat.size() < ct::kAllLevels.size();
  });
  return sat;
}

/// Definition 5 under a per-transaction assignment: ∃e ∀T CT_{A(T)}(T, e).
inline bool definition_holds(const ct::LevelAssignment& levels,
                             const model::CompiledHistory& ch,
                             const VersionOrder* vo = nullptr) {
  bool sat = false;
  for_each_execution(ch, vo, [&](const ct::CommitTester& tester) {
    sat = tester.test_all(levels).ok;
    return !sat;
  });
  return sat;
}

/// Two sub-histories joined into one in which no key or read-from edge
/// links a transaction of `a` to one of `b`: b's ids, observed writers and
/// keys are shifted past a's, and the two version orders are merged. The
/// transactions interleave a, b, a, b, … in declaration order, and
/// timestamps, sessions and level annotations are kept, so dense order,
/// real-time order and session order all still cross the two halves. Keep
/// the total within kDefinitionMaxTxns to decide the result by enumeration.
struct JoinedHistory {
  model::TransactionSet txns;
  VersionOrder version_order;
};

inline JoinedHistory join_disjoint(const model::TransactionSet& a,
                                   const VersionOrder& a_vo,
                                   const model::TransactionSet& b,
                                   const VersionOrder& b_vo) {
  constexpr std::uint64_t kShift = 10'000;  // past the fuzzer's ids and keys
  const auto shifted = [](TxnId id) {
    return id == kInitTxn ? id : TxnId{id.value + kShift};
  };
  std::vector<model::Transaction> bs;
  for (const model::Transaction& t : b) {
    std::vector<model::Operation> ops = t.ops();
    for (model::Operation& op : ops) {
      op.key = Key{op.key.value + kShift};
      op.value.writer = shifted(op.value.writer);
    }
    bs.emplace_back(shifted(t.id()), std::move(ops), t.session(), t.site(),
                    t.start_ts(), t.commit_ts(), t.level());
  }
  std::vector<model::Transaction> txns;
  for (std::size_t i = 0; i < std::max(a.size(), bs.size()); ++i) {
    if (i < a.size()) txns.push_back(a.at(i));
    if (i < bs.size()) txns.push_back(std::move(bs[i]));
  }
  JoinedHistory j{model::TransactionSet(std::move(txns)), a_vo};
  for (const auto& [key, installers] : b_vo) {
    std::vector<TxnId>& out = j.version_order[Key{key.value + kShift}];
    for (TxnId id : installers) out.push_back(shifted(id));
  }
  return j;
}

/// The outcome an engine must report for `level` given the definition's
/// verdicts.
inline Outcome definition_outcome(const std::set<L>& sat, L level) {
  return sat.contains(level) ? Outcome::kSatisfiable : Outcome::kUnsatisfiable;
}

struct Scenario {
  std::string name;
  model::TransactionSet txns;
  std::set<L> satisfiable;
};

inline const std::set<L>& all_levels() {
  static const std::set<L> kAll{
      L::kReadUncommitted, L::kReadCommitted, L::kReadAtomic,
      L::kPSI,             L::kAdyaSI,        L::kAnsiSI,
      L::kSessionSI,       L::kStrongSI,      L::kSerializable,
      L::kStrictSerializable};
  return kAll;
}

inline std::set<L> all_but(std::initializer_list<L> unsat) {
  std::set<L> s = all_levels();
  for (L l : unsat) s.erase(l);
  return s;
}

/// The classic anomalies with their expected per-level verdicts (§4–§5).
inline std::vector<Scenario> anomaly_scenarios() {
  using model::TransactionSet;
  using model::TxnBuilder;
  constexpr Key kX{0}, kY{1};
  const std::set<L> kAll = all_levels();

  std::vector<Scenario> out;

  out.push_back({"clean_serial_chain",
                 TransactionSet{{
                     TxnBuilder(1).write(kX).at(0, 1).build(),
                     TxnBuilder(2).read(kX, TxnId{1}).write(kY).at(2, 3).build(),
                     TxnBuilder(3).read(kX, TxnId{1}).read(kY, TxnId{2}).at(4, 5).build(),
                 }},
                 kAll});

  out.push_back({"write_skew",
                 TransactionSet{{
                     TxnBuilder(1).read(kX, kInitTxn).read(kY, kInitTxn).write(kX).at(0, 10).build(),
                     TxnBuilder(2).read(kX, kInitTxn).read(kY, kInitTxn).write(kY).at(1, 11).build(),
                 }},
                 all_but({L::kSerializable, L::kStrictSerializable})});

  out.push_back({"lost_update",
                 TransactionSet{{
                     TxnBuilder(1).read(kX, kInitTxn).write(kX).at(0, 10).build(),
                     TxnBuilder(2).read(kX, kInitTxn).write(kX).at(1, 11).build(),
                 }},
                 {L::kReadUncommitted, L::kReadCommitted, L::kReadAtomic}});

  out.push_back({"long_fork",
                 TransactionSet{{
                     TxnBuilder(1).write(kX).at(0, 10).build(),
                     TxnBuilder(2).write(kY).at(1, 11).build(),
                     TxnBuilder(3).read(kX, TxnId{1}).read(kY, kInitTxn).at(2, 12).build(),
                     TxnBuilder(4).read(kX, kInitTxn).read(kY, TxnId{2}).at(3, 13).build(),
                 }},
                 {L::kReadUncommitted, L::kReadCommitted, L::kReadAtomic, L::kPSI}});

  out.push_back({"causality_violation",
                 TransactionSet{{
                     TxnBuilder(1).write(kX).at(0, 10).build(),
                     TxnBuilder(2).read(kX, TxnId{1}).write(kY).at(11, 12).build(),
                     TxnBuilder(3).read(kY, TxnId{2}).read(kX, kInitTxn).at(13, 14).build(),
                 }},
                 {L::kReadUncommitted, L::kReadCommitted, L::kReadAtomic}});

  out.push_back({"fractured_read",
                 TransactionSet{{
                     TxnBuilder(1).write(kX).write(kY).at(0, 10).build(),
                     TxnBuilder(2).read(kX, TxnId{1}).read(kY, kInitTxn).at(1, 11).build(),
                 }},
                 {L::kReadUncommitted, L::kReadCommitted}});

  out.push_back({"dirty_read_aborted",
                 TransactionSet{{
                     TxnBuilder(2).read(kX, TxnId{99}).at(0, 1).build(),
                 }},
                 {L::kReadUncommitted}});

  out.push_back({"intermediate_read",
                 TransactionSet{{
                     TxnBuilder(1).write(kX).at(0, 1).build(),
                     TxnBuilder(2).read_intermediate(kX, TxnId{1}).at(2, 3).build(),
                 }},
                 {L::kReadUncommitted}});

  out.push_back({"session_inversion",
                 TransactionSet{{
                     TxnBuilder(1).write(kX).session(SessionId{1}).at(0, 10).build(),
                     TxnBuilder(2).read(kX, kInitTxn).session(SessionId{1}).at(20, 30).build(),
                 }},
                 all_but({L::kSessionSI, L::kStrongSI, L::kStrictSerializable})});

  out.push_back({"cross_session_staleness",
                 TransactionSet{{
                     TxnBuilder(1).write(kX).session(SessionId{1}).at(0, 10).build(),
                     TxnBuilder(2).read(kX, kInitTxn).session(SessionId{2}).at(20, 30).build(),
                 }},
                 all_but({L::kStrongSI, L::kStrictSerializable})});

  return out;
}

struct ThreeWay {
  CheckResult direct;
  CheckResult graph;
  CheckResult exhaustive;
};

/// Run all three engines on the same compiled history and assert the
/// cross-engine contract (non-fatally — wrap calls in SCOPED_TRACE for
/// context). Returns the three results for extra, caller-specific checks.
inline ThreeWay run_three_way(L level, const model::CompiledHistory& ch,
                              CheckOptions opts = {}) {
  ThreeWay r;
  CheckOptions sel = opts;
  sel.engine = EngineSelect::kDirect;
  r.direct = check(level, ch, sel);
  sel.engine = EngineSelect::kGraph;
  r.graph = check(level, ch, sel);
  sel.engine = EngineSelect::kExhaustive;
  r.exhaustive = check(level, ch, sel);

  EXPECT_NE(r.exhaustive.outcome, Outcome::kUnknown)
      << ct::name_of(level) << ": oracle undecided: " << r.exhaustive.detail;
  if (direct_eligible(level) && ch.size() <= opts.exhaustive_threshold) {
    EXPECT_NE(r.direct.outcome, Outcome::kUnknown)
        << ct::name_of(level)
        << ": direct engine gave up within the fallback budget: "
        << r.direct.detail;
  }

  const auto against_oracle = [&](const char* name, const CheckResult& e) {
    if (e.outcome == Outcome::kUnknown) return;  // honest "no opinion"
    EXPECT_EQ(e.outcome, r.exhaustive.outcome)
        << ct::name_of(level) << ": " << name << " says " << e.detail
        << "\n but the oracle says " << r.exhaustive.detail;
    if (e.satisfiable()) {
      ASSERT_TRUE(e.witness.has_value()) << name;
      const ct::ExecutionVerdict v = verify_witness(level, ch, *e.witness);
      EXPECT_TRUE(v.ok) << ct::name_of(level) << ": " << name
                        << " witness fails the commit tests: " << v.explanation;
    }
    if (e.unsatisfiable() && r.exhaustive.unsatisfiable()) {
      ASSERT_EQ(e.diagnosis.has_value(), r.exhaustive.diagnosis.has_value())
          << ct::name_of(level) << ": " << name;
      if (e.diagnosis.has_value()) {
        EXPECT_EQ(e.diagnosis->txn, r.exhaustive.diagnosis->txn)
            << ct::name_of(level) << ": " << name;
        EXPECT_EQ(e.diagnosis->clause, r.exhaustive.diagnosis->clause)
            << ct::name_of(level) << ": " << name;
        EXPECT_EQ(e.diagnosis->candidate_execution,
                  r.exhaustive.diagnosis->candidate_execution)
            << ct::name_of(level) << ": " << name;
      }
    }
  };
  against_oracle("direct", r.direct);
  against_oracle("graph", r.graph);
  return r;
}

inline ThreeWay run_three_way(L level, const model::TransactionSet& txns,
                              CheckOptions opts = {}) {
  const model::CompiledHistory ch(txns);
  return run_three_way(level, ch, opts);
}

}  // namespace crooks::checker::oracle
