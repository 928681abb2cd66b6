#include "committest/commit_test.hpp"

#include <algorithm>
#include <map>

#include "model/compiled.hpp"
#include "model/execution.hpp"
#include "model/transaction.hpp"

namespace crooks::ct {

using model::CompiledHistory;
using model::KeyIdx;
using model::OpClass;
using model::Operation;
using model::ReadStateAnalysis;
using model::Transaction;
using model::TxnAnalysis;
using model::TxnIdx;
using model::VersionEntry;

CommitTester::CommitTester(const ReadStateAnalysis& analysis) : a_(&analysis) {}

// ---------------------------------------------------------------- TimeIndex

StateIndex CommitTester::TimeIndex::max_state_before(Timestamp t) const {
  // Largest state among transactions with commit_ts < t; 0 when none (only
  // the initial state "commits" before everything).
  auto it = std::lower_bound(commit_ts.begin(), commit_ts.end(), t);
  if (it == commit_ts.begin()) return 0;
  return prefix_max[static_cast<std::size_t>(it - commit_ts.begin()) - 1];
}

void CommitTester::ensure_time_index() const {
  if (global_time_index_.has_value()) return;

  struct Entry {
    Timestamp ts;
    StateIndex state;
    SessionId session;
  };
  std::vector<Entry> entries;
  const CompiledHistory& ch = a_->compiled();
  for (TxnIdx d = 0; d < ch.size(); ++d) {
    if (ch.commit_ts(d) == kNoTimestamp) continue;
    entries.push_back({ch.commit_ts(d), a_->txn(d).state, ch.session(d)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& x, const Entry& y) { return x.ts < y.ts; });

  auto build = [](const std::vector<Entry>& es) {
    TimeIndex idx;
    idx.commit_ts.reserve(es.size());
    idx.prefix_max.reserve(es.size());
    StateIndex running = 0;
    for (const Entry& e : es) {
      running = std::max(running, e.state);
      idx.commit_ts.push_back(e.ts);
      idx.prefix_max.push_back(running);
    }
    return idx;
  };

  global_time_index_ = build(entries);

  std::map<SessionId, std::vector<Entry>> by_session;
  for (const Entry& e : entries) {
    if (e.session != kNoSession) by_session[e.session].push_back(e);
  }
  session_time_index_.clear();
  for (auto& [sess, es] : by_session) {
    session_time_index_.emplace_back(sess, build(es));
  }
}

StateIndex CommitTester::realtime_pred_max_state(std::size_t dense) const {
  const Timestamp start = a_->compiled().start_ts(static_cast<TxnIdx>(dense));
  if (start == kNoTimestamp) return 0;
  ensure_time_index();
  return global_time_index_->max_state_before(start);
}

StateIndex CommitTester::session_pred_max_state(std::size_t dense) const {
  const CompiledHistory& ch = a_->compiled();
  const Timestamp start = ch.start_ts(static_cast<TxnIdx>(dense));
  const SessionId session = ch.session(static_cast<TxnIdx>(dense));
  if (start == kNoTimestamp || session == kNoSession) return 0;
  ensure_time_index();
  for (const auto& [sess, idx] : session_time_index_) {
    if (sess == session) return idx.max_state_before(start);
  }
  return 0;
}

bool CommitTester::commit_ordered_with_parent(std::size_t dense) const {
  const TxnAnalysis& ta = a_->txn(dense);
  if (ta.parent == 0) return true;  // parent is the initial state
  const CompiledHistory& ch = a_->compiled();
  const TxnIdx parent_dense =
      a_->execution().dense_at(static_cast<std::size_t>(ta.parent) - 1);
  return ch.commit_ts(parent_dense) != kNoTimestamp &&
         ch.commit_ts(static_cast<TxnIdx>(dense)) != kNoTimestamp &&
         ch.commit_ts(parent_dense) < ch.commit_ts(static_cast<TxnIdx>(dense));
}

// ------------------------------------------------------------ simple levels

CommitTestResult CommitTester::test_ru(std::size_t) const {
  // CT_RU(T, e) ≡ True (Table 1). See §4 for why the state-based definition
  // is this lax: committed-transaction models cannot distinguish aborted
  // writes from future ones.
  return CommitTestResult::pass();
}

CommitTestResult CommitTester::test_rc(std::size_t dense) const {
  const TxnAnalysis& ta = a_->txn(dense);
  if (ta.preread) return CommitTestResult::pass();
  const Transaction& t = a_->txns().at(dense);
  for (std::size_t i = 0; i < ta.ops.size(); ++i) {
    if (ta.ops[i].rs.empty()) {
      return CommitTestResult::fail("PREREAD fails: operation " +
                                    model::to_string(t.ops()[i]) +
                                    " has no candidate read state in this execution");
    }
  }
  return CommitTestResult::fail("PREREAD fails");
}

CommitTestResult CommitTester::test_ra(std::size_t dense) const {
  if (CommitTestResult rc = test_rc(dense); !rc) return rc;

  // CT_RA (Def. B.1): for external reads r1, r2, if the transaction observed
  // by r1 also wrote r2's key, then sf_{r1} →* sf_{r2} (no fractured reads).
  // PREREAD holds here, so every read with an external member writer is
  // kReadExternal with a valid dense writer index.
  const CompiledHistory& ch = a_->compiled();
  const model::OpsView cops = ch.ops(static_cast<TxnIdx>(dense));
  const TxnAnalysis& ta = a_->txn(dense);
  for (std::size_t i = 0; i < cops.size(); ++i) {
    if (cops.cls(i) != OpClass::kReadExternal) continue;
    const TxnIdx w1 = cops.writer(i);
    for (std::size_t j = 0; j < cops.size(); ++j) {
      if (cops.is_write(j) || ta.ops[j].internal) continue;
      if (!ch.writes_key(w1, cops.key(j))) continue;
      if (ta.ops[i].rs.first > ta.ops[j].rs.first) {
        const Transaction& t = a_->txns().at(dense);
        return CommitTestResult::fail(
            "fractured read: " + model::to_string(t.ops()[i]) + " observes " +
            crooks::to_string(ch.id_of(w1)) + " which also wrote " +
            crooks::to_string(t.ops()[j].key) + ", but " + model::to_string(t.ops()[j]) +
            " reads from the earlier state s" + std::to_string(ta.ops[j].rs.first));
      }
    }
  }
  return CommitTestResult::pass();
}

CommitTestResult CommitTester::test_psi(std::size_t dense) const {
  if (CommitTestResult rc = test_rc(dense); !rc) return rc;

  // CT_PSI (Def. 6): ∀T' ▷ T, ∀o ∈ Σ_T: o.k ∈ W_{T'} ⇒ s_{T'} →* sl_o.
  // Only external reads can violate this: for writes and internal reads,
  // sl_o = s_p and every predecessor precedes s_T (Lemma E.2).
  const CompiledHistory& ch = a_->compiled();
  const model::OpsView cops = ch.ops(static_cast<TxnIdx>(dense));
  const TxnAnalysis& ta = a_->txn(dense);
  const auto& prec = a_->precedence().prec_set(dense);

  for (std::size_t i = 0; i < cops.size(); ++i) {
    if (cops.is_write(i) || ta.ops[i].internal) continue;
    const StateIndex sl = ta.ops[i].rs.last;
    CommitTestResult res = CommitTestResult::pass();
    a_->for_writers_in_idx(cops.key(i), sl, a_->execution().last_state(),
                           [&](const VersionEntry& v) {
                             if (v.writer_dense == model::kNoTxnIdx || !res.ok) return;
                             if (v.writer_dense != dense && prec.test(v.writer_dense)) {
                               const Transaction& t = a_->txns().at(dense);
                               res = CommitTestResult::fail(
                                   "CAUS-VIS fails: " + crooks::to_string(v.writer) +
                                   " ▷-precedes this transaction and wrote " +
                                   crooks::to_string(t.ops()[i].key) + " at state s" +
                                   std::to_string(v.pos) + ", after sl(" +
                                   model::to_string(t.ops()[i]) + ") = s" +
                                   std::to_string(sl));
                             }
                           });
    if (!res) return res;
  }
  return CommitTestResult::pass();
}

CommitTestResult CommitTester::test_ser(std::size_t dense) const {
  const TxnAnalysis& ta = a_->txn(dense);
  if (ta.complete.contains(ta.parent)) return CommitTestResult::pass();
  const Transaction& t = a_->txns().at(dense);
  for (std::size_t i = 0; i < ta.ops.size(); ++i) {
    if (!ta.ops[i].rs.contains(ta.parent)) {
      return CommitTestResult::fail(
          "parent state s" + std::to_string(ta.parent) + " is not complete: " +
          model::to_string(t.ops()[i]) + " cannot read from it (RS = " +
          crooks::to_string(ta.ops[i].rs) + ")");
    }
  }
  return CommitTestResult::fail("parent state is not complete");
}

CommitTestResult CommitTester::test_sser(std::size_t dense) const {
  // Like the timed SI levels: without timestamps the real-time clause below
  // would hold only vacuously (an empty predecessor set).
  const CompiledHistory& ch = a_->compiled();
  const TxnIdx d = static_cast<TxnIdx>(dense);
  if (!ch.has_timestamps(d)) {
    return CommitTestResult::fail(
        std::string(name_of(IsolationLevel::kStrictSerializable)) +
        " requires the time oracle, but " + crooks::to_string(ch.id_of(d)) +
        " has no timestamps");
  }
  if (CommitTestResult ser = test_ser(dense); !ser) return ser;
  // ∀T' <_s T ⇒ s_{T'} →* s_T: every real-time predecessor's state precedes.
  const StateIndex bound = realtime_pred_max_state(dense);
  const TxnAnalysis& ta = a_->txn(dense);
  if (bound <= ta.parent) return CommitTestResult::pass();
  return CommitTestResult::fail(
      "real-time order violated: a transaction that committed before this one "
      "started produced state s" + std::to_string(bound) +
      ", after this transaction's state s" + std::to_string(ta.state));
}

// --------------------------------------------------------------- SI family

std::optional<StateIndex> CommitTester::si_witness(std::size_t dense, StateIndex lower,
                                                   bool need_time_order) const {
  const TxnAnalysis& ta = a_->txn(dense);
  const StateInterval cand =
      ta.complete.intersect({std::max(lower, ta.no_conf_min), ta.parent});
  if (cand.empty()) return std::nullopt;
  if (!need_time_order) return cand.last;

  // T_s <_s T: the witness state's generating transaction must commit (real
  // time) before T starts. Scan from the most recent candidate backwards;
  // s = 0 (the initial state) always qualifies.
  const CompiledHistory& ch = a_->compiled();
  for (StateIndex s = cand.last; s >= cand.first; --s) {
    if (s == 0) return s;
    const TxnIdx gen = a_->execution().dense_at(static_cast<std::size_t>(s) - 1);
    if (ch.time_precedes(gen, static_cast<TxnIdx>(dense))) return s;
  }
  return std::nullopt;
}

CommitTestResult CommitTester::test_si_family(IsolationLevel level,
                                              std::size_t dense) const {
  const CompiledHistory& ch = a_->compiled();
  const TxnAnalysis& ta = a_->txn(dense);

  const bool timed = level != IsolationLevel::kAdyaSI;
  if (timed && !ch.has_timestamps(static_cast<TxnIdx>(dense))) {
    return CommitTestResult::fail(std::string(name_of(level)) +
                                  " requires the time oracle, but " +
                                  crooks::to_string(ch.id_of(static_cast<TxnIdx>(dense))) +
                                  " has no timestamps");
  }
  if (timed && !commit_ordered_with_parent(dense)) {
    return CommitTestResult::fail(
        "C-ORD fails: the execution does not apply transactions in real-time "
        "commit order at state s" + std::to_string(ta.state));
  }

  StateIndex lower = 0;
  if (level == IsolationLevel::kSessionSI) lower = session_pred_max_state(dense);
  if (level == IsolationLevel::kStrongSI) lower = realtime_pred_max_state(dense);

  if (si_witness(dense, lower, timed).has_value()) return CommitTestResult::pass();

  // Explain: which clause emptied the candidate set?
  if (ta.complete.empty()) {
    return CommitTestResult::fail(
        "no complete state exists: the operations' read-state intervals have "
        "empty intersection");
  }
  if (ta.complete.intersect({ta.no_conf_min, ta.parent}).empty()) {
    return CommitTestResult::fail(
        "NO-CONF fails: every complete state (latest s" +
        std::to_string(ta.complete.last) + ") is followed by a write conflicting "
        "with this transaction's write set (last conflict at s" +
        std::to_string(ta.no_conf_min) + ")");
  }
  if (ta.complete.intersect({std::max(lower, ta.no_conf_min), ta.parent}).empty()) {
    return CommitTestResult::fail(
        std::string(name_of(level)) + " recency fails: required snapshot ≥ s" +
        std::to_string(lower) + " but the latest conflict-free complete state is s" +
        std::to_string(std::min(ta.complete.last, ta.parent)));
  }
  return CommitTestResult::fail(
      "T_s <_s T fails: no candidate snapshot was generated by a transaction "
      "that committed before this transaction started");
}

// ----------------------------------------------------------------- dispatch

CommitTestResult CommitTester::test(IsolationLevel level, std::size_t dense) const {
  switch (level) {
    case IsolationLevel::kReadUncommitted: return test_ru(dense);
    case IsolationLevel::kReadCommitted: return test_rc(dense);
    case IsolationLevel::kReadAtomic: return test_ra(dense);
    case IsolationLevel::kPSI: return test_psi(dense);
    case IsolationLevel::kAdyaSI:
    case IsolationLevel::kAnsiSI:
    case IsolationLevel::kSessionSI:
    case IsolationLevel::kStrongSI: return test_si_family(level, dense);
    case IsolationLevel::kSerializable: return test_ser(dense);
    case IsolationLevel::kStrictSerializable: return test_sser(dense);
  }
  return CommitTestResult::fail("unknown isolation level");
}

ExecutionVerdict CommitTester::test_all(IsolationLevel level) const {
  for (std::size_t d = 0; d < a_->size(); ++d) {
    if (CommitTestResult r = test(level, d); !r) {
      const TxnId id = a_->compiled().id_of(static_cast<TxnIdx>(d));
      return {false, id, crooks::to_string(id) + ": " + r.violation};
    }
  }
  return {true, std::nullopt, {}};
}

ExecutionVerdict CommitTester::test_all(const LevelAssignment& levels) const {
  // The commit test is modular in T, so the mixed verdict is just each
  // transaction tested at its own level. The uniform delegation keeps the
  // explanation strings (which embed the level only implicitly, via the
  // violated clause) identical to the global-level API.
  if (levels.is_uniform()) return test_all(levels.fallback());
  for (std::size_t d = 0; d < a_->size(); ++d) {
    if (CommitTestResult r = test(levels.of(d), d); !r) {
      const TxnId id = a_->compiled().id_of(static_cast<TxnIdx>(d));
      return {false, id,
              crooks::to_string(id) + " [" + std::string(name_of(levels.of(d))) +
                  "]: " + r.violation};
    }
  }
  return {true, std::nullopt, {}};
}

ExecutionVerdict test_execution(IsolationLevel level, const model::TransactionSet& txns,
                                const model::Execution& e) {
  const model::ReadStateAnalysis analysis(txns, e);
  return CommitTester(analysis).test_all(level);
}

ExecutionVerdict test_execution(IsolationLevel level, const model::CompiledHistory& ch,
                                const model::Execution& e) {
  const model::ReadStateAnalysis analysis(ch, e);
  return CommitTester(analysis).test_all(level);
}

ExecutionVerdict test_execution(const LevelAssignment& levels,
                                const model::TransactionSet& txns,
                                const model::Execution& e) {
  const model::ReadStateAnalysis analysis(txns, e);
  return CommitTester(analysis).test_all(levels);
}

ExecutionVerdict test_execution(const LevelAssignment& levels,
                                const model::CompiledHistory& ch,
                                const model::Execution& e) {
  const model::ReadStateAnalysis analysis(ch, e);
  return CommitTester(analysis).test_all(levels);
}

}  // namespace crooks::ct
