// Read-state analysis over one execution (Definitions 2–4 and the PSI
// precedence sets of §4).
//
// Given a TransactionSet 𝒯 and an Execution e, this computes, for every
// operation o, the contiguous interval of candidate read states RS_e(o) =
// [sf_o, sl_o]; per transaction, PREREAD_e(T), the COMPLETE-state interval
// (the intersection of the per-operation intervals), and the NO-CONF
// threshold (the earliest state s with Δ(s, s_p) ∩ W_T = ∅); and, lazily,
// the D-PREC / PREC precedence relation used by the PSI / PL-2+ commit test.
//
// The analysis operates on the CompiledHistory form: operation classification
// (phantom / internal / unknown writer) and writer resolution are precomputed
// there, so this pass is pure index arithmetic on per-key version timelines
// indexed by dense KeyIdx; no state is ever materialized and no hashing
// happens per operation. Construction is O(|ops| · log |versions|).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/bitset.hpp"
#include "common/ids.hpp"
#include "common/interval.hpp"
#include "model/compiled.hpp"
#include "model/execution.hpp"
#include "model/transaction.hpp"

namespace crooks::model {

/// One installed version of a key in the execution order.
struct VersionEntry {
  StateIndex pos = 0;              // state index where this version became current
  TxnId writer = kInitTxn;         // transaction that installed it
  TxnIdx writer_dense = kNoTxnIdx; // dense index of the writer (kNoTxnIdx for ⊥)
};

/// Per-operation results.
struct OpAnalysis {
  StateInterval rs;       // RS_e(o) as a closed interval; empty ⇒ PREREAD fails
  bool internal = false;  // read that follows the transaction's own write
};

/// Per-transaction results.
struct TxnAnalysis {
  StateIndex state = 0;      // index of s_T (the state this transaction generates)
  StateIndex parent = 0;     // index of s_p (= state - 1)
  bool preread = false;      // PREREAD_e(T)
  StateInterval complete;    // states s with COMPLETE_{e,T}(s); may be empty
  StateIndex no_conf_min = 0;  // smallest s such that NO-CONF_T(s) holds
  std::vector<OpAnalysis> ops;
};

/// Transitive precedence (the ▷ relation of the PSI commit test).
class Precedence {
 public:
  /// Does `a` (dense index) transitively precede `b` (dense index)?
  bool precedes(std::size_t a, std::size_t b) const { return prec_[b].test(a); }

  /// The full PREC_e set of a transaction, as a bitset over dense indices.
  const DynamicBitset& prec_set(std::size_t dense) const { return prec_[dense]; }

 private:
  friend class ReadStateAnalysis;
  std::vector<DynamicBitset> prec_;
};

class ReadStateAnalysis {
 public:
  /// Compiles the set privately; prefer the CompiledHistory overload when the
  /// same history is analyzed against several executions.
  ReadStateAnalysis(const TransactionSet& txns, const Execution& e);

  /// Shares an existing compilation (must outlive this analysis).
  ReadStateAnalysis(const CompiledHistory& ch, const Execution& e);

  const TransactionSet& txns() const { return ch_->txns(); }
  const CompiledHistory& compiled() const { return *ch_; }
  const Execution& execution() const { return *exec_; }

  const TxnAnalysis& txn(std::size_t dense) const { return txn_[dense]; }
  const TxnAnalysis& txn(TxnId id) const { return txn_[txns().dense_index_of(id)]; }
  std::size_t size() const { return txn_.size(); }

  /// PREREAD_e(𝒯): every operation of every transaction has a read state.
  bool preread_all() const { return preread_all_; }

  /// The ordered version timeline of a key (always starts with the initial ⊥
  /// version at state 0).
  const std::vector<VersionEntry>& timeline(Key k) const;
  const std::vector<VersionEntry>& timeline_idx(KeyIdx k) const { return timelines_[k]; }

  /// State index of the last write to `k` at or before state `s` (0 when `k`
  /// was never written that early, i.e. the key still holds ⊥).
  StateIndex last_write_at_or_before(Key k, StateIndex s) const;
  StateIndex last_write_at_or_before_idx(KeyIdx k, StateIndex s) const;

  /// Invoke f(writer TxnId, position) for every version of `k` installed at a
  /// state index in (lo, hi]; both bounds are state indices.
  template <typename F>
  void for_writers_in(Key k, StateIndex lo_exclusive, StateIndex hi_inclusive, F&& f) const {
    for (const VersionEntry& v : timeline(k)) {
      if (v.pos > hi_inclusive) break;
      if (v.pos > lo_exclusive) f(v.writer, v.pos);
    }
  }

  /// Same, over dense key index; f receives the full VersionEntry (so callers
  /// can use the dense writer index without a hash lookup).
  template <typename F>
  void for_writers_in_idx(KeyIdx k, StateIndex lo_exclusive, StateIndex hi_inclusive,
                          F&& f) const {
    for (const VersionEntry& v : timelines_[k]) {
      if (v.pos > hi_inclusive) break;
      if (v.pos > lo_exclusive) f(v);
    }
  }

  /// Lazily computed ▷ relation (transitive closure of D-PREC along e).
  /// Only meaningful when PREREAD holds for the transactions involved;
  /// operations with empty read states contribute no read edges.
  const Precedence& precedence() const;

 private:
  void init();
  void analyze_transaction(std::size_t dense);
  StateInterval read_states_of(std::size_t dense, const CompiledOp& op) const;

  std::unique_ptr<const CompiledHistory> owned_;  // set by the TransactionSet ctor
  const CompiledHistory* ch_;
  const Execution* exec_;
  std::vector<std::vector<VersionEntry>> timelines_;  // indexed by KeyIdx
  std::vector<TxnAnalysis> txn_;
  bool preread_all_ = true;
  mutable std::optional<Precedence> precedence_;
};

}  // namespace crooks::model
