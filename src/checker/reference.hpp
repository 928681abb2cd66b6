// Frozen hash-based reference engines.
//
// This is the pre-compile exhaustive search, read-state analysis, and
// streaming monitor, kept verbatim as baselines: per-key timelines in
// unordered_maps, `contains(w)` / `by_id(w)` probes on every search node or
// appended transaction — exactly the representation CompiledHistory replaced.
// Three consumers:
//
//  * tests/compiled_history_test.cpp runs the batch engines differentially
//    against the compiled ones — verdicts must agree on every level, with and
//    without version orders (compilation is a pure re-indexing);
//  * tests/online_incremental_test.cpp runs OnlineCheckerHashed differentially
//    against the incremental compiled OnlineChecker — per-level status,
//    first-violation id and explanation text must agree on any interleaving
//    of append() / append_all() blocks;
//  * bench_ablation_checker's `representation` ablation and
//    bench_online_incremental's `hashed` baseline measure the speedup of the
//    compiled engines over these in the same binary.
//
// The one deliberate divergence from the historical code: the candidate
// comparator. The original compared untimestamped transactions "equivalent"
// to everything, which is not a strict weak order on mixed
// timestamped/untimestamped sets (UB in std::sort) — freezing that would
// freeze the bug. This copy uses the fixed total order (timestamped first by
// commit timestamp, untimestamped after, dense index as tie-break), which is
// also CompiledHistory::ts_order() — candidate ordering affects node counts
// and witness choice, never verdicts.
//
// Do not "improve" this file; it is only useful while it stays hashed.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "checker/checker.hpp"
#include "common/bitset.hpp"
#include "common/interval.hpp"
#include "model/compiled.hpp"

namespace crooks::checker::reference {

/// Sequential branch-and-bound over execution prefixes on the hashed
/// representation. Verdict-equivalent to check_exhaustive(level, txns, opts)
/// with opts.threads == 1 (identical candidate order ⇒ identical node
/// counts, too).
CheckResult check_exhaustive_hashed(ct::IsolationLevel level,
                                    const model::TransactionSet& txns,
                                    const CheckOptions& opts = {});

/// The hashed read-state computation: per-op RS_e(o) intervals of every
/// transaction under `e`, index-aligned with Transaction::ops(). Must match
/// ReadStateAnalysis (which runs on the compiled form) interval-for-interval.
std::vector<std::vector<StateInterval>> read_state_intervals_hashed(
    const model::TransactionSet& txns, const model::Execution& e);

/// The pre-incremental streaming monitor, frozen verbatim: every appended
/// transaction is a full Transaction copy, writer recency is an id-hash
/// probe, the Strong/Session recency bound is an O(n) scan over everything
/// applied, and every retroactive-inversion check walks the whole stream.
/// Status-equivalent to checker::OnlineChecker fed the same transactions in
/// the same order (per level: ok, first_violation, explanation).
class OnlineCheckerHashed {
 public:
  explicit OnlineCheckerHashed(std::vector<ct::IsolationLevel> levels =
                                   {ct::kAllLevels.begin(), ct::kAllLevels.end()});

  struct LevelStatus {
    bool ok = true;
    std::optional<TxnId> first_violation;
    std::string explanation;
  };

  /// Append the next committed transaction; false if the id was already seen.
  bool append(const model::Transaction& txn);

  /// Per-transaction appends in dense order — the "hashed fallback" regime
  /// the incremental checker eliminated.
  std::size_t append_all(const model::TransactionSet& txns);

  const LevelStatus& status(ct::IsolationLevel level) const;
  bool all_ok() const;
  std::size_t size() const { return txns_.size(); }
  std::vector<ct::IsolationLevel> surviving_levels() const;

 private:
  struct OpView {
    StateInterval rs;
    bool internal = false;
  };

  struct Placed {
    model::Transaction txn;
    StateIndex state = 0;  // 1-based
    std::vector<OpView> ops;
    DynamicBitset prec;  // populated only when PSI is tracked
  };

  bool tracking(ct::IsolationLevel level) const {
    return statuses_.contains(level);
  }
  void violate(ct::IsolationLevel level, TxnId txn, std::string why);

  OpView analyze_op(const model::Transaction& t, std::size_t op_index,
                    StateIndex parent) const;
  void evaluate_new(Placed& p);
  void check_retroactive_inversions(const Placed& p);
  void apply(Placed p);

  const std::vector<std::pair<StateIndex, std::size_t>>* timeline_of(Key k) const {
    const model::KeyIdx ki = keys_.find(k);
    return ki == model::kNoKeyIdx || timelines_[ki].empty() ? nullptr
                                                            : &timelines_[ki];
  }

  std::map<ct::IsolationLevel, LevelStatus> statuses_;
  std::vector<Placed> txns_;  // in append (= execution) order
  std::unordered_map<TxnId, std::size_t> index_;
  model::KeyInterner keys_;
  std::vector<std::vector<std::pair<StateIndex, std::size_t>>> timelines_;
};

}  // namespace crooks::checker::reference
