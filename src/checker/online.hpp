// Streaming isolation monitor.
//
// Real deployments don't audit after the fact — they watch the commit stream.
// OnlineChecker consumes committed transactions in the order the system
// applied them (the system's natural execution witness) and maintains, per
// tracked isolation level, whether the execution-so-far still satisfies
// every commit test. Appending is incremental: per-key version timelines
// grow append-only, a transaction's commit test is evaluated once at its
// append (placement fixes its verdict forever — the same observation that
// makes the exhaustive engine's pruning sound), and real-time/session
// recency clauses are re-checked retroactively when a late transaction
// reveals an inversion.
//
// The checker owns a growable CompiledHistory and feeds every appended block
// through CompiledHistory::extend, so the whole stream — first block or
// ten-thousandth — is evaluated on compiled ops by one routine: writer
// recency is a dense integer compare, phantom/internal/unknown-writer
// branches are precomputed flags, and the real-time recency clauses use the
// monotone commit order the timed levels themselves enforce (binary search
// instead of an O(n) scan). The routine has a start-only mode, fixed at
// construction: a checker whose levels all decide on read-state STARTS (RU,
// RC, RA, PSI) skips the per-read timeline binary search that interval ENDS
// need (Serializable, Strict Serializable, the SI family, assigned mode).
//
// The verdict is per-execution (CT_I over THIS order), the streaming
// analogue of ct::test_execution. A violation here means the system's own
// apply order is not a witness; the ∃e question can still be asked offline
// with checker::check.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "committest/levels.hpp"
#include "common/bitset.hpp"
#include "common/ids.hpp"
#include "common/interval.hpp"
#include "model/compiled.hpp"
#include "model/transaction.hpp"

namespace crooks::checker {

class OnlineChecker {
 public:
  /// Track the given levels (default: all of them).
  explicit OnlineChecker(std::vector<ct::IsolationLevel> levels =
                             {ct::kAllLevels.begin(), ct::kAllLevels.end()});

  struct LevelStatus {
    bool ok = true;
    std::optional<TxnId> first_violation;
    std::string explanation;
  };

  /// Mixed-level monitor: evaluate every appended transaction at its own
  /// `level=` annotation (falling back to `fallback` when unannotated) and
  /// maintain ONE status — the streaming analogue of
  /// ct::test_execution(LevelAssignment, ...). Because a later block may
  /// annotate any level, this mode always computes interval ends (it is
  /// never start-only), builds every transaction's PREC set
  /// (a future PSI-level transaction needs its predecessors' closures), and
  /// drops the sorted-commit-prefix shortcut of the timed recency clauses —
  /// untimed transactions interleave freely, so real-time predecessors are
  /// found by scan instead of binary search.
  /// Construct as: OnlineChecker c(OnlineChecker::kTrackAssigned, fallback);
  /// (A tag, not a one-member options struct: a braced {level} argument must
  /// keep meaning "track exactly this level" via the vector constructor.)
  struct TrackAssignedTag {};
  static constexpr TrackAssignedTag kTrackAssigned{};
  OnlineChecker(TrackAssignedTag,
                ct::IsolationLevel fallback = ct::IsolationLevel::kSerializable);

  /// True for a checker built by track_assigned().
  bool assigned_mode() const { return assigned_mode_; }

  /// Bounded-memory windowing. When either limit is set the checker retires
  /// its prefix in epochs: once the resident tail exceeds the limit, a
  /// watermark W is chosen, everything before W is folded into a summarized
  /// base (per-key latest retired version, per-session recency marker,
  /// retired PREC closures restricted to still-testable slots, the compiled
  /// history's retained scalar/footprint columns), and the per-transaction
  /// state — PREC bitsets, compiled op rows, transaction payloads — is
  /// reclaimed. Memory then stays O(window + keys + sessions)
  /// for an arbitrarily long stream.
  ///
  /// The windowed monitor is ONE-SIDED: it never reports a violation an
  /// unwindowed checker would not, and it misses a violation only when the
  /// witness reaches past the watermark. Every potentially lossy evaluation
  /// is counted (stats().past_window_reads / past_window_checks); when both
  /// counters are 0 the windowed verdicts, first-violation ids and
  /// explanations are identical to an unwindowed run — the differential
  /// suite asserts exactly this.
  ///
  /// The watermark never passes any session's most recently applied
  /// transaction, so a stalled session pins the window (memory grows until
  /// it commits again) rather than degrading that session's verdicts.
  struct WindowOptions {
    /// Retire when more than this many transactions are resident (0 = off).
    std::size_t max_resident_txns = 0;
    /// Retire when the resident-memory ESTIMATE (see resident_bytes())
    /// exceeds this many bytes (0 = off). Both limits may be set; the
    /// tighter one wins.
    std::size_t max_resident_bytes = 0;
    bool enabled() const { return max_resident_txns != 0 || max_resident_bytes != 0; }
  };
  void set_window(WindowOptions w) { window_ = w; }
  const WindowOptions& window() const { return window_; }

  /// First dense index NOT yet retired (== number of retired transactions).
  model::TxnIdx watermark() const { return stream_.retired(); }
  /// Transactions currently resident (total appended = size()).
  std::size_t resident_txns() const { return precs_.size(); }
  /// Compiled operations currently resident in the stream.
  std::size_t resident_ops() const { return stream_.resident_ops(); }
  /// Rough resident-footprint estimate in bytes (PREC closures + compiled
  /// rows + transaction payloads). Drives the max_resident_bytes limit; the
  /// retained per-transaction summary columns (~100 B/txn, grow with the
  /// whole stream) are intentionally excluded — a window cannot bound them.
  std::size_t resident_bytes() const {
    return prec_bytes_ + precs_.size() * kTxnBytesEst +
           stream_.resident_ops() * kOpBytesEst;
  }

  /// The single mixed-assignment status (assigned mode only). Its
  /// explanation names the violated transaction's own level.
  const LevelStatus& assigned_status() const { return assigned_status_; }

  /// Streaming throughput accounting, exported by bench_online_incremental
  /// and asserted by the differential suite.
  struct Stats {
    std::uint64_t blocks = 0;            // extend() calls (append() = block of 1)
    std::uint64_t compiled_appends = 0;  // transactions evaluated on compiled deltas
    std::uint64_t duplicates_ignored = 0;
    /// Compiled operations whose read-state views were computed — the online
    /// analogue of CheckResult::nodes_explored, so the streaming monitor's
    /// effort is comparable with the offline engines' on one dashboard.
    std::uint64_t ops_evaluated = 0;
    // --- Windowed mode (all 0 when no window is set) ---
    std::uint64_t retired_txns = 0;  // transactions folded past the watermark
    std::uint64_t retired_ops = 0;   // compiled op rows reclaimed
    std::uint64_t window_folds = 0;  // retirement epochs
    /// Reads of a version old enough that writes BETWEEN it and the window
    /// were dropped: the read-state interval (and the CAUS-VIS timeline
    /// walk) may be too permissive. The only read-side lossy event. Counted
    /// per stale read whose interval end is computed, or, on a start-only
    /// checker, per stale read that CAUS-VIS walks (starts never change).
    std::uint64_t past_window_reads = 0;
    /// The remaining lossy evaluations: a Session-SI lower bound that may
    /// hide behind the retained retired-session marker, or a PREC absorb of
    /// a retired writer whose closure summary was dropped (it stopped being
    /// any key's newest retired writer). Like past_window_reads these are
    /// one-sided: missed violations, never fabricated ones.
    std::uint64_t past_window_checks = 0;
  };

  /// Append the next committed transaction. Returns false if the id was
  /// already seen or reserved (the transaction is ignored).
  bool append(const model::Transaction& txn);

  /// Append a block of transactions in declaration order, returning how many
  /// were accepted (duplicates are ignored, not errors). The block is
  /// compiled as one CompiledDelta — fresh checker or not, every transaction
  /// is evaluated on compiled ops.
  std::size_t append_all(std::span<const model::Transaction> block);
  std::size_t append_all(const model::TransactionSet& txns);

  const LevelStatus& status(ct::IsolationLevel level) const;
  bool all_ok() const;
  /// Total transactions ever appended (resident + retired).
  std::size_t size() const { return stream_.size(); }
  const Stats& stats() const { return stats_; }

  /// The levels still satisfied by the execution so far.
  std::vector<ct::IsolationLevel> surviving_levels() const;

  /// The compiled view of the stream so far (dense index == apply order).
  /// Any engine can consume it, e.g. for an offline ∃e check of the prefix.
  const model::CompiledHistory& stream() const { return stream_; }

  /// One recorded violation, delivered to the violation hook at event time —
  /// while the failing transaction's compiled ops are still resident (the
  /// hook fires before the window's end-of-ingest retirement; only the
  /// retroactive-inversion victim can already sit below the watermark).
  struct ViolationEvent {
    ct::IsolationLevel level = ct::IsolationLevel::kReadUncommitted;
    TxnId txn{};                              // the violated transaction
    model::TxnIdx dense = model::kNoTxnIdx;   // its apply-order slot in stream()
    /// The clause's other transaction (fractured/missed writer, C-ORD
    /// predecessor, retroactive inverter); kNoTxnIdx when the clause names
    /// none.
    model::TxnIdx other = model::kNoTxnIdx;
    std::string_view why;  // the raw clause text; valid only during the call
  };

  /// Observe every sticky-first violation as it is recorded (once per level
  /// in uniform mode, once total in assigned mode). The forensics collector
  /// attaches here; pass nullptr to detach.
  void set_violation_hook(std::function<void(const ViolationEvent&)> hook) {
    violation_hook_ = std::move(hook);
  }

 private:
  /// A transaction's PREC closure, populated only when PSI is tracked (or in
  /// assigned mode) and kept so that it survives window folds. `recent` is a
  /// bitset over slots ≥ prec_origin_ (bit i ⇔ slot prec_origin_ + i); `old`
  /// is a small sorted vector of retired BASE slots below the origin — the
  /// only retired slots that can still be tested (they appear in a timeline
  /// as a key's latest retired writer). A fold shifts the origin by whole
  /// words (DynamicBitset::drop_words), harvesting dropped closure members
  /// that are still base slots into `old` and pruning the rest.
  struct PrecSet {
    DynamicBitset recent;
    std::vector<std::size_t> old;
  };

  /// Per-session recency record. `states` holds RESIDENT applied states
  /// ascending; `marker` is the largest retired state of the session (0 if
  /// none) and `dropped_any` whether any session state was dropped beyond
  /// the marker — together they decide when a Session-SI lower bound is
  /// potentially lossy (counted in past_window_checks).
  struct SessionRec {
    std::vector<StateIndex> states;
    StateIndex marker = 0;
    bool dropped_any = false;
  };

  /// Is `level` evaluated for dense transaction d? Uniform mode: a fixed
  /// set. Assigned mode: exactly d's own level.
  bool tracks(ct::IsolationLevel level, model::TxnIdx d) const {
    return assigned_mode_ ? level == assigned_level_of(d) : statuses_.contains(level);
  }
  bool status_ok(ct::IsolationLevel level) const {
    return assigned_mode_ ? assigned_status_.ok : statuses_.at(level).ok;
  }
  /// The level transaction `d` is evaluated at in assigned mode.
  ct::IsolationLevel assigned_level_of(model::TxnIdx d) const {
    const std::uint8_t t = stream_.level_tag(d);
    return t == model::CompiledHistory::kNoLevelTag
               ? assigned_fallback_
               : static_cast<ct::IsolationLevel>(t);
  }
  /// Record a sticky-first violation of `level` by dense slot `d`; `other`
  /// is the clause's other transaction when it names one. One exit for the
  /// status flip, the {level, session} counter, the trace event and the
  /// violation hook.
  void violate(ct::IsolationLevel level, model::TxnIdx d, std::string why,
               model::TxnIdx other = model::kNoTxnIdx);

  /// Shared tail of every append path: evaluate the block's transactions in
  /// apply order, then give the window a chance to fold.
  void ingest(const model::CompiledDelta& delta);
  /// The one per-transaction routine: compute d's read-state views against
  /// the installed prefix [0, d), evaluate its commit tests, and install it
  /// (timelines, session index, recency maxima).
  void evaluate(model::TxnIdx d);
  /// The clauses that read interval ends — SER's complete parent state and
  /// the SI family's snapshot bounds — given the intersection
  /// [complete_lo, complete_hi] of d's read-state intervals.
  void check_snapshot(model::TxnIdx d, StateIndex complete_lo, StateIndex complete_hi);
  void check_retroactive_inversions(model::TxnIdx d);

  // --- Windowing ---
  /// PREC closure of dense slot s (must be resident: s ≥ watermark()).
  PrecSet& prec_of(std::size_t slot) { return precs_[slot - placed_base_]; }
  const PrecSet& prec_of(std::size_t slot) const {
    return precs_[slot - placed_base_];
  }
  /// slot ∈ PREC closure p? Exact for every slot ≥ prec_origin_ and for
  /// every current base slot; no other slot is ever tested.
  bool prec_test(const PrecSet& p, std::size_t slot) const {
    if (slot >= prec_origin_) {
      const std::size_t i = slot - prec_origin_;
      return i < p.recent.size() && p.recent.test(i);
    }
    return std::binary_search(p.old.begin(), p.old.end(), slot);
  }
  void prec_add(PrecSet& p, std::size_t slot) {
    if (slot >= prec_origin_) {
      const std::size_t i = slot - prec_origin_;
      p.recent.grow(i + 1);
      p.recent.set(i);
      return;
    }
    auto it = std::lower_bound(p.old.begin(), p.old.end(), slot);
    if (it == p.old.end() || *it != slot) p.old.insert(it, slot);
  }
  /// Absorb slot and its transitive closure into p, whether the slot is
  /// resident (precs_ bitsets) or a retired base slot (base_prec_).
  void prec_absorb(PrecSet& p, std::size_t slot);
  /// Rough per-transaction footprint, for the max_resident_bytes estimate.
  static std::size_t prec_bytes(const PrecSet& p) {
    return sizeof(PrecSet) + (p.recent.size() + 7) / 8 +
           p.old.capacity() * sizeof(std::size_t);
  }
  /// End-of-ingest hook: decide a watermark (resident excess, clamped so no
  /// session's latest applied transaction retires, with hysteresis) and fold.
  void maybe_retire();
  /// Fold everything before dense index `upto` into the summarized base.
  void fold_to(model::TxnIdx upto);

  /// Timeline of dense key `k`, or null when nothing applied wrote it yet.
  const std::vector<std::pair<StateIndex, std::size_t>>* timeline_of(
      model::KeyIdx k) const {
    return k >= timelines_.size() || timelines_[k].empty() ? nullptr
                                                           : &timelines_[k];
  }

  std::map<ct::IsolationLevel, LevelStatus> statuses_;
  model::CompiledHistory stream_;  // owning; dense index == apply order
  // PREC closures of RESIDENT transactions: precs_[i] is dense slot
  // placed_base_ + i. Front-erased by fold_to.
  std::vector<PrecSet> precs_;
  // Timelines indexed by the stream's KeyIdx: (installed state, dense writer).
  // After a fold a timeline keeps its resident entries plus AT MOST ONE
  // retired entry in front — the key's latest retired writer (its base slot):
  // back() stays exact for NO-CONF and the CAUS-VIS walk still sees the
  // newest version a resident read could have skipped.
  std::vector<std::vector<std::pair<StateIndex, std::size_t>>> timelines_;
  // Per key: largest timeline position ever DROPPED by a fold. A read of a
  // version below this bound may have lost its true next-write (lossy,
  // counted); at or above it the kept entries reconstruct the interval
  // exactly.
  std::vector<StateIndex> max_dropped_pos_;
  // Per-session recency records, for the Session SI lower bound.
  std::unordered_map<SessionId, SessionRec> session_states_;
  // --- Window state ---
  WindowOptions window_;
  std::size_t placed_base_ = 0;  // == stream_.retired(): dense slot of precs_[0]
  std::size_t prec_origin_ = 0;  // word-aligned (×64), ≤ placed_base_
  // closure(b) ∩ current base slots, sorted, for every retired base slot b.
  std::unordered_map<std::size_t, std::vector<std::size_t>> base_prec_;
  std::size_t prec_bytes_ = 0;  // Σ prec_bytes over resident precs_
  static constexpr std::size_t kTxnBytesEst = 320;  // Transaction + set nodes
  static constexpr std::size_t kOpBytesEst = 32;    // compiled rows + timeline
  // Max start_ts over applied transactions: a late transaction can invert a
  // real-time clause iff some applied transaction started after it committed.
  Timestamp max_start_applied_ = kNoTimestamp;
  // Whether evaluate() computes read-state interval ENDS — one timeline
  // binary search per read. Fixed at construction: true when a tracked level
  // reads them (SER, SSER, the SI family) and always in assigned mode, where
  // a later block may annotate any level. False makes the checker
  // start-only: RU/RC/RA/PSI decide on starts alone, and no tracked level
  // holds a real-time clause a late arrival could invert.
  bool interval_ends_ = true;
  // --- Assigned (mixed-level) mode, set by track_assigned() ---
  bool assigned_mode_ = false;
  ct::IsolationLevel assigned_fallback_ = ct::IsolationLevel::kSerializable;
  LevelStatus assigned_status_;
  // Bitmask of the levels applied transactions were evaluated at — lets the
  // retroactive-inversion pass exit early when no applied transaction holds
  // a real-time/session clause.
  std::uint16_t applied_mask_ = 0;
  // Scratch: per-op read-state starts of the transaction being evaluated
  // (reused across transactions to avoid reallocation).
  std::vector<StateIndex> starts_;
  // Scratch for append_all's duplicate filter (a monitor appends for days;
  // one hash table outlives every batch instead of one allocation per batch).
  std::unordered_set<TxnId> append_seen_;
  std::vector<model::Transaction> append_fresh_;
  std::function<void(const ViolationEvent&)> violation_hook_;
  Stats stats_;
};

}  // namespace crooks::checker
