// Exhaustive branch-and-bound search for a witness execution.
//
// The key fact making prefix pruning sound: once a transaction is placed at
// the end of the current prefix, every quantity its commit test depends on is
// already fixed — read-state intervals only reference states up to the
// parent, NO-CONF windows end at the parent, PREC sets only contain earlier
// transactions, and the real-time/session clauses are handled by requiring
// the quantified predecessors to be placed first. Appending more transactions
// later can never change a placed transaction's verdict, so a failing
// placement prunes the whole subtree, and a fully built order in which every
// placement passed is a genuine witness.
//
// The search runs entirely on the CompiledHistory form: operations are
// pre-classified (phantom / internal / unknown writer), writers and keys are
// dense indices, and the per-node state — timelines, version-order cursors,
// footprints, real-time/session predecessor counts — lives in flat vectors
// indexed by KeyIdx/TxnIdx. No hash map or hash set is touched between nodes.
//
// Mixed-level mode: the commit test is modular in T, so a per-transaction
// assignment only changes *which* test gates each placement — admissible()
// dispatches on the candidate's own level and the pruning argument above is
// unchanged (a placed transaction's verdict at its own level is fixed by the
// prefix). Two bookkeeping differences: the timestamp precheck applies per
// transaction (only transactions whose own level is timed need the oracle),
// and when PSI is present alongside other levels the PREC sets must be
// maintained for *every* placed transaction, not just the PSI ones — a PSI
// transaction's CAUS-VIS clause folds in the transitive closure through its
// non-PSI predecessors (see build_prec). Uniform assignments never take any
// of these paths, so the global-level behavior is untouched.
//
// Parallel mode (opts.threads != 1, |𝒯| ≥ kMinParallelSize): the n disjoint
// top-level prefix branches — "transaction d is placed first" — partition the
// whole search tree, so each branch is handed to a pool worker as an
// independent search seeded with that first placement. Coordination is one
// atomic first-witness flag; every branch runs under the full node budget and
// the per-branch outcomes are combined by a fixed rule (see run_parallel), so
// the verdict is a deterministic function of the input even though witness
// choice and nodes_explored may vary with scheduling. The price of that rule
// is the bound: a parallel search over n transactions may explore up to
// n × max_nodes nodes before it answers kUnknown — 80M nodes for a write
// skew padded with 18 independent writers at the default 4M budget.
#include <algorithm>
#include <atomic>

#include "checker/checker.hpp"
#include "checker/engine_obs.hpp"
#include "common/bitset.hpp"
#include "common/thread_pool.hpp"
#include "model/compiled.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crooks::checker {

namespace {

using ct::IsolationLevel;
using model::CompiledHistory;
using model::KeyIdx;
using model::OpClass;
using model::TxnIdx;

/// Below this size a search finishes in microseconds; spawning workers only
/// adds noise (and would make the tiny fixtures' witness shapes and node
/// counts scheduling-dependent).
constexpr std::size_t kMinParallelSize = 4;

/// Why a candidate placement was rejected — the prune-reason taxonomy the
/// metrics layer exports. The hot loop pays one local array increment per
/// prune; the aggregate is flushed to the registry once per (branch) search.
enum class Prune : std::uint8_t {
  kVersionOrder,      // not the key's next installer under the version order
  kPreread,           // some read has no candidate read state
  kFractured,         // RA: fractured read across a writer's keys
  kCausVis,           // PSI: a ▷-predecessor's write is invisible
  kIncompleteParent,  // SER/SSER: parent state not complete
  kRealTime,          // SSER/StrongSI: real-time predecessor unplaced
  kSession,           // SessionSI: session predecessor unplaced
  kCOrd,              // timed SI: placement out of commit order
  kNoSnapshot,        // SI family: COMPLETE ∩ NO-CONF ∩ bounds empty
  kCount_
};
constexpr std::size_t kPruneKinds = static_cast<std::size_t>(Prune::kCount_);

constexpr const char* kPruneNames[kPruneKinds] = {
    "version_order", "preread",  "fractured", "caus_vis", "incomplete_parent",
    "real_time",     "session",  "c_ord",     "no_snapshot"};

struct SearchMetrics {
  obs::Counter& nodes;
  obs::Counter* prunes[kPruneKinds];
  obs::Histogram& backtrack_depth;

  static SearchMetrics& get() {
    static SearchMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      SearchMetrics init{
          r.counter("crooks_search_nodes_total",
                    "Placements examined by the exhaustive engine"),
          {},
          r.histogram("crooks_search_backtrack_depth",
                      "Prefix depth at which the exhaustive search backtracked",
                      obs::depth_buckets())};
      for (std::size_t i = 0; i < kPruneKinds; ++i) {
        init.prunes[i] = &r.counter("crooks_search_prunes_total",
                                    "Subtrees pruned by the exhaustive engine, "
                                    "by violated clause",
                                    {{"reason", kPruneNames[i]}});
      }
      return init;
    }();
    return m;
  }
};

class PrefixSearch {
 public:
  PrefixSearch(IsolationLevel level, const CompiledHistory& ch, const CheckOptions& opts)
      : level_(level),
        ch_(&ch),
        adj_(&ch.adjacency()),
        candidates_(&ch.ts_order()),
        max_nodes_(opts.max_nodes),
        n_(ch.size()) {
    // Optional version-order restriction: a transaction writing key k may
    // only be placed when it is the next not-yet-placed installer of k. A key
    // present in the version order restricts its writers even when none of
    // its named installers belong to the set (an empty compiled sequence
    // blocks every writer of the key, exactly like the pre-compile engine).
    if (opts.version_order != nullptr && !opts.version_order->empty()) {
      vo_active_ = true;
      vo_has_.assign(ch.key_count(), false);
      vo_seq_.resize(ch.key_count());
      vo_next_.assign(ch.key_count(), 0);
      for (const auto& [key, installers] : *opts.version_order) {
        const KeyIdx k = ch.keys().find(key);
        if (k == model::kNoKeyIdx) continue;  // key never touched by the set
        vo_has_[k] = true;
        for (TxnId id : installers) {
          if (ch.txns().contains(id)) {
            vo_seq_[k].push_back(static_cast<TxnIdx>(ch.txns().dense_index_of(id)));
          }
        }
      }
    }
    pos_.assign(n_, 0);
    prec_.assign(n_, DynamicBitset(n_));
    timelines_.resize(ch.key_count());
    remaining_rt_.resize(n_);
    remaining_sess_.resize(n_);
    for (TxnIdx d = 0; d < n_; ++d) {
      remaining_rt_[d] = adj_->rt_preds.row_size(d);
      remaining_sess_[d] = adj_->sess_preds.row_size(d);
    }
  }

  /// Mixed-level search: each candidate placement is gated by that
  /// transaction's own commit test. The caller keeps `levels` alive for the
  /// whole search (branch copies share the pointer). Uniform assignments are
  /// expected to go through the level ctor instead (check_exhaustive
  /// delegates), but are handled correctly here too.
  PrefixSearch(const ct::LevelAssignment& levels, const CompiledHistory& ch,
               const CheckOptions& opts)
      : PrefixSearch(levels.fallback(), ch, opts) {
    if (!levels.is_uniform()) {
      levels_ = &levels;
      need_prec_ = levels.present(IsolationLevel::kPSI);
    }
  }

  CheckResult run() {
    if (auto pre = timestamps_precheck()) return *std::move(pre);
    CheckResult result;
    if (dfs()) {
      std::vector<TxnId> ids;
      ids.reserve(order_.size());
      for (TxnIdx d : order_) ids.push_back(ch_->id_of(d));
      result = {Outcome::kSatisfiable, model::Execution(ch_->txns(), std::move(ids)),
                "witness found by exhaustive search", nodes_};
    } else if (nodes_ >= max_nodes_) {
      result = {Outcome::kUnknown, std::nullopt, "search budget exhausted", nodes_};
    } else {
      result = {Outcome::kUnsatisfiable, std::nullopt,
                "exhaustive search: no execution satisfies the commit test", nodes_};
    }
    flush_metrics();
    return result;
  }

  /// Branch-parallel search over the top-level prefix branches.
  ///
  /// Determinism: each branch (a copy of the root search with candidate i
  /// forced first) runs under the full max_nodes cap, so its outcome —
  /// refuted, witness, or cap hit — is a pure function of the input. The
  /// combination rule below is a pure function of those outcomes:
  ///   * any branch holds a witness            → kSatisfiable
  ///   * no witness, no cap hit, Σnodes < cap  → kUnsatisfiable
  ///   * otherwise                             → kUnknown
  /// First-witness early termination (the shared `cancel` flag) is sound
  /// under this rule: a branch is only ever cancelled by a witness elsewhere,
  /// which already fixes the verdict at kSatisfiable. When no branch contains
  /// a witness nothing is ever cancelled, so the refutation/budget outcomes
  /// are exactly the sequential ones and Σnodes equals the sequential node
  /// count. The verdict therefore agrees with run() whenever run() is
  /// definite; on budget-limited instances the parallel engine may upgrade
  /// run()'s kUnknown to kSatisfiable (never the reverse).
  CheckResult run_parallel(std::size_t threads) {
    if (auto pre = timestamps_precheck()) return *std::move(pre);
    std::vector<BranchOutcome> outcomes(n_);
    std::atomic<bool> cancel{false};
    {
      ThreadPool pool(std::min(threads, static_cast<std::size_t>(n_)));
      for (std::size_t i = 0; i < n_; ++i) {
        pool.submit([this, i, &outcomes, &cancel] {
          if (cancel.load(std::memory_order_relaxed)) return;  // stays kCancelled
          PrefixSearch branch(*this);
          outcomes[i] = branch.run_branch((*candidates_)[i], &cancel);
          if (outcomes[i].kind == BranchOutcome::Kind::kWitness) {
            cancel.store(true, std::memory_order_relaxed);
          }
        });
      }
      pool.wait();
    }

    std::uint64_t total = 0;
    for (const BranchOutcome& o : outcomes) total += o.nodes;
    for (BranchOutcome& o : outcomes) {
      if (o.kind == BranchOutcome::Kind::kWitness) {
        return {Outcome::kSatisfiable, model::Execution(ch_->txns(), std::move(o.order)),
                "witness found by parallel exhaustive search", total};
      }
    }
    bool capped = false;
    for (const BranchOutcome& o : outcomes) {
      capped |= o.kind == BranchOutcome::Kind::kCapped;
    }
    if (capped || total >= max_nodes_) {
      return {Outcome::kUnknown, std::nullopt, "search budget exhausted", total};
    }
    return {Outcome::kUnsatisfiable, std::nullopt,
            "exhaustive search: no execution satisfies the commit test", total};
  }

 private:
  struct OpInterval {
    StateIndex sf = 0;
    StateIndex sl = -1;
    bool empty() const { return sf > sl; }
  };

  /// What one top-level prefix branch concluded about its subtree.
  struct BranchOutcome {
    enum class Kind : std::uint8_t {
      kCancelled,  // skipped/aborted because another branch found a witness
      kRefuted,    // subtree fully explored, no witness
      kWitness,    // `order` is a complete passing execution
      kCapped,     // hit the per-branch node cap
    };
    Kind kind = Kind::kCancelled;
    std::uint64_t nodes = 0;
    std::vector<TxnId> order;
  };

  /// kUnsatisfiable early-out shared by run()/run_parallel(): a transaction
  /// whose own level is timed needs timestamps. Under a uniform timed level
  /// that is every transaction (the original global-level precheck); under a
  /// mixed assignment only the timed-level transactions are constrained.
  std::optional<CheckResult> timestamps_precheck() const {
    if (levels_ == nullptr && !ct::requires_timestamps(level_)) return std::nullopt;
    for (TxnIdx d = 0; d < n_; ++d) {
      const IsolationLevel lvl = level_of(d);
      if (!ct::requires_timestamps(lvl)) continue;
      if (!ch_->has_timestamps(d)) {
        CheckResult r{Outcome::kUnsatisfiable, std::nullopt,
                      std::string(ct::name_of(lvl)) +
                          " requires the time oracle but " +
                          crooks::to_string(ch_->id_of(d)) + " has no timestamps",
                      0};
        ReadDiagnosis diag;
        diag.txn = ch_->id_of(d);
        diag.clause = r.detail;
        diag.candidate_execution = "time-oracle precheck (no candidate needed)";
        diag.level = lvl;
        r.diagnosis = std::move(diag);
        return r;
      }
    }
    return std::nullopt;
  }

  /// Explore the subtree rooted at placing `root` first. Charges the root
  /// try exactly like the sequential top-level loop (one node, admissibility
  /// gate), so in the no-witness case Σ branch nodes == sequential nodes.
  BranchOutcome run_branch(TxnIdx root, const std::atomic<bool>* cancel) {
    cancel_ = cancel;
    bool found = false;
    ++nodes_;
    if (!vo_admissible(root)) {
      ++prunes_[static_cast<std::size_t>(Prune::kVersionOrder)];
    } else if (!admissible(root)) {
      ++prunes_[static_cast<std::size_t>(prune_)];
    } else {
      place(root);
      found = dfs();
    }
    flush_metrics();
    BranchOutcome out;
    out.nodes = nodes_;
    if (found) {
      out.kind = BranchOutcome::Kind::kWitness;
      out.order.reserve(order_.size());
      for (TxnIdx d : order_) out.order.push_back(ch_->id_of(d));
    } else if (cancelled_) {
      out.kind = BranchOutcome::Kind::kCancelled;
    } else if (nodes_ >= max_nodes_) {
      out.kind = BranchOutcome::Kind::kCapped;
    } else {
      out.kind = BranchOutcome::Kind::kRefuted;
    }
    return out;
  }

  bool placed(TxnIdx d) const { return pos_[d] != 0; }

  /// Read-state interval of op `i` of the viewed transaction if placed now.
  /// Reads the flags byte first and touches the writer / key arrays only for
  /// the classes that need them — the SoA layout makes that selective. The
  /// next write after the version is found by scanning the key's timeline
  /// backwards: reads usually observe a recent version, so the scan exits
  /// after a compare or two where a binary search pays its full log cost.
  OpInterval interval_of(const model::OpsView& ops, std::size_t i,
                         StateIndex parent) const {
    StateIndex version_pos = 0;
    switch (ops.cls(i)) {
      case OpClass::kWrite:
      case OpClass::kReadInternal:
        return {0, parent};
      case OpClass::kReadNever:
        return {0, -1};
      case OpClass::kReadInitial:
        version_pos = 0;
        break;
      case OpClass::kReadExternal: {
        const TxnIdx w = ops.writer(i);
        if (!placed(w)) return {0, -1};
        version_pos = pos_[w];
        break;
      }
    }
    const auto& tl = timelines_[ops.key(i)];
    StateIndex next_write = parent + 2;
    for (auto it = tl.rbegin(); it != tl.rend() && it->first > version_pos; ++it) {
      next_write = it->first;
    }
    return {version_pos, std::min(next_write - 1, parent)};
  }

  /// PREREAD alone (the whole RC test): every read names a version that
  /// exists in the prefix — the initial state, the transaction itself, or a
  /// *placed* member writer. A placed version's interval [pos_w, …] is never
  /// empty (the next write of the key is strictly later and parent ≥ pos_w),
  /// so emptiness can only come from kReadNever or an unplaced external
  /// writer: no timeline is touched at all.
  bool readable(const model::OpsView& ops) const {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      switch (ops.cls(i)) {
        case OpClass::kWrite:
        case OpClass::kReadInternal:
        case OpClass::kReadInitial:
          break;
        case OpClass::kReadNever:
          return false;
        case OpClass::kReadExternal:
          if (!placed(ops.writer(i))) return false;
          break;
      }
    }
    return true;
  }

  /// COMPLETE at the parent state (the SER/SSER test, given that every
  /// interval's sf is ≤ parent by construction): each read's interval must
  /// reach the parent, i.e. no placed write of the key is newer than the
  /// version read — every read observes the key's latest placed version.
  /// One flags byte and at most one probe of the timeline's back per op;
  /// the interval search is not needed for this special case.
  bool reads_latest(const model::OpsView& ops) const {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      StateIndex version_pos = 0;
      switch (ops.cls(i)) {
        case OpClass::kWrite:
        case OpClass::kReadInternal:
          continue;
        case OpClass::kReadNever:
          return false;
        case OpClass::kReadInitial:
          version_pos = 0;
          break;
        case OpClass::kReadExternal: {
          const TxnIdx w = ops.writer(i);
          if (!placed(w)) return false;
          version_pos = pos_[w];
          break;
        }
      }
      const auto& tl = timelines_[ops.key(i)];
      if (!tl.empty() && tl.back().first > version_pos) return false;
    }
    return true;
  }

  /// Fill scratch_ with every op's read-state interval, stopping at the
  /// first empty one (PREREAD fails; the RA/PSI passes that consume scratch_
  /// never run on a failed PREREAD, so the partial fill is fine).
  bool fill_scratch(const model::OpsView& ops, StateIndex parent) {
    scratch_.resize(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      scratch_[i] = interval_of(ops, i, parent);
      if (scratch_[i].empty()) return false;
    }
    return true;
  }

  /// Does placing `d` now respect the version-order restriction?
  bool vo_admissible(TxnIdx d) const {
    if (!vo_active_) return true;
    for (KeyIdx k : ch_->write_keys(d)) {
      if (!vo_has_[k]) continue;
      const std::size_t next = vo_next_[k];
      if (next >= vo_seq_[k].size() || vo_seq_[k][next] != d) return false;
    }
    return true;
  }

  /// The level the candidate's commit test runs at: its assigned level under
  /// a mixed assignment, the search's global level otherwise.
  IsolationLevel level_of(TxnIdx d) const {
    return levels_ != nullptr ? levels_->of(d) : level_;
  }

  /// Evaluate CT_{A(T)}(T, prefix + T). Each level runs only the interval
  /// work its commit test consumes: RC needs no timelines (readable), SER /
  /// SSER one back-probe per read (reads_latest), the SI family the interval
  /// bounds but no scratch_, and only RA / PSI fill scratch_ for the
  /// fragment / causal-visibility passes. Verdicts, prune reasons and node
  /// counts are identical to evaluating every test from a full interval
  /// sweep — the differential suites hold each engine to that.
  bool admissible(TxnIdx d) {
    const model::OpsView cops = ch_->ops(d);
    const StateIndex parent = static_cast<StateIndex>(order_.size());

    switch (level_of(d)) {
      case IsolationLevel::kReadUncommitted:
        return true;
      case IsolationLevel::kReadCommitted:
        return readable(cops) || prune(Prune::kPreread);
      case IsolationLevel::kReadAtomic:
        if (!fill_scratch(cops, parent)) return prune(Prune::kPreread);
        return !fractured(d) || prune(Prune::kFractured);
      case IsolationLevel::kPSI:
        if (!fill_scratch(cops, parent)) return prune(Prune::kPreread);
        return caus_vis(d) || prune(Prune::kCausVis);
      case IsolationLevel::kSerializable:
        return reads_latest(cops) || prune(Prune::kIncompleteParent);
      case IsolationLevel::kStrictSerializable:
        if (!reads_latest(cops)) return prune(Prune::kIncompleteParent);
        return remaining_rt_[d] == 0 || prune(Prune::kRealTime);
      case IsolationLevel::kAdyaSI:
      case IsolationLevel::kAnsiSI:
      case IsolationLevel::kSessionSI:
      case IsolationLevel::kStrongSI: {
        StateIndex complete_lo = 0, complete_hi = parent;
        for (std::size_t i = 0; i < cops.size(); ++i) {
          const OpInterval iv = interval_of(cops, i, parent);
          complete_lo = std::max(complete_lo, iv.sf);
          complete_hi = std::min(complete_hi, iv.sl);
        }
        return si_family(level_of(d), d, parent, complete_lo, complete_hi);
      }
    }
    return false;
  }

  /// Record why the current placement failed; always false so the switch in
  /// admissible() reads as `passes || prune(reason)`.
  bool prune(Prune reason) const {
    prune_ = reason;
    return false;
  }

  /// Non-internal external read of a member writer. Under PREREAD (the only
  /// context fractured()/caus_vis() run in) this is exactly the pre-compile
  /// "is_read && !is_internal && writer != ⊥" predicate.
  static bool external_read(std::uint8_t flags) {
    return model::op_class_of(flags) == OpClass::kReadExternal &&
           (flags & model::kOpPositionalInternal) == 0;
  }

  bool fractured(TxnIdx d) const {
    const model::OpsView cops = ch_->ops(d);
    for (std::size_t i = 0; i < cops.size(); ++i) {
      if (!external_read(cops.flags(i))) continue;
      const TxnIdx w1 = cops.writer(i);
      for (std::size_t j = 0; j < cops.size(); ++j) {
        const std::uint8_t m2 = cops.flags(j);
        if ((m2 & model::kOpWrite) != 0 ||
            (m2 & model::kOpPositionalInternal) != 0) {
          continue;
        }
        if (ch_->writes_key(w1, cops.key(j)) && scratch_[i].sf > scratch_[j].sf) {
          return true;
        }
      }
    }
    return false;
  }

  bool caus_vis(TxnIdx d) {
    const model::OpsView cops = ch_->ops(d);
    // Assemble PREC_e(T) from the already-placed predecessors.
    DynamicBitset& prec = prec_[d];
    prec = DynamicBitset(n_);
    auto absorb = [&](TxnIdx pd) {
      prec.set(pd);
      prec.or_with(prec_[pd]);
    };
    for (std::size_t i = 0; i < cops.size(); ++i) {
      if (external_read(cops.flags(i))) absorb(cops.writer(i));  // placed: preread holds
    }
    for (KeyIdx k : ch_->write_keys(d)) {
      for (const auto& [pos, wd] : timelines_[k]) absorb(wd);
    }
    // ∀T' ▷ T, ∀o: o.k ∈ W_{T'} ⇒ s_{T'} →* sl_o.
    for (std::size_t i = 0; i < cops.size(); ++i) {
      const std::uint8_t m = cops.flags(i);
      if ((m & model::kOpWrite) != 0 ||
          (m & model::kOpPositionalInternal) != 0) {
        continue;
      }
      for (const auto& [pos, wd] : timelines_[cops.key(i)]) {
        if (pos > scratch_[i].sl && prec.test(wd)) return false;
      }
    }
    return true;
  }

  bool si_family(IsolationLevel level, TxnIdx d, StateIndex parent,
                 StateIndex complete_lo, StateIndex complete_hi) const {
    const bool timed = level != IsolationLevel::kAdyaSI;

    if (timed) {
      // C-ORD(T_{s_p}, T): commit order along the execution. The parent must
      // itself be timestamped — under a uniform timed level the precheck
      // guarantees that, but a mixed prefix may hold untimed transactions,
      // and the canonical tester treats an untimed parent as out of order.
      if (!order_.empty() &&
          !(ch_->commit_ts(order_.back()) != kNoTimestamp &&
            ch_->commit_ts(order_.back()) < ch_->commit_ts(d))) {
        return prune(Prune::kCOrd);
      }
    }
    if (level == IsolationLevel::kStrictSerializable ||
        level == IsolationLevel::kStrongSI) {
      if (remaining_rt_[d] != 0) return prune(Prune::kRealTime);
    }
    if (level == IsolationLevel::kSessionSI && remaining_sess_[d] != 0) {
      return prune(Prune::kSession);
    }

    StateIndex lower = 0;
    if (level == IsolationLevel::kStrongSI) {
      for (TxnIdx p : adj_->rt_preds.row(d)) lower = std::max(lower, pos_[p]);
    } else if (level == IsolationLevel::kSessionSI) {
      for (TxnIdx p : adj_->sess_preds.row(d)) lower = std::max(lower, pos_[p]);
    }

    // NO-CONF: last prefix write of any key in W_T.
    StateIndex no_conf = 0;
    for (KeyIdx k : ch_->write_keys(d)) {
      const auto& tl = timelines_[k];
      if (!tl.empty()) no_conf = std::max(no_conf, tl.back().first);
    }

    const StateIndex lo = std::max({complete_lo, no_conf, lower});
    const StateIndex hi = std::min(complete_hi, parent);
    if (lo > hi) return prune(Prune::kNoSnapshot);
    if (!timed) return true;

    for (StateIndex s = hi; s >= lo; --s) {
      if (s == 0) return true;
      const TxnIdx gen = order_[static_cast<std::size_t>(s) - 1];
      if (ch_->time_precedes(gen, d)) return true;
    }
    return prune(Prune::kNoSnapshot);
  }

  /// PREC_e(T) for a transaction being placed at the end of the prefix,
  /// mirroring model::ReadStateAnalysis::precedence(): direct edges are the
  /// placed writers this transaction externally reads (an unplaced writer
  /// means an empty read state, which contributes no edge) plus every earlier
  /// writer of a key it writes; the transitive closure folds in each direct
  /// predecessor's already-complete set. Only needed when a mixed assignment
  /// contains PSI — a later PSI candidate's CAUS-VIS clause may reach through
  /// this transaction regardless of its own level. (PSI candidates build
  /// their set inside caus_vis, where PREREAD already guarantees the writers
  /// are placed.)
  void build_prec(TxnIdx d) {
    DynamicBitset& prec = prec_[d];
    prec = DynamicBitset(n_);
    auto absorb = [&](TxnIdx pd) {
      prec.set(pd);
      prec.or_with(prec_[pd]);
    };
    const model::OpsView cops = ch_->ops(d);
    for (std::size_t i = 0; i < cops.size(); ++i) {
      if (external_read(cops.flags(i)) && placed(cops.writer(i))) {
        absorb(cops.writer(i));
      }
    }
    for (KeyIdx k : ch_->write_keys(d)) {
      for (const auto& [pos, wd] : timelines_[k]) absorb(wd);
    }
  }

  void place(TxnIdx d) {
    if (need_prec_ && level_of(d) != IsolationLevel::kPSI) build_prec(d);
    order_.push_back(d);
    pos_[d] = static_cast<StateIndex>(order_.size());
    for (KeyIdx k : ch_->write_keys(d)) {
      timelines_[k].emplace_back(pos_[d], d);
      if (vo_active_ && vo_has_[k]) ++vo_next_[k];
    }
    for (TxnIdx s : adj_->rt_succs.row(d)) --remaining_rt_[s];
    for (TxnIdx s : adj_->sess_succs.row(d)) --remaining_sess_[s];
  }

  void unplace() {
    const TxnIdx d = order_.back();
    order_.pop_back();
    pos_[d] = 0;
    for (KeyIdx k : ch_->write_keys(d)) {
      timelines_[k].pop_back();
      if (vo_active_ && vo_has_[k]) --vo_next_[k];
    }
    for (TxnIdx s : adj_->rt_succs.row(d)) ++remaining_rt_[s];
    for (TxnIdx s : adj_->sess_succs.row(d)) ++remaining_sess_[s];
  }

  bool dfs() {
    if (order_.size() == n_) return true;
    if (nodes_ >= max_nodes_) return false;
    if (cancel_ != nullptr && (nodes_ & 1023) == 0 &&
        cancel_->load(std::memory_order_relaxed)) {
      cancelled_ = true;
      return false;
    }
    for (TxnIdx d : *candidates_) {
      if (placed(d)) continue;
      ++nodes_;
      if (!vo_admissible(d)) {
        ++prunes_[static_cast<std::size_t>(Prune::kVersionOrder)];
        continue;
      }
      if (!admissible(d)) {
        ++prunes_[static_cast<std::size_t>(prune_)];
        continue;
      }
      place(d);
      if (dfs()) return true;
      ++depth_counts_[order_.size()];  // length of the abandoned prefix
      unplace();
      if (cancelled_ || nodes_ >= max_nodes_) return false;
    }
    return false;
  }

  /// Push the locally accumulated effort counters to the global registry.
  /// Called once per search (per branch in parallel mode) so the dfs hot loop
  /// never touches an atomic.
  void flush_metrics() {
    if (!obs::enabled()) return;
    SearchMetrics& m = SearchMetrics::get();
    if (nodes_ != 0) m.nodes.inc(nodes_);
    for (std::size_t i = 0; i < kPruneKinds; ++i) {
      if (prunes_[i] != 0) m.prunes[i]->inc(prunes_[i]);
    }
    for (std::size_t depth = 0; depth < depth_counts_.size(); ++depth) {
      if (depth_counts_[depth] != 0) {
        m.backtrack_depth.observe_n(static_cast<double>(depth),
                                    depth_counts_[depth]);
      }
    }
  }

  IsolationLevel level_;
  /// Non-null iff genuinely mixed; level_of() then dispatches per candidate.
  const ct::LevelAssignment* levels_ = nullptr;
  /// Mixed with PSI present: maintain PREC for every placed transaction.
  bool need_prec_ = false;
  const CompiledHistory* ch_;
  const CompiledHistory::Adjacency* adj_;
  const std::vector<TxnIdx>* candidates_;  // ch_->ts_order(): fixed SWO comparator
  std::uint64_t max_nodes_;
  std::size_t n_;
  std::uint64_t nodes_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;  // set on branch copies only
  bool cancelled_ = false;

  // Local effort accounting, flushed to the registry by flush_metrics().
  mutable Prune prune_ = Prune::kPreread;   // reason of the latest rejection
  std::uint64_t prunes_[kPruneKinds] = {};  // prune tally by reason
  std::vector<std::uint64_t> depth_counts_ =
      std::vector<std::uint64_t>(n_ + 1, 0);  // backtracks by prefix depth

  std::vector<TxnIdx> order_;
  std::vector<StateIndex> pos_;  // 0 = unplaced, else 1-based state index
  std::vector<std::vector<std::pair<StateIndex, TxnIdx>>> timelines_;  // by KeyIdx
  bool vo_active_ = false;
  std::vector<char> vo_has_;                 // by KeyIdx: key named in version order
  std::vector<std::vector<TxnIdx>> vo_seq_;  // by KeyIdx: install order (dense)
  std::vector<std::uint32_t> vo_next_;       // by KeyIdx: next unplaced installer
  std::vector<DynamicBitset> prec_;
  std::vector<std::size_t> remaining_rt_, remaining_sess_;
  std::vector<OpInterval> scratch_;
};

}  // namespace

CheckResult check_exhaustive(ct::IsolationLevel level, const model::CompiledHistory& ch,
                             const CheckOptions& opts) {
  if (ch.size() == 0) {
    return {Outcome::kSatisfiable, model::Execution::identity(ch.txns()),
            "empty transaction set", 0};
  }
  if (auto refused = engine_obs::refuse_retired(ch)) return *std::move(refused);
  static obs::Histogram& latency = engine_obs::check_latency("exhaustive");
  obs::TraceSpan span("engine.exhaustive");
  obs::ScopedTimer timer(latency);
  PrefixSearch search(level, ch, opts);
  const std::size_t threads = opts.resolved_threads();
  CheckResult result = (threads > 1 && ch.size() >= kMinParallelSize)
                           ? search.run_parallel(threads)
                           : search.run();
  result.engine = "exhaustive";
  if (result.unsatisfiable() && !result.diagnosis) {
    result.diagnosis = explain_refutation(level, ch);
  }
  if (obs::enabled()) {
    engine_obs::checks_counter("exhaustive", result.outcome).inc();
  }
  span.field("level", ct::name_of(level))
      .field("n", static_cast<std::uint64_t>(ch.size()))
      .field("threads", static_cast<std::uint64_t>(threads))
      .field("nodes", result.nodes_explored)
      .field("outcome", engine_obs::outcome_word(result.outcome));
  return result;
}

CheckResult check_exhaustive(ct::IsolationLevel level, const model::TransactionSet& txns,
                             const CheckOptions& opts) {
  if (txns.empty()) {
    return {Outcome::kSatisfiable, model::Execution::identity(txns),
            "empty transaction set", 0};
  }
  const model::CompiledHistory ch(txns);
  return check_exhaustive(level, ch, opts);
}

CheckResult check_exhaustive(const ct::LevelAssignment& levels,
                             const model::CompiledHistory& ch,
                             const CheckOptions& opts) {
  // Uniform assignments ARE the global-level question — delegate so the two
  // APIs are verdict-, witness- and node-count-identical by construction.
  if (levels.is_uniform()) return check_exhaustive(levels.fallback(), ch, opts);
  if (ch.size() == 0) {
    return {Outcome::kSatisfiable, model::Execution::identity(ch.txns()),
            "empty transaction set", 0};
  }
  if (auto refused = engine_obs::refuse_retired(ch)) return *std::move(refused);
  static obs::Histogram& latency = engine_obs::check_latency("exhaustive");
  obs::TraceSpan span("engine.exhaustive");
  obs::ScopedTimer timer(latency);
  PrefixSearch search(levels, ch, opts);
  const std::size_t threads = opts.resolved_threads();
  CheckResult result = (threads > 1 && ch.size() >= kMinParallelSize)
                           ? search.run_parallel(threads)
                           : search.run();
  result.engine = "exhaustive";
  if (result.unsatisfiable() && !result.diagnosis) {
    result.diagnosis = explain_refutation(levels, ch);
  }
  if (obs::enabled()) {
    engine_obs::checks_counter("exhaustive", result.outcome).inc();
  }
  span.field("level", levels.describe())
      .field("n", static_cast<std::uint64_t>(ch.size()))
      .field("threads", static_cast<std::uint64_t>(threads))
      .field("nodes", result.nodes_explored)
      .field("outcome", engine_obs::outcome_word(result.outcome));
  return result;
}

ct::ExecutionVerdict verify_witness(ct::IsolationLevel level,
                                    const model::TransactionSet& txns,
                                    const model::Execution& e) {
  return ct::test_execution(level, txns, e);
}

ct::ExecutionVerdict verify_witness(ct::IsolationLevel level,
                                    const model::CompiledHistory& ch,
                                    const model::Execution& e) {
  return ct::test_execution(level, ch, e);
}

ct::ExecutionVerdict verify_witness(const ct::LevelAssignment& levels,
                                    const model::TransactionSet& txns,
                                    const model::Execution& e) {
  return ct::test_execution(levels, txns, e);
}

ct::ExecutionVerdict verify_witness(const ct::LevelAssignment& levels,
                                    const model::CompiledHistory& ch,
                                    const model::Execution& e) {
  return ct::test_execution(levels, ch, e);
}

}  // namespace crooks::checker
