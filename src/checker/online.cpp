#include "checker/online.hpp"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crooks::checker {

using ct::IsolationLevel;
using model::Transaction;
using model::TxnIdx;

namespace {

obs::Counter& online_blocks_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_blocks_total", "Blocks ingested by the online checker");
  return c;
}
obs::Counter& online_txns_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_txns_total",
      "Transactions evaluated on compiled deltas by the online checker");
  return c;
}
obs::Counter& online_duplicates_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_duplicates_total",
      "Transactions ignored by the online checker as duplicate ids");
  return c;
}
obs::Histogram& online_block_seconds() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "crooks_online_block_seconds",
      "Latency of one online ingest (compile delta + evaluate block)");
  return h;
}
obs::Counter& online_retired_txns_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_retired_txns_total",
      "Transactions folded past the window watermark by the online checker");
  return c;
}
obs::Counter& online_retired_ops_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_retired_ops_total",
      "Compiled operation rows reclaimed by window retirement");
  return c;
}
obs::Counter& online_folds_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_window_folds_total",
      "Window retirement epochs executed by the online checker");
  return c;
}
obs::Counter& online_past_reads_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_past_window_reads_total",
      "Reads of versions older than the retained window summary (the "
      "windowed verdict is one-sided for these)");
  return c;
}
obs::Counter& online_past_checks_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_past_window_checks_total",
      "Lossy non-read evaluations under the window: a Session-SI lower bound "
      "that may hide behind the retired-session marker, or a PSI PREC absorb "
      "of a retired writer whose closure summary was dropped (one-sided)");
  return c;
}
obs::Gauge& online_watermark_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge(
      "crooks_online_watermark",
      "First dense index not yet retired by the online checker's window");
  return g;
}
obs::Gauge& online_resident_txns_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge(
      "crooks_online_resident_txns",
      "Transactions currently resident in the online checker");
  return g;
}
obs::Gauge& online_resident_ops_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge(
      "crooks_online_resident_ops",
      "Compiled operation rows currently resident in the online checker");
  return g;
}
obs::Histogram& online_fold_txns_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "crooks_online_fold_txns",
      "Transactions retired per window fold", obs::size_buckets());
  return h;
}

/// The one increment site of crooks_online_violations_total (it used to be
/// duplicated across the assigned/uniform branches of violate). The session
/// label matches the forensics series: low-cardinality in practice (sessions
/// are workload worker ids), "s-" for session-less transactions.
void count_violation(ct::IsolationLevel level, SessionId session) {
  if (!obs::enabled()) return;
  obs::Registry::global()
      .counter("crooks_online_violations_total",
               "First violations recorded per tracked level",
               {{"level", std::string(ct::name_of(level))},
                {"session", crooks::to_string(session)}})
      .inc();
}

std::uint16_t level_bit(ct::IsolationLevel l) {
  return static_cast<std::uint16_t>(1u << static_cast<unsigned>(l));
}

/// Sorted-vector intersection: keep only elements of v present in `keep`.
void intersect_sorted(std::vector<std::size_t>& v,
                      const std::vector<std::size_t>& keep) {
  std::size_t out = 0;
  for (std::size_t x : v) {
    if (std::binary_search(keep.begin(), keep.end(), x)) v[out++] = x;
  }
  v.resize(out);
}

}  // namespace

OnlineChecker::OnlineChecker(std::vector<IsolationLevel> levels) {
  for (IsolationLevel l : levels) statuses_.emplace(l, LevelStatus{});
  interval_ends_ = std::any_of(statuses_.begin(), statuses_.end(), [](const auto& e) {
    return e.first != IsolationLevel::kReadUncommitted &&
           e.first != IsolationLevel::kReadCommitted &&
           e.first != IsolationLevel::kReadAtomic && e.first != IsolationLevel::kPSI;
  });
}

OnlineChecker::OnlineChecker(TrackAssignedTag, IsolationLevel fallback)
    : assigned_mode_(true), assigned_fallback_(fallback) {}

const OnlineChecker::LevelStatus& OnlineChecker::status(IsolationLevel level) const {
  return statuses_.at(level);
}

bool OnlineChecker::all_ok() const {
  if (!assigned_status_.ok) return false;
  for (const auto& [level, s] : statuses_) {
    if (!s.ok) return false;
  }
  return true;
}

std::vector<IsolationLevel> OnlineChecker::surviving_levels() const {
  std::vector<IsolationLevel> out;
  for (const auto& [level, s] : statuses_) {
    if (s.ok) out.push_back(level);
  }
  return out;
}

void OnlineChecker::violate(IsolationLevel level, TxnIdx d, std::string why,
                            TxnIdx other) {
  const TxnId txn = stream_.id_of(d);
  std::string* explanation = nullptr;
  if (assigned_mode_) {
    if (!assigned_status_.ok) return;  // sticky first violation
    assigned_status_.ok = false;
    assigned_status_.first_violation = txn;
    // Mirror ct::CommitTester::test_all(LevelAssignment): the explanation
    // names the violated transaction's own level.
    assigned_status_.explanation = crooks::to_string(txn) + " [" +
                                   std::string(ct::name_of(level)) + "]: " + why;
    explanation = &assigned_status_.explanation;
  } else {
    auto it = statuses_.find(level);
    if (it == statuses_.end() || !it->second.ok) return;  // sticky first violation
    it->second.ok = false;
    it->second.first_violation = txn;
    it->second.explanation = crooks::to_string(txn) + ": " + why;
    explanation = &it->second.explanation;
  }
  count_violation(level, stream_.session(d));
  if (obs::Trace::active()) {
    obs::Trace::event("online.violation",
                      obs::TraceFields()
                          .add("level", ct::name_of(level))
                          .add("txn", crooks::to_string(txn))
                          .add("why", *explanation));
  }
  if (violation_hook_) violation_hook_({level, txn, d, other, why});
}

bool OnlineChecker::append(const Transaction& txn) {
  if (txn.id() == kInitTxn || stream_.txns().contains(txn.id())) {
    ++stats_.duplicates_ignored;
    online_duplicates_total().inc();
    return false;
  }
  ingest(stream_.extend(txn));
  return true;
}

std::size_t OnlineChecker::append_all(std::span<const Transaction> block) {
  append_fresh_.clear();
  append_fresh_.reserve(block.size());
  append_seen_.clear();
  for (const Transaction& t : block) {
    if (t.id() == kInitTxn || stream_.txns().contains(t.id()) ||
        !append_seen_.insert(t.id()).second) {
      ++stats_.duplicates_ignored;
      online_duplicates_total().inc();
      continue;
    }
    append_fresh_.push_back(t);
  }
  if (append_fresh_.empty()) return 0;
  ingest(stream_.extend(append_fresh_));
  return append_fresh_.size();
}

std::size_t OnlineChecker::append_all(const model::TransactionSet& txns) {
  const std::vector<Transaction> block(txns.begin(), txns.end());
  return append_all(std::span<const Transaction>(block));
}

void OnlineChecker::ingest(const model::CompiledDelta& delta) {
  obs::TraceSpan span("online.ingest");
  obs::ScopedTimer timer(online_block_seconds());
  ++stats_.blocks;
  stats_.compiled_appends += delta.count;
  if (obs::enabled()) {
    online_blocks_total().inc();
    online_txns_total().inc(delta.count);
  }
  span.field("first", static_cast<std::uint64_t>(delta.first))
      .field("count", static_cast<std::uint64_t>(delta.count))
      .field("stream_size", static_cast<std::uint64_t>(stream_.size()));
  timelines_.resize(stream_.key_count());
  max_dropped_pos_.resize(stream_.key_count(), 0);

  // Evaluate the block's transactions one by one in dense (= apply) order.
  for (TxnIdx d = delta.first; d < delta.first + delta.count; ++d) evaluate(d);
  maybe_retire();
}

void OnlineChecker::evaluate(TxnIdx d) {
  // When d is evaluated only [0, d) is installed, so "has the observed
  // writer been applied yet" is the dense compare `writer < d` — exact for
  // prefix writers, earlier block members, and intra-block forward
  // references alike. d installs state d + 1; its parent is state d.
  const StateIndex parent = static_cast<StateIndex>(d);
  const model::OpsView cops = stream_.ops(d);
  stats_.ops_evaluated += cops.size();

  // Read-state views. Each op's start comes from flags and dense compares
  // alone: 0 for writes, internal reads and reads of the initial version,
  // writer+1 for an applied member version. PREREAD emptiness is likewise a
  // flags fact — an applied member version's interval {writer+1,
  // min(next_write-1, parent)} is never empty (upper_bound guarantees
  // next_write > writer+1 and writer < d gives writer+1 ≤ parent), and the
  // initial version's {0, ...} always admits 0. Only the interval ENDS need
  // the timeline binary search, and only SER and the SI family read them.
  starts_.assign(cops.size(), 0);
  bool preread = true;
  StateIndex complete_lo = 0, complete_hi = parent;
  for (std::size_t i = 0; i < cops.size(); ++i) {
    StateIndex version_pos = 0;
    switch (cops.cls(i)) {
      case model::OpClass::kWrite:
      case model::OpClass::kReadInternal:
        continue;  // {0, parent}
      case model::OpClass::kReadNever:
        preread = false;
        continue;
      case model::OpClass::kReadInitial:
        break;
      case model::OpClass::kReadExternal:
        if (cops.writer(i) >= d) {  // writer not applied yet: reads from the future
          preread = false;
          continue;
        }
        version_pos = static_cast<StateIndex>(cops.writer(i)) + 1;
        break;
    }
    starts_[i] = version_pos;
    if (!interval_ends_) continue;
    complete_lo = std::max(complete_lo, version_pos);
    const model::KeyIdx k = cops.key(i);
    // Folds drop a key's inner retired versions. A read at or above the
    // largest dropped position reconstructs its interval exactly from the
    // kept entries; below it the true next-write may be gone, the interval
    // comes out too permissive, and every downstream clause errs on the
    // lenient side — count the one-sided evaluation.
    if (version_pos < max_dropped_pos_[k]) {
      ++stats_.past_window_reads;
      if (obs::enabled()) online_past_reads_total().inc();
    }
    if (const auto* tl = timeline_of(k)) {
      auto it = std::upper_bound(
          tl->begin(), tl->end(), version_pos,
          [](StateIndex v, const auto& en) { return v < en.first; });
      if (it != tl->end()) complete_hi = std::min(complete_hi, it->first - 1);
    }
  }
  if (!preread) {
    complete_hi = -1;  // an empty read-state set admits no state
    for (IsolationLevel l : {IsolationLevel::kReadCommitted, IsolationLevel::kReadAtomic,
                             IsolationLevel::kPSI}) {
      if (tracks(l, d)) violate(l, d, "PREREAD fails in the apply order");
    }
  }

  // Fractured reads (RA). Under PREREAD the external reads are exactly the
  // reads of an applied member writer.
  if (preread && tracks(IsolationLevel::kReadAtomic, d)) {
    for (std::size_t i = 0; i < cops.size(); ++i) {
      if (cops.cls(i) != model::OpClass::kReadExternal) continue;
      const TxnIdx w1 = cops.writer(i);
      for (std::size_t j = 0; j < cops.size(); ++j) {
        if (cops.is_write(j) || cops.internal(j)) continue;
        if (stream_.writes_key(w1, cops.key(j)) && starts_[i] > starts_[j]) {
          violate(IsolationLevel::kReadAtomic, d,
                  "fractured read across " + crooks::to_string(stream_.id_of(w1)) +
                      "'s writes",
                  w1);
        }
      }
    }
  }

  // CAUS-VIS (PSI). Build the transitive PREC set from placed predecessors.
  // Assigned mode builds the set for EVERY transaction (preread permitting):
  // a PSI-level transaction arriving in a later block absorbs its
  // predecessors' closures, whatever levels those ran at.
  PrecSet p;
  const bool psi = tracks(IsolationLevel::kPSI, d);
  if (preread && (psi || assigned_mode_)) {
    p.recent.grow(static_cast<std::size_t>(d) - prec_origin_ + 1);
    for (std::size_t i = 0; i < cops.size(); ++i) {
      if (cops.cls(i) == model::OpClass::kReadExternal) prec_absorb(p, cops.writer(i));
    }
    for (model::KeyIdx k : stream_.write_keys(d)) {
      if (const auto* tl = timeline_of(k)) {
        for (const auto& [pos, slot] : *tl) prec_absorb(p, slot);
      }
    }
  }
  // The visibility check itself applies only when THIS transaction runs at
  // PSI. Under PREREAD every surviving read is of the initial or an applied
  // member version, whose interval start decides timeline visibility: entry
  // pos > rs.last ⟺ pos > rs.first, because entries at pos ≤ rs.last are
  // exactly those at pos ≤ rs.first (upper_bound picks the first entry past
  // the version) and no installed entry exceeds parent.
  if (preread && psi) {
    for (std::size_t i = 0; i < cops.size(); ++i) {
      if (cops.is_write(i) || cops.internal(i)) continue;
      const model::KeyIdx k = cops.key(i);
      // A start-only checker computed no interval ends, so the stale read
      // is counted here, where its dropped versions may hide a missed write.
      if (!interval_ends_ && starts_[i] < max_dropped_pos_[k]) {
        ++stats_.past_window_reads;
        if (obs::enabled()) online_past_reads_total().inc();
      }
      if (const auto* tl = timeline_of(k)) {
        for (const auto& [pos, slot] : *tl) {
          if (pos > starts_[i] && prec_test(p, slot)) {
            violate(IsolationLevel::kPSI, d,
                    "CAUS-VIS fails: misses " +
                        crooks::to_string(stream_.id_of(static_cast<TxnIdx>(slot))) +
                        "'s write to " +
                        crooks::to_string(stream_.keys().key_of(k)),
                    static_cast<TxnIdx>(slot));
          }
        }
      }
    }
  }

  // A start-only checker tracks none of the levels with snapshot or
  // real-time clauses.
  if (interval_ends_) {
    check_snapshot(d, complete_lo, complete_hi);
    if (assigned_mode_) applied_mask_ |= level_bit(assigned_level_of(d));
    check_retroactive_inversions(d);
  }

  // Install.
  for (model::KeyIdx k : stream_.write_keys(d)) {
    timelines_[k].emplace_back(parent + 1, static_cast<std::size_t>(d));
  }
  const SessionId s = stream_.session(d);
  if (s != kNoSession) session_states_[s].states.push_back(parent + 1);
  max_start_applied_ = std::max(max_start_applied_, stream_.start_ts(d));
  prec_bytes_ += prec_bytes(p);
  precs_.push_back(std::move(p));
}

void OnlineChecker::check_snapshot(TxnIdx d, StateIndex complete_lo,
                                   StateIndex complete_hi) {
  const StateIndex parent = static_cast<StateIndex>(d);
  // Serializability: the parent state must be complete.
  const bool parent_complete = complete_lo <= parent && complete_hi >= parent;
  if (tracks(IsolationLevel::kSerializable, d) && !parent_complete) {
    violate(IsolationLevel::kSerializable, d,
            "parent state is not complete in the apply order");
  }
  // Strict serializability is gated like the timed SI levels below: without
  // timestamps its real-time clause would hold only vacuously.
  const bool timestamped = stream_.has_timestamps(d);
  if (tracks(IsolationLevel::kStrictSerializable, d) &&
      !(timestamped && parent_complete)) {
    violate(IsolationLevel::kStrictSerializable, d,
            timestamped ? "parent state is not complete in the apply order"
                        : "requires the time oracle");
  }

  // The snapshot family.
  const IsolationLevel si_family[] = {IsolationLevel::kAdyaSI, IsolationLevel::kAnsiSI,
                                      IsolationLevel::kSessionSI,
                                      IsolationLevel::kStrongSI};
  StateIndex no_conf = 0;
  for (model::KeyIdx k : stream_.write_keys(d)) {
    if (const auto* tl = timeline_of(k)) {
      no_conf = std::max(no_conf, tl->back().first);
    }
  }
  // Real-time recency bound: # applied transactions with commit < start(d).
  // A timed level that is still alive has already enforced, at every prior
  // append, that the applied stream is fully timestamped (time-oracle clause)
  // and in strictly increasing commit order (C-ORD clause) — so an O(n)
  // time_precedes scan collapses to one binary search over the dense
  // prefix. Computed lazily: only timed levels that survive their
  // preconditions need it, and only they may trust it.
  //
  // Assigned mode voids the sorted invariant: untimed-level transactions
  // interleave (their kNoTimestamp never tripped any clause), so the
  // real-time bounds fall back to linear scans over the prefix. Only
  // timed-level transactions in a mixed stream pay that cost.
  const Timestamp start_t = stream_.start_ts(d);
  StateIndex pos_cache = -1;
  auto applied_before_start = [&]() -> StateIndex {
    if (pos_cache < 0) {
      if (assigned_mode_) {
        // Largest applied state whose generator time-precedes d. On a sorted
        // timed prefix this equals the binary-search count below; on a mixed
        // prefix the transactions that time-precede d need not form a
        // prefix, and the max is the correct snapshot lower bound.
        StateIndex max_state = 0;
        for (TxnIdx q = 0; q < d; ++q) {
          if (stream_.commit_ts(q) != kNoTimestamp &&
              stream_.commit_ts(q) < start_t) {
            max_state = std::max(max_state, static_cast<StateIndex>(q) + 1);
          }
        }
        pos_cache = max_state;
      } else {
        std::size_t lo = 0, hi = static_cast<std::size_t>(d);
        while (lo < hi) {
          const std::size_t mid = lo + (hi - lo) / 2;
          if (stream_.commit_ts(static_cast<TxnIdx>(mid)) < start_t) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        pos_cache = static_cast<StateIndex>(lo);
      }
    }
    return pos_cache;
  };
  // s > 0 is admissible for a timed level iff its generating transaction
  // (dense s-1) real-time-precedes d.
  auto generator_precedes = [&](StateIndex s) {
    const TxnIdx g = static_cast<TxnIdx>(s - 1);
    return stream_.commit_ts(g) != kNoTimestamp && stream_.commit_ts(g) < start_t;
  };
  for (IsolationLevel level : si_family) {
    if (!tracks(level, d) || !status_ok(level)) continue;
    const bool timed = level != IsolationLevel::kAdyaSI;
    if (timed && !stream_.has_timestamps(d)) {
      violate(level, d, "requires the time oracle");
      continue;
    }
    if (timed && d > 0) {
      // In uniform mode the parent is necessarily timestamped (an untimed
      // parent already killed the level), so the kNoTimestamp conjunct only
      // bites in assigned mode, where an untimed parent IS out of commit
      // order for this execution (kNoTimestamp = INT64_MIN would otherwise
      // slip past the `<`).
      if (!(stream_.commit_ts(d - 1) != kNoTimestamp &&
            stream_.commit_ts(d - 1) < stream_.commit_ts(d))) {
        violate(level, d, "C-ORD fails: applied out of commit order", d - 1);
        continue;
      }
    }
    StateIndex lower = 0;
    if (level == IsolationLevel::kStrongSI) {
      lower = applied_before_start();
    } else if (level == IsolationLevel::kSessionSI &&
               stream_.session(d) != kNoSession) {
      if (auto sit = session_states_.find(stream_.session(d));
          sit != session_states_.end()) {
        const SessionRec& rec = sit->second;
        if (assigned_mode_) {
          // Largest same-session state whose generator time-precedes d —
          // the sorted-prefix shortcut below is not available here. The
          // retired marker's generator timestamps are retained columns, so
          // it participates exactly.
          for (StateIndex s : rec.states) {
            if (s > 0 && generator_precedes(s)) lower = std::max(lower, s);
          }
          if (rec.marker > 0 && generator_precedes(rec.marker)) {
            lower = std::max(lower, rec.marker);
          }
        } else {
          // Largest applied same-session state within the real-time prefix.
          const StateIndex pos = applied_before_start();
          auto it = std::upper_bound(rec.states.begin(), rec.states.end(), pos);
          if (it != rec.states.begin()) lower = *(it - 1);
          if (rec.marker <= pos) lower = std::max(lower, rec.marker);
        }
        // Session states dropped past the marker can only have RAISED the
        // bound; once any kept candidate reaches the marker they are all
        // dominated. Below it, this check is one-sided — count it.
        if (rec.dropped_any && lower < rec.marker) {
          ++stats_.past_window_checks;
          if (obs::enabled()) online_past_checks_total().inc();
        }
      }
    }
    const StateIndex lo = std::max({complete_lo, no_conf, lower});
    const StateIndex hi = std::min(complete_hi, parent);
    // ∃ admissible s ∈ [lo, hi]: s == 0 always qualifies; a timed level also
    // accepts any s whose generating transaction real-time-precedes d, i.e.
    // s ≤ applied_before_start() — so the descending scan reduces to bounds.
    bool ok = hi >= lo;
    if (ok && timed && lo > 0) {
      if (assigned_mode_) {
        // Mixed prefix: admissibility is not downward closed — scan.
        ok = false;
        for (StateIndex s = hi; s >= lo && !ok; --s) ok = generator_precedes(s);
      } else {
        ok = lo <= applied_before_start();
      }
    }
    if (!ok) {
      violate(level, d, "no admissible snapshot state in the apply order");
    }
  }
}

void OnlineChecker::prec_absorb(PrecSet& p, std::size_t slot) {
  prec_add(p, slot);
  if (slot >= placed_base_) {
    const PrecSet& w = prec_of(slot);
    // Same origin on both sides, so the word-wise OR is a straight union;
    // w's bitset never exceeds p's (w placed earlier, p grown to cover d).
    p.recent.or_with(w.recent);
    for (std::size_t s : w.old) prec_add(p, s);
    return;
  }
  // Retired base slot: its closure, restricted to still-testable slots,
  // was summarized into base_prec_ at fold time. A key's base writer
  // absorbed every older writer of that key when it was placed, so this
  // covers the dropped writers transitively — the write-side absorb over a
  // folded timeline loses nothing.
  if (auto it = base_prec_.find(slot); it != base_prec_.end()) {
    for (std::size_t s : it->second) prec_add(p, s);
    return;
  }
  // Retired and no longer any key's base writer: its closure summary is
  // gone (only a read of a doubly-superseded version gets here). The PREC
  // set comes out a subset of the truth — one-sided, counted.
  ++stats_.past_window_checks;
  if (obs::enabled()) online_past_checks_total().inc();
}

void OnlineChecker::maybe_retire() {
  if (!window_.enabled() || precs_.empty()) return;
  std::size_t target = static_cast<std::size_t>(-1);
  if (window_.max_resident_txns != 0) target = window_.max_resident_txns;
  if (window_.max_resident_bytes != 0) {
    const std::size_t est = resident_bytes();
    if (est > window_.max_resident_bytes) {
      const std::size_t per = std::max<std::size_t>(est / precs_.size(), 1);
      target = std::min(
          target, std::max<std::size_t>(window_.max_resident_bytes / per, 16));
    }
  }
  if (precs_.size() <= target) return;
  std::size_t wm = stream_.size() - target;
  // Never retire a session's most recently applied transaction: a stalled
  // session pins the window (memory grows until it commits again) instead
  // of degrading its own recency verdicts.
  for (const auto& [sid, rec] : session_states_) {
    if (!rec.states.empty()) {
      wm = std::min(wm, static_cast<std::size_t>(rec.states.back()) - 1);
    }
  }
  // Hysteresis: a fold costs O(resident), so advance in quarter-window
  // steps — resident memory peaks at ~1.25× the target between folds.
  const std::size_t min_advance = std::max<std::size_t>(target / 4, 1);
  if (wm < placed_base_ + min_advance) return;
  fold_to(static_cast<TxnIdx>(wm));
}

void OnlineChecker::fold_to(TxnIdx upto) {
  obs::TraceSpan span("online.fold");
  const std::size_t M = static_cast<std::size_t>(upto);
  const std::size_t erase_n = M - placed_base_;

  // 1. Timelines: drop entries before the watermark, keeping each key's
  // newest retired writer as its base entry (NO-CONF's back() and the
  // CAUS-VIS walk stay exact for it); remember the largest dropped position
  // — reads of versions below it are the window's only read-side loss.
  std::vector<std::size_t> base_slots;
  for (std::size_t k = 0; k < timelines_.size(); ++k) {
    auto& tl = timelines_[k];
    if (tl.empty()) continue;
    // Entries are appended in apply order, so slots ascend.
    const auto cut = std::partition_point(
        tl.begin(), tl.end(), [&](const auto& en) { return en.second < M; });
    const std::size_t split = static_cast<std::size_t>(cut - tl.begin());
    if (split == 0) continue;
    if (split >= 2) {
      max_dropped_pos_[k] = std::max(max_dropped_pos_[k], tl[split - 2].first);
      tl.erase(tl.begin(), tl.begin() + static_cast<std::ptrdiff_t>(split - 1));
    }
    base_slots.push_back(tl.front().second);
  }
  std::sort(base_slots.begin(), base_slots.end());
  base_slots.erase(std::unique(base_slots.begin(), base_slots.end()),
                   base_slots.end());

  // 2. Retired closures: for every slot surviving as a base slot, keep
  // closure ∩ base slots — the only memberships a future test can ask for.
  // Newly retired slots harvest from their (still resident) PREC sets;
  // carried-over base slots prune their existing summaries.
  std::unordered_map<std::size_t, std::vector<std::size_t>> new_bp;
  new_bp.reserve(base_slots.size());
  for (std::size_t b : base_slots) {
    std::vector<std::size_t> closure;
    if (b >= placed_base_) {
      const PrecSet& pb = prec_of(b);
      // An empty set has nothing to harvest. Every set is empty unless PSI
      // is tracked or the checker is in assigned mode, and the scan below is
      // O(base slots) per base slot: most of a weak checker's fold time.
      if (pb.recent.size() != 0 || !pb.old.empty()) {
        for (std::size_t s : base_slots) {
          if (s != b && prec_test(pb, s)) closure.push_back(s);
        }
      }
    } else if (auto it = base_prec_.find(b); it != base_prec_.end()) {
      closure = std::move(it->second);
      intersect_sorted(closure, base_slots);
    }
    new_bp.emplace(b, std::move(closure));
  }
  base_prec_ = std::move(new_bp);

  // 3. Sessions: state s was generated by dense slot s-1, so states ≤ M are
  // retired. Keep the largest as the recency marker; mark the record lossy
  // once anything beyond the marker is dropped.
  for (auto& [sid, rec] : session_states_) {
    auto& st = rec.states;
    const auto cut =
        std::upper_bound(st.begin(), st.end(), static_cast<StateIndex>(M));
    const std::size_t nret = static_cast<std::size_t>(cut - st.begin());
    if (nret == 0) continue;
    if (rec.marker > 0 || nret > 1) rec.dropped_any = true;
    rec.marker = st[nret - 1];
    st.erase(st.begin(), cut);
  }

  // 4. Surviving PREC sets: shift the origin by whole words, harvesting
  // dropped closure members that are still base slots into `old` and
  // discarding the rest (they can never be tested again).
  const std::size_t new_origin = (M / 64) * 64;
  const std::size_t dwords = (new_origin - prec_origin_) / 64;
  for (std::size_t i = erase_n; i < precs_.size(); ++i) {
    PrecSet& p = precs_[i];
    intersect_sorted(p.old, base_slots);
    if (dwords != 0) {
      p.recent.drop_words(dwords, [&](std::size_t idx) {
        const std::size_t slot = prec_origin_ + idx;
        if (std::binary_search(base_slots.begin(), base_slots.end(), slot)) {
          auto it = std::lower_bound(p.old.begin(), p.old.end(), slot);
          if (it == p.old.end() || *it != slot) p.old.insert(it, slot);
        }
      });
    }
  }

  // 5. Reclaim the placed prefix and re-measure the resident estimate.
  precs_.erase(precs_.begin(), precs_.begin() + static_cast<std::ptrdiff_t>(erase_n));
  if (precs_.capacity() > 2 * precs_.size() + 1024) precs_.shrink_to_fit();
  placed_base_ = M;
  prec_origin_ = new_origin;
  prec_bytes_ = 0;
  for (const PrecSet& p : precs_) prec_bytes_ += prec_bytes(p);

  // 6. Fold the compiled stream itself (op rows, masks, payloads, pending).
  const model::CompiledHistory::RetireStats rs = stream_.retire(upto);
  ++stats_.window_folds;
  stats_.retired_txns += rs.txns;
  stats_.retired_ops += rs.ops;
  if (obs::enabled()) {
    online_folds_total().inc();
    online_retired_txns_total().inc(rs.txns);
    online_retired_ops_total().inc(rs.ops);
    online_fold_txns_hist().observe(static_cast<double>(rs.txns));
    online_watermark_gauge().set(static_cast<std::int64_t>(M));
    online_resident_txns_gauge().set(static_cast<std::int64_t>(precs_.size()));
    online_resident_ops_gauge().set(
        static_cast<std::int64_t>(stream_.resident_ops()));
  }
  span.field("watermark", static_cast<std::uint64_t>(M))
      .field("retired", static_cast<std::uint64_t>(rs.txns))
      .field("resident", static_cast<std::uint64_t>(precs_.size()));
}

void OnlineChecker::check_retroactive_inversions(TxnIdx d) {
  // A late-arriving transaction that committed before an already-applied
  // transaction *started* retroactively violates the real-time clauses of
  // strict serializability and Strong SI (and Session SI within a session).
  const Timestamp commit_d = stream_.commit_ts(d);
  if (commit_d == kNoTimestamp) return;
  // ∃ applied q with commit(d) < start(q) ⟺ commit(d) < max applied start —
  // on a monotone stream (the common case) this skips the O(n) scan entirely.
  if (!(commit_d < max_start_applied_)) return;

  // An inversion hits the applied transaction q at the levels q is
  // evaluated at: every tracked level in uniform mode, q's OWN level in
  // assigned mode — where applied_mask_ skips the scan when no applied
  // transaction holds a real-time/session clause.
  auto live = [&](IsolationLevel l) {
    if (assigned_mode_) return assigned_status_.ok && (applied_mask_ & level_bit(l)) != 0;
    auto it = statuses_.find(l);
    return it != statuses_.end() && it->second.ok;
  };
  if (!live(IsolationLevel::kStrictSerializable) && !live(IsolationLevel::kStrongSI) &&
      !live(IsolationLevel::kSessionSI)) {
    return;
  }

  const TxnId late_id = stream_.id_of(d);
  const SessionId late_session = stream_.session(d);
  // Scan the WHOLE applied stream, retired prefix included: timestamps,
  // sessions, ids and level tags are retained columns, so retroactive
  // inversions stay exact past the watermark.
  for (TxnIdx q = 0; q < d; ++q) {
    if (!stream_.time_precedes(d, q)) continue;
    if (tracks(IsolationLevel::kStrictSerializable, q)) {
      violate(IsolationLevel::kStrictSerializable, q,
              "real-time predecessor " + crooks::to_string(late_id) +
                  " was applied after it",
              d);
    }
    if (tracks(IsolationLevel::kStrongSI, q)) {
      violate(IsolationLevel::kStrongSI, q,
              "snapshot misses " + crooks::to_string(late_id) +
                  ", which committed before it started",
              d);
    }
    if (tracks(IsolationLevel::kSessionSI, q) && stream_.session(q) != kNoSession &&
        stream_.session(q) == late_session) {
      violate(IsolationLevel::kSessionSI, q,
              "session predecessor " + crooks::to_string(late_id) +
                  " was applied after it",
              d);
    }
  }
}

}  // namespace crooks::checker
