// Frozen hash-based reference engine — see reference.hpp for why this exists.
//
// The search is a verbatim copy of the pre-compile sequential PrefixSearch:
// per-key timelines / version orders live in unordered_maps keyed by Key,
// every read resolves its writer through txns.contains() + by_id() +
// dense_index_of() hash probes at every search node, internality is
// re-derived by rescanning earlier ops, and the real-time/session
// predecessor lists are built by the O(n²) pairwise loop. Only the parallel
// mode was dropped (the differential tests and the representation ablation
// both want the deterministic sequential engine) and the candidate
// comparator fixed (see reference.hpp).
#include "checker/reference.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "committest/commit_test.hpp"
#include "common/bitset.hpp"

namespace crooks::checker::reference {

namespace {

using ct::IsolationLevel;
using model::Operation;
using model::Transaction;

class HashedPrefixSearch {
 public:
  HashedPrefixSearch(IsolationLevel level, const model::TransactionSet& txns,
                     const CheckOptions& opts)
      : level_(level), txns_(&txns), max_nodes_(opts.max_nodes), n_(txns.size()) {
    if (opts.version_order != nullptr) {
      for (const auto& [key, installers] : *opts.version_order) {
        auto& seq = vo_[key];
        for (TxnId id : installers) {
          if (txns.contains(id)) seq.push_back(txns.dense_index_of(id));
        }
      }
      vo_next_.reserve(vo_.size());
      for (const auto& [key, seq] : vo_) vo_next_[key] = 0;
    }
    pos_.assign(n_, 0);
    prec_.assign(n_, DynamicBitset(n_));
    remaining_rt_.assign(n_, 0);
    remaining_sess_.assign(n_, 0);
    rt_preds_.resize(n_);
    sess_preds_.resize(n_);
    rt_succs_.resize(n_);
    sess_succs_.resize(n_);

    for (std::size_t a = 0; a < n_; ++a) {
      for (std::size_t b = 0; b < n_; ++b) {
        if (a == b) continue;
        const Transaction& ta = txns.at(a);
        const Transaction& tb = txns.at(b);
        if (time_precedes(ta, tb)) {
          rt_preds_[b].push_back(a);
          rt_succs_[a].push_back(b);
          if (ta.session() != kNoSession && ta.session() == tb.session()) {
            sess_preds_[b].push_back(a);
            sess_succs_[a].push_back(b);
          }
        }
      }
      remaining_rt_[a] = rt_preds_[a].size();
      remaining_sess_[a] = sess_preds_[a].size();
    }

    // Candidate order: timestamped transactions first in commit-timestamp
    // order, untimestamped after in declaration order (the fixed strict
    // total order; matches CompiledHistory::ts_order()).
    candidates_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) candidates_[i] = i;
    std::sort(candidates_.begin(), candidates_.end(),
              [&](std::size_t a, std::size_t b) {
                const Timestamp ca = txns.at(a).commit_ts();
                const Timestamp cb = txns.at(b).commit_ts();
                const bool at = ca != kNoTimestamp;
                const bool bt = cb != kNoTimestamp;
                if (at != bt) return at;
                if (at && ca != cb) return ca < cb;
                return a < b;
              });
  }

  CheckResult run() {
    if (auto pre = timestamps_precheck()) return *std::move(pre);
    if (dfs()) {
      std::vector<TxnId> ids;
      ids.reserve(order_.size());
      for (std::size_t d : order_) ids.push_back(txns_->at(d).id());
      return {Outcome::kSatisfiable, model::Execution(*txns_, std::move(ids)),
              "witness found by exhaustive search", nodes_};
    }
    if (nodes_ >= max_nodes_) {
      return {Outcome::kUnknown, std::nullopt, "search budget exhausted", nodes_};
    }
    return {Outcome::kUnsatisfiable, std::nullopt,
            "exhaustive search: no execution satisfies the commit test", nodes_};
  }

 private:
  struct OpInterval {
    StateIndex sf = 0;
    StateIndex sl = -1;
    bool empty() const { return sf > sl; }
  };

  std::optional<CheckResult> timestamps_precheck() const {
    if (!ct::requires_timestamps(level_)) return std::nullopt;
    for (const Transaction& t : *txns_) {
      if (!t.has_timestamps()) {
        return CheckResult{Outcome::kUnsatisfiable, std::nullopt,
                           std::string(ct::name_of(level_)) +
                               " requires the time oracle but " +
                               crooks::to_string(t.id()) + " has no timestamps",
                           0};
      }
    }
    return std::nullopt;
  }

  bool placed(std::size_t d) const { return pos_[d] != 0; }

  const std::vector<std::pair<StateIndex, std::size_t>>& timeline(Key k) const {
    static const std::vector<std::pair<StateIndex, std::size_t>> kEmpty;
    auto it = timelines_.find(k);
    return it == timelines_.end() ? kEmpty : it->second;
  }

  OpInterval interval_of(std::size_t d, std::size_t i, StateIndex parent) const {
    const Transaction& t = txns_->at(d);
    const Operation& op = t.ops()[i];
    if (op.is_write()) return {0, parent};
    if (op.value.phantom) return {0, -1};

    for (std::size_t j = 0; j < i; ++j) {
      const Operation& prev = t.ops()[j];
      if (prev.is_write() && prev.key == op.key) {
        return op.value.writer == t.id() ? OpInterval{0, parent} : OpInterval{0, -1};
      }
    }

    const TxnId w = op.value.writer;
    if (w == t.id()) return {0, -1};
    StateIndex version_pos = 0;
    if (w != kInitTxn) {
      if (!txns_->contains(w)) return {0, -1};
      const std::size_t wd = txns_->dense_index_of(w);
      if (!placed(wd) || !txns_->at(wd).writes(op.key)) return {0, -1};
      version_pos = pos_[wd];
    }
    const auto& tl = timeline(op.key);
    auto it = std::upper_bound(
        tl.begin(), tl.end(), version_pos,
        [](StateIndex v, const auto& en) { return v < en.first; });
    const StateIndex next_write = it == tl.end() ? parent + 2 : it->first;
    return {version_pos, std::min(next_write - 1, parent)};
  }

  bool is_internal(std::size_t d, std::size_t i) const {
    const Transaction& t = txns_->at(d);
    for (std::size_t j = 0; j < i; ++j) {
      if (t.ops()[j].is_write() && t.ops()[j].key == t.ops()[i].key) return true;
    }
    return false;
  }

  bool vo_admissible(std::size_t d) const {
    if (vo_.empty()) return true;
    for (Key k : txns_->at(d).write_set()) {
      auto it = vo_.find(k);
      if (it == vo_.end()) continue;
      const std::size_t next = vo_next_.at(k);
      if (next >= it->second.size() || it->second[next] != d) return false;
    }
    return true;
  }

  bool admissible(std::size_t d) {
    const Transaction& t = txns_->at(d);
    const StateIndex parent = static_cast<StateIndex>(order_.size());
    const std::size_t nops = t.ops().size();
    scratch_.resize(nops);

    bool preread = true;
    StateIndex complete_lo = 0, complete_hi = parent;
    for (std::size_t i = 0; i < nops; ++i) {
      scratch_[i] = interval_of(d, i, parent);
      if (scratch_[i].empty()) preread = false;
      complete_lo = std::max(complete_lo, scratch_[i].sf);
      complete_hi = std::min(complete_hi, scratch_[i].sl);
    }

    switch (level_) {
      case IsolationLevel::kReadUncommitted:
        return true;
      case IsolationLevel::kReadCommitted:
        return preread;
      case IsolationLevel::kReadAtomic:
        return preread && !fractured(d);
      case IsolationLevel::kPSI:
        return preread && caus_vis(d);
      case IsolationLevel::kSerializable:
        return complete_lo <= parent && complete_hi >= parent;
      case IsolationLevel::kStrictSerializable:
        return complete_lo <= parent && complete_hi >= parent &&
               remaining_rt_[d] == 0;
      case IsolationLevel::kAdyaSI:
      case IsolationLevel::kAnsiSI:
      case IsolationLevel::kSessionSI:
      case IsolationLevel::kStrongSI:
        return si_family(d, parent, complete_lo, complete_hi);
    }
    return false;
  }

  bool fractured(std::size_t d) const {
    const Transaction& t = txns_->at(d);
    for (std::size_t i = 0; i < t.ops().size(); ++i) {
      const Operation& r1 = t.ops()[i];
      if (!r1.is_read() || is_internal(d, i)) continue;
      if (r1.value.writer == kInitTxn) continue;
      const Transaction& w1 = txns_->by_id(r1.value.writer);
      for (std::size_t j = 0; j < t.ops().size(); ++j) {
        const Operation& r2 = t.ops()[j];
        if (!r2.is_read() || is_internal(d, j)) continue;
        if (w1.writes(r2.key) && scratch_[i].sf > scratch_[j].sf) return true;
      }
    }
    return false;
  }

  bool caus_vis(std::size_t d) {
    const Transaction& t = txns_->at(d);
    DynamicBitset& prec = prec_[d];
    prec = DynamicBitset(n_);
    auto absorb = [&](std::size_t pd) {
      prec.set(pd);
      prec.or_with(prec_[pd]);
    };
    for (std::size_t i = 0; i < t.ops().size(); ++i) {
      const Operation& op = t.ops()[i];
      if (!op.is_read() || is_internal(d, i)) continue;
      if (op.value.writer == kInitTxn) continue;
      absorb(txns_->dense_index_of(op.value.writer));  // placed: preread holds
    }
    for (Key k : t.write_set()) {
      for (const auto& [pos, wd] : timeline(k)) absorb(wd);
    }
    for (std::size_t i = 0; i < t.ops().size(); ++i) {
      const Operation& op = t.ops()[i];
      if (!op.is_read() || is_internal(d, i)) continue;
      for (const auto& [pos, wd] : timeline(op.key)) {
        if (pos > scratch_[i].sl && prec.test(wd)) return false;
      }
    }
    return true;
  }

  bool si_family(std::size_t d, StateIndex parent, StateIndex complete_lo,
                 StateIndex complete_hi) const {
    const Transaction& t = txns_->at(d);
    const bool timed = level_ != IsolationLevel::kAdyaSI;

    if (timed) {
      if (!order_.empty()) {
        const Transaction& prev = txns_->at(order_.back());
        if (!(prev.commit_ts() < t.commit_ts())) return false;
      }
    }
    if (level_ == IsolationLevel::kStrictSerializable ||
        level_ == IsolationLevel::kStrongSI) {
      if (remaining_rt_[d] != 0) return false;
    }
    if (level_ == IsolationLevel::kSessionSI && remaining_sess_[d] != 0) return false;

    StateIndex lower = 0;
    if (level_ == IsolationLevel::kStrongSI) {
      for (std::size_t p : rt_preds_[d]) lower = std::max(lower, pos_[p]);
    } else if (level_ == IsolationLevel::kSessionSI) {
      for (std::size_t p : sess_preds_[d]) lower = std::max(lower, pos_[p]);
    }

    StateIndex no_conf = 0;
    for (Key k : t.write_set()) {
      const auto& tl = timeline(k);
      if (!tl.empty()) no_conf = std::max(no_conf, tl.back().first);
    }

    const StateIndex lo = std::max({complete_lo, no_conf, lower});
    const StateIndex hi = std::min(complete_hi, parent);
    if (lo > hi) return false;
    if (!timed) return true;

    for (StateIndex s = hi; s >= lo; --s) {
      if (s == 0) return true;
      const Transaction& gen = txns_->at(order_[static_cast<std::size_t>(s) - 1]);
      if (time_precedes(gen, t)) return true;
    }
    return false;
  }

  void place(std::size_t d) {
    order_.push_back(d);
    pos_[d] = static_cast<StateIndex>(order_.size());
    for (Key k : txns_->at(d).write_set()) {
      timelines_[k].emplace_back(pos_[d], d);
      if (auto it = vo_next_.find(k); it != vo_next_.end()) ++it->second;
    }
    for (std::size_t s : rt_succs_[d]) --remaining_rt_[s];
    for (std::size_t s : sess_succs_[d]) --remaining_sess_[s];
  }

  void unplace() {
    const std::size_t d = order_.back();
    order_.pop_back();
    pos_[d] = 0;
    for (Key k : txns_->at(d).write_set()) {
      timelines_[k].pop_back();
      if (auto it = vo_next_.find(k); it != vo_next_.end()) --it->second;
    }
    for (std::size_t s : rt_succs_[d]) ++remaining_rt_[s];
    for (std::size_t s : sess_succs_[d]) ++remaining_sess_[s];
  }

  bool dfs() {
    if (order_.size() == n_) return true;
    if (nodes_ >= max_nodes_) return false;
    for (std::size_t d : candidates_) {
      if (placed(d)) continue;
      ++nodes_;
      if (!vo_admissible(d) || !admissible(d)) continue;
      place(d);
      if (dfs()) return true;
      unplace();
      if (nodes_ >= max_nodes_) return false;
    }
    return false;
  }

  IsolationLevel level_;
  const model::TransactionSet* txns_;
  std::uint64_t max_nodes_;
  std::size_t n_;
  std::uint64_t nodes_ = 0;

  std::vector<std::size_t> candidates_;
  std::vector<std::size_t> order_;
  std::vector<StateIndex> pos_;  // 0 = unplaced, else 1-based state index
  std::unordered_map<Key, std::vector<std::pair<StateIndex, std::size_t>>> timelines_;
  std::unordered_map<Key, std::vector<std::size_t>> vo_;  // install order (dense)
  std::unordered_map<Key, std::size_t> vo_next_;          // next unplaced installer
  std::vector<DynamicBitset> prec_;
  std::vector<std::vector<std::size_t>> rt_preds_, sess_preds_, rt_succs_, sess_succs_;
  std::vector<std::size_t> remaining_rt_, remaining_sess_;
  std::vector<OpInterval> scratch_;
};

// The hashed read-state computation (the pre-compile ReadStateAnalysis
// core): hashed timelines keyed by Key, writer resolution through
// contains()/by_id()/dense_index_of().
struct HashedAnalysis {
  const model::TransactionSet* txns;
  const model::Execution* exec;
  std::unordered_map<Key, std::vector<std::pair<StateIndex, TxnId>>> timelines;

  explicit HashedAnalysis(const model::TransactionSet& t, const model::Execution& e)
      : txns(&t), exec(&e) {
    for (std::size_t j = 0; j < e.order().size(); ++j) {
      const Transaction& w = t.by_id(e.order()[j]);
      const StateIndex pos = static_cast<StateIndex>(j) + 1;
      for (Key k : w.write_set()) {
        auto [it, inserted] = timelines.try_emplace(k);
        if (inserted) it->second.emplace_back(0, kInitTxn);
        it->second.emplace_back(pos, w.id());
      }
    }
  }

  StateInterval read_states_of(const Transaction& t, std::size_t dense,
                               std::size_t op_index) const {
    const Operation& op = t.ops()[op_index];
    const StateIndex parent = exec->parent_of(dense);

    if (op.is_write()) return {0, parent};
    if (op.value.phantom) return {};

    for (std::size_t i = 0; i < op_index; ++i) {
      const Operation& prev = t.ops()[i];
      if (prev.is_write() && prev.key == op.key) {
        if (op.value.writer == t.id()) return {0, parent};
        return {};
      }
    }

    const TxnId writer = op.value.writer;
    if (writer == t.id()) return {};

    StateIndex version_pos = 0;
    if (writer != kInitTxn) {
      if (!txns->contains(writer)) return {};
      const Transaction& w = txns->by_id(writer);
      if (!w.writes(op.key)) return {};
      version_pos = exec->state_of(txns->dense_index_of(writer));
    }

    static const std::vector<std::pair<StateIndex, TxnId>> kInitialOnly{{0, kInitTxn}};
    auto tlit = timelines.find(op.key);
    const auto& tl = tlit == timelines.end() ? kInitialOnly : tlit->second;
    auto it = std::upper_bound(
        tl.begin(), tl.end(), version_pos,
        [](StateIndex v, const auto& en) { return v < en.first; });
    const StateIndex next_write = it == tl.end() ? exec->last_state() + 1 : it->first;
    return StateInterval{version_pos, std::min(next_write - 1, parent)};
  }
};

}  // namespace

CheckResult check_exhaustive_hashed(ct::IsolationLevel level,
                                    const model::TransactionSet& txns,
                                    const CheckOptions& opts) {
  if (txns.empty()) {
    return {Outcome::kSatisfiable, model::Execution::identity(txns),
            "empty transaction set", 0};
  }
  HashedPrefixSearch search(level, txns, opts);
  return search.run();
}

std::vector<std::vector<StateInterval>> read_state_intervals_hashed(
    const model::TransactionSet& txns, const model::Execution& e) {
  HashedAnalysis a(txns, e);
  std::vector<std::vector<StateInterval>> out(txns.size());
  for (std::size_t dense = 0; dense < txns.size(); ++dense) {
    const Transaction& t = txns.at(dense);
    out[dense].resize(t.ops().size());
    for (std::size_t i = 0; i < t.ops().size(); ++i) {
      out[dense][i] = a.read_states_of(t, dense, i);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// OnlineCheckerHashed: the pre-incremental streaming monitor, verbatim.
// ---------------------------------------------------------------------------

OnlineCheckerHashed::OnlineCheckerHashed(std::vector<IsolationLevel> levels) {
  for (IsolationLevel l : levels) statuses_.emplace(l, LevelStatus{});
}

const OnlineCheckerHashed::LevelStatus& OnlineCheckerHashed::status(
    IsolationLevel level) const {
  return statuses_.at(level);
}

bool OnlineCheckerHashed::all_ok() const {
  for (const auto& [level, s] : statuses_) {
    if (!s.ok) return false;
  }
  return true;
}

std::vector<IsolationLevel> OnlineCheckerHashed::surviving_levels() const {
  std::vector<IsolationLevel> out;
  for (const auto& [level, s] : statuses_) {
    if (s.ok) out.push_back(level);
  }
  return out;
}

void OnlineCheckerHashed::violate(IsolationLevel level, TxnId txn, std::string why) {
  auto it = statuses_.find(level);
  if (it == statuses_.end() || !it->second.ok) return;  // sticky first violation
  it->second.ok = false;
  it->second.first_violation = txn;
  it->second.explanation = crooks::to_string(txn) + ": " + std::move(why);
}

OnlineCheckerHashed::OpView OnlineCheckerHashed::analyze_op(const Transaction& t,
                                                            std::size_t op_index,
                                                            StateIndex parent) const {
  const Operation& op = t.ops()[op_index];
  if (op.is_write()) return {{0, parent}, false};
  if (op.value.phantom) return {{0, -1}, false};

  for (std::size_t j = 0; j < op_index; ++j) {
    const Operation& prev = t.ops()[j];
    if (prev.is_write() && prev.key == op.key) {
      return op.value.writer == t.id() ? OpView{{0, parent}, true}
                                       : OpView{{0, -1}, true};
    }
  }

  const TxnId w = op.value.writer;
  if (w == t.id()) return {{0, -1}, false};
  StateIndex version_pos = 0;
  if (w != kInitTxn) {
    auto it = index_.find(w);
    if (it == index_.end() || !txns_[it->second].txn.writes(op.key)) {
      return {{0, -1}, false};
    }
    version_pos = txns_[it->second].state;
  }
  const auto* tl = timeline_of(op.key);
  StateIndex next_write = parent + 2;
  if (tl != nullptr) {
    auto it = std::upper_bound(
        tl->begin(), tl->end(), version_pos,
        [](StateIndex v, const auto& en) { return v < en.first; });
    if (it != tl->end()) next_write = it->first;
  }
  return {{version_pos, std::min(next_write - 1, parent)}, false};
}

bool OnlineCheckerHashed::append(const Transaction& txn) {
  if (index_.contains(txn.id())) return false;

  Placed p;
  p.txn = txn;
  p.state = static_cast<StateIndex>(txns_.size()) + 1;
  const StateIndex parent = p.state - 1;
  p.ops.reserve(txn.ops().size());
  for (std::size_t i = 0; i < txn.ops().size(); ++i) {
    p.ops.push_back(analyze_op(txn, i, parent));
  }

  apply(std::move(p));
  return true;
}

std::size_t OnlineCheckerHashed::append_all(const model::TransactionSet& txns) {
  std::size_t appended = 0;
  for (std::size_t d = 0; d < txns.size(); ++d) {
    if (append(txns.at(d))) ++appended;
  }
  return appended;
}

void OnlineCheckerHashed::apply(Placed p) {
  evaluate_new(p);
  check_retroactive_inversions(p);

  // Install.
  index_.emplace(p.txn.id(), txns_.size());
  for (Key k : p.txn.write_set()) {
    const model::KeyIdx ki = keys_.intern(k);
    if (ki == timelines_.size()) timelines_.emplace_back();
    timelines_[ki].emplace_back(p.state, txns_.size());
  }
  txns_.push_back(std::move(p));
}

void OnlineCheckerHashed::evaluate_new(Placed& p) {
  const Transaction& t = p.txn;
  const StateIndex parent = p.state - 1;

  bool preread = true;
  StateIndex complete_lo = 0, complete_hi = parent;
  for (const OpView& o : p.ops) {
    if (o.rs.empty()) preread = false;
    complete_lo = std::max(complete_lo, o.rs.first);
    complete_hi = std::min(complete_hi, o.rs.last);
  }

  if (!preread) {
    for (IsolationLevel l : {IsolationLevel::kReadCommitted, IsolationLevel::kReadAtomic,
                             IsolationLevel::kPSI}) {
      if (tracking(l)) violate(l, t.id(), "PREREAD fails in the apply order");
    }
  }

  // Fractured reads (RA).
  if (tracking(IsolationLevel::kReadAtomic) && preread) {
    for (std::size_t i = 0; i < t.ops().size(); ++i) {
      const Operation& r1 = t.ops()[i];
      if (!r1.is_read() || p.ops[i].internal || r1.value.writer == kInitTxn) continue;
      auto wit = index_.find(r1.value.writer);
      if (wit == index_.end()) continue;
      const Transaction& w1 = txns_[wit->second].txn;
      for (std::size_t j = 0; j < t.ops().size(); ++j) {
        const Operation& r2 = t.ops()[j];
        if (!r2.is_read() || p.ops[j].internal) continue;
        if (w1.writes(r2.key) && p.ops[i].rs.first > p.ops[j].rs.first) {
          violate(IsolationLevel::kReadAtomic, t.id(),
                  "fractured read across " + crooks::to_string(w1.id()) + "'s writes");
        }
      }
    }
  }

  // CAUS-VIS (PSI). Build the transitive PREC set from placed predecessors.
  if (tracking(IsolationLevel::kPSI) && preread) {
    Placed& self = p;
    self.prec.grow(txns_.size() + 1);
    auto absorb = [&](std::size_t slot) {
      self.prec.set(slot);
      self.prec.or_with(txns_[slot].prec);
    };
    for (std::size_t i = 0; i < t.ops().size(); ++i) {
      const Operation& op = t.ops()[i];
      if (!op.is_read() || p.ops[i].internal || op.value.writer == kInitTxn) continue;
      if (auto it = index_.find(op.value.writer); it != index_.end()) absorb(it->second);
    }
    for (Key k : t.write_set()) {
      if (const auto* tl = timeline_of(k)) {
        for (const auto& [pos, slot] : *tl) absorb(slot);
      }
    }
    for (std::size_t i = 0; i < t.ops().size(); ++i) {
      const Operation& op = t.ops()[i];
      if (!op.is_read() || p.ops[i].internal) continue;
      if (const auto* tl = timeline_of(op.key)) {
        for (const auto& [pos, slot] : *tl) {
          if (pos > p.ops[i].rs.last && self.prec.test(slot)) {
            violate(IsolationLevel::kPSI, t.id(),
                    "CAUS-VIS fails: misses " + crooks::to_string(txns_[slot].txn.id()) +
                        "'s write to " + crooks::to_string(op.key));
          }
        }
      }
    }
  }

  // Serializability: the parent state must be complete.
  const bool parent_complete = complete_lo <= parent && complete_hi >= parent;
  if (tracking(IsolationLevel::kSerializable) && !parent_complete) {
    violate(IsolationLevel::kSerializable, t.id(),
            "parent state is not complete in the apply order");
  }
  if (tracking(IsolationLevel::kStrictSerializable) && !parent_complete) {
    violate(IsolationLevel::kStrictSerializable, t.id(),
            "parent state is not complete in the apply order");
  }

  // The snapshot family.
  const IsolationLevel si_family[] = {IsolationLevel::kAdyaSI, IsolationLevel::kAnsiSI,
                                      IsolationLevel::kSessionSI,
                                      IsolationLevel::kStrongSI};
  StateIndex no_conf = 0;
  for (Key k : t.write_set()) {
    if (const auto* tl = timeline_of(k)) {
      no_conf = std::max(no_conf, tl->back().first);
    }
  }
  for (IsolationLevel level : si_family) {
    if (!tracking(level) || !statuses_.at(level).ok) continue;
    const bool timed = level != IsolationLevel::kAdyaSI;
    if (timed && !t.has_timestamps()) {
      violate(level, t.id(), "requires the time oracle");
      continue;
    }
    if (timed && !txns_.empty()) {
      const Transaction& prev = txns_.back().txn;
      if (!(prev.commit_ts() < t.commit_ts())) {
        violate(level, t.id(), "C-ORD fails: applied out of commit order");
        continue;
      }
    }
    StateIndex lower = 0;
    if (level == IsolationLevel::kStrongSI || level == IsolationLevel::kSessionSI) {
      for (const Placed& q : txns_) {
        if (!time_precedes(q.txn, t)) continue;
        if (level == IsolationLevel::kSessionSI &&
            (t.session() == kNoSession || q.txn.session() != t.session())) {
          continue;
        }
        lower = std::max(lower, q.state);
      }
    }
    const StateIndex lo = std::max({complete_lo, no_conf, lower});
    const StateIndex hi = std::min(complete_hi, parent);
    bool ok = false;
    for (StateIndex s = hi; s >= lo; --s) {
      if (s == 0) {
        ok = true;
        break;
      }
      if (!timed || time_precedes(txns_[static_cast<std::size_t>(s) - 1].txn, t)) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      violate(level, t.id(), "no admissible snapshot state in the apply order");
    }
  }
}

void OnlineCheckerHashed::check_retroactive_inversions(const Placed& p) {
  // A late-arriving transaction that committed before an already-applied
  // transaction *started* retroactively violates the real-time clauses of
  // strict serializability and Strong SI (and Session SI within a session).
  const Transaction& late = p.txn;
  if (late.commit_ts() == kNoTimestamp) return;
  for (const Placed& q : txns_) {
    if (!time_precedes(late, q.txn)) continue;
    if (tracking(IsolationLevel::kStrictSerializable)) {
      violate(IsolationLevel::kStrictSerializable, q.txn.id(),
              "real-time predecessor " + crooks::to_string(late.id()) +
                  " was applied after it");
    }
    if (tracking(IsolationLevel::kStrongSI)) {
      violate(IsolationLevel::kStrongSI, q.txn.id(),
              "snapshot misses " + crooks::to_string(late.id()) +
                  ", which committed before it started");
    }
    if (tracking(IsolationLevel::kSessionSI) && q.txn.session() != kNoSession &&
        q.txn.session() == late.session()) {
      violate(IsolationLevel::kSessionSI, q.txn.id(),
              "session predecessor " + crooks::to_string(late.id()) +
                  " was applied after it");
    }
  }
}

}  // namespace crooks::checker::reference
