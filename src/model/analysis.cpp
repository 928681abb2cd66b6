#include "model/analysis.hpp"

#include <algorithm>
#include <cassert>

namespace crooks::model {

namespace {

// Shared empty timeline (just the initial ⊥ version) for keys never written.
const std::vector<VersionEntry>& initial_only_timeline() {
  static const std::vector<VersionEntry> kInitial{{0, kInitTxn, kNoTxnIdx}};
  return kInitial;
}

}  // namespace

ReadStateAnalysis::ReadStateAnalysis(const TransactionSet& txns, const Execution& e)
    : owned_(std::make_unique<CompiledHistory>(txns)), ch_(owned_.get()), exec_(&e) {
  init();
}

ReadStateAnalysis::ReadStateAnalysis(const CompiledHistory& ch, const Execution& e)
    : ch_(&ch), exec_(&e) {
  init();
}

void ReadStateAnalysis::init() {
  txn_.resize(ch_->size());

  // Build per-key version timelines by walking the execution order once.
  timelines_.assign(ch_->key_count(), {{0, kInitTxn, kNoTxnIdx}});
  for (std::size_t j = 0; j < exec_->size(); ++j) {
    const TxnIdx d = exec_->dense_at(j);
    const StateIndex pos = static_cast<StateIndex>(j) + 1;
    for (KeyIdx k : ch_->write_keys(d)) {
      timelines_[k].push_back({pos, ch_->id_of(d), d});
    }
  }

  for (std::size_t dense = 0; dense < ch_->size(); ++dense) {
    analyze_transaction(dense);
    if (!txn_[dense].preread) preread_all_ = false;
  }
}

const std::vector<VersionEntry>& ReadStateAnalysis::timeline(Key k) const {
  const KeyIdx ki = ch_->keys().find(k);
  return ki == kNoKeyIdx ? initial_only_timeline() : timelines_[ki];
}

StateIndex ReadStateAnalysis::last_write_at_or_before_idx(KeyIdx k, StateIndex s) const {
  const std::vector<VersionEntry>& tl = timelines_[k];
  // Last entry with pos <= s. Entry 0 always has pos == 0 <= s for s >= 0.
  auto it = std::upper_bound(tl.begin(), tl.end(), s,
                             [](StateIndex v, const VersionEntry& en) { return v < en.pos; });
  assert(it != tl.begin());
  return std::prev(it)->pos;
}

StateIndex ReadStateAnalysis::last_write_at_or_before(Key k, StateIndex s) const {
  const KeyIdx ki = ch_->keys().find(k);
  return ki == kNoKeyIdx ? 0 : last_write_at_or_before_idx(ki, s);
}

StateInterval ReadStateAnalysis::read_states_of(std::size_t dense,
                                                const CompiledOp& op) const {
  const StateIndex parent = exec_->parent_of(dense);

  StateIndex version_pos = 0;
  switch (op.cls) {
    case OpClass::kWrite:
    case OpClass::kReadInternal:
      // Writes (by the §3 convention) and reads of the transaction's own
      // earlier write can "read" from any state up to the parent.
      return {0, parent};
    case OpClass::kReadNever:
      // Phantom, malformed internal, self-external, unknown writer, or the
      // writer never wrote this key: no state exhibits the observation.
      return {};
    case OpClass::kReadInitial:
      version_pos = 0;
      break;
    case OpClass::kReadExternal:
      version_pos = exec_->state_of(op.writer);
      break;
  }

  // The version is current from version_pos until the next write of the key.
  const std::vector<VersionEntry>& tl = timelines_[op.key];
  auto it = std::upper_bound(tl.begin(), tl.end(), version_pos,
                             [](StateIndex v, const VersionEntry& en) { return v < en.pos; });
  const StateIndex next_write =
      it == tl.end() ? exec_->last_state() + 1 : it->pos;

  // Clamp to the parent: operations cannot read from the future (§3).
  return StateInterval{version_pos, std::min(next_write - 1, parent)};
}

void ReadStateAnalysis::analyze_transaction(std::size_t dense) {
  const OpsView cops = ch_->ops(static_cast<TxnIdx>(dense));
  TxnAnalysis& out = txn_[dense];
  out.state = exec_->state_of(dense);
  out.parent = out.state - 1;
  out.preread = true;
  out.complete = {0, out.parent};
  out.ops.resize(cops.size());

  for (std::size_t i = 0; i < cops.size(); ++i) {
    const CompiledOp op = cops[i];  // gather once; this is a cold path
    const StateInterval rs = read_states_of(dense, op);
    out.ops[i] = {rs, op.internal()};
    if (rs.empty()) out.preread = false;
    out.complete = out.complete.intersect(rs);
  }

  // NO-CONF_T(s) ≡ Δ(s, s_p) ∩ W_T = ∅. Δ(s, s_p) is exactly the set of keys
  // written by transactions at positions in (s, s_p] (values are unique, so a
  // key differs iff someone rewrote it). The earliest conflict-free state is
  // therefore the last position ≤ s_p at which any key of W_T was written.
  StateIndex min_ok = 0;
  for (KeyIdx k : ch_->write_keys(static_cast<TxnIdx>(dense))) {
    min_ok = std::max(min_ok, last_write_at_or_before_idx(k, out.parent));
  }
  out.no_conf_min = min_ok;
}

const Precedence& ReadStateAnalysis::precedence() const {
  if (precedence_.has_value()) return *precedence_;

  Precedence p;
  const std::size_t n = ch_->size();
  p.prec_.assign(n, DynamicBitset(n));

  // Walk transactions in execution order so that every direct predecessor's
  // transitive set is already complete when we fold it in (Lemma E.1/E.2:
  // under PREREAD, predecessors occur strictly earlier in e).
  for (std::size_t j = 0; j < exec_->size(); ++j) {
    const TxnIdx dense = exec_->dense_at(j);
    const OpsView cops = ch_->ops(dense);
    const TxnAnalysis& ta = txn_[dense];
    DynamicBitset& mine = p.prec_[dense];

    auto add_direct = [&](std::size_t pred_dense) {
      if (pred_dense == dense) return;
      mine.set(pred_dense);
      mine.or_with(p.prec_[pred_dense]);
    };

    // Read dependencies: the writer of each operation's first read state.
    // Only external reads of a member writer contribute (internal reads and
    // reads of ⊥ have no writer; empty-RS reads contribute no edges).
    for (std::size_t i = 0; i < cops.size(); ++i) {
      if (cops.cls(i) != OpClass::kReadExternal || ta.ops[i].rs.empty()) continue;
      add_direct(cops.writer(i));
    }

    // Write-write dependencies: every earlier transaction writing a key that
    // this transaction also writes.
    for (KeyIdx k : ch_->write_keys(dense)) {
      for_writers_in_idx(k, 0, ta.parent, [&](const VersionEntry& v) {
        if (v.writer_dense == kNoTxnIdx) return;  // the initial ⊥ version
        add_direct(v.writer_dense);
      });
    }
  }

  precedence_ = std::move(p);
  return *precedence_;
}

}  // namespace crooks::model
