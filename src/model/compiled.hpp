// Compiled history: the one interned, flat representation every engine shares.
//
// Every consumer of a TransactionSet used to re-derive the same structure from
// hash-based containers — per-key timelines in unordered_maps, `contains(w)` /
// `write_set().contains(k)` probes on every search node, O(n²) real-time
// scans. CompiledHistory performs that derivation exactly once:
//
//   * keys are interned to dense `KeyIdx` (0..key_count),
//   * each read's observed writer is resolved once to a dense `TxnIdx`, with
//     phantom / unknown-writer / internal-read classification precomputed as
//     a flags byte (so search-time interval logic is a table lookup on a
//     byte, not a chain of hash probes),
//   * per-transaction read/write footprints are sorted dense arrays plus a
//     per-transaction `DynamicBitset` write mask (O(1) "does T write k"),
//   * per-key committed-writer lists are rows over `KeyIdx`,
//   * read-from edges are the `kReadExternal` ops themselves (writer already
//     dense), and
//   * real-time + session predecessor/successor adjacency is computed in one
//     sorted pass, lazily (only the exhaustive engine needs it; read-state
//     analysis of large histories must not pay O(n²)).
//
// Two construction modes:
//
//   * Borrowing (the original): `CompiledHistory(set)` compiles a finished
//     TransactionSet it does not own. The set must outlive the compiled view
//     and must not be moved while it exists. This form is immutable.
//   * Owning / growable (streaming): the default constructor produces an
//     empty history that owns its TransactionSet; `extend(block)` appends a
//     block of transactions and recompiles *incrementally* — interners are
//     extended, footprint/adjacency rows are appended in place, previously
//     unknown writers are re-resolved when they arrive, and the block's
//     candidates are spliced into `ts_order` without re-sorting the prefix.
//     The result is structurally identical to compiling the concatenated set
//     from scratch (asserted field-for-field by tests/online_incremental_test),
//     so every engine can consume a grown history transparently.
//
// Thread-safety: concurrent readers may share one instance (lazy adjacency is
// built under a mutex with an atomic published flag). `extend` is a writer:
// it must not race with any reader — the streaming OnlineChecker, its only
// concurrent-capable consumer, is externally synchronized anyway.
//
// Verdict independence: compilation is a pure re-indexing — every predicate an
// engine evaluates (read-state intervals, PREREAD/COMPLETE/NO-CONF, version
// order admissibility, phenomena) is defined on the underlying observations,
// and the compiled fields are bijective images of them. The differential suite
// (tests/compiled_history_test.cpp) checks verdict-for-verdict agreement with
// the paper's Definition 5, decided by trying every order, on every level.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "committest/levels.hpp"
#include "common/bitset.hpp"
#include "common/ids.hpp"
#include "model/transaction.hpp"

namespace crooks::model {

/// Dense index of an interned key (assignment order of first appearance).
using KeyIdx = std::uint32_t;
/// Dense index of a transaction (== TransactionSet::dense_index_of).
using TxnIdx = std::uint32_t;

inline constexpr KeyIdx kNoKeyIdx = ~KeyIdx{0};
inline constexpr TxnIdx kNoTxnIdx = ~TxnIdx{0};

/// Key ↔ dense-index bijection. Also used standalone by consumers whose key
/// universe grows with a stream.
class KeyInterner {
 public:
  KeyIdx intern(Key k) {
    auto [it, inserted] = idx_.try_emplace(k, static_cast<KeyIdx>(keys_.size()));
    if (inserted) keys_.push_back(k);
    return it->second;
  }

  /// kNoKeyIdx when the key was never interned.
  KeyIdx find(Key k) const {
    auto it = idx_.find(k);
    return it == idx_.end() ? kNoKeyIdx : it->second;
  }

  Key key_of(KeyIdx i) const { return keys_[i]; }
  std::size_t size() const { return keys_.size(); }

 private:
  std::unordered_map<Key, KeyIdx> idx_;
  std::vector<Key> keys_;
};

/// Classification of one operation — the branch structure of
/// ReadStateAnalysis::read_states_of / PrefixSearch::interval_of, resolved at
/// compile time so the per-node search path is hash-free. Not stored: derived
/// from the flags byte by `op_class_of` (one table load), so the hot per-op
/// state is exactly {key, writer, flags} in three parallel arrays.
enum class OpClass : std::uint8_t {
  kWrite,         // RS = [0, parent] by convention (§3)
  kReadInitial,   // external read of ⊥: version installed at state 0
  kReadExternal,  // external read of `writer` (a committed member, key match)
  kReadInternal,  // read after own write, observing the own write: RS = [0, parent]
  kReadNever,     // RS = ∅ in every execution (phantom, malformed internal,
                  // self-external, unknown writer, writer misses the key)
};

// Structural facts about an operation, recorded independently so the Adya
// phenomena (G1a/G1b/fractured) can be re-derived without re-parsing. Bits
// 0–5 describe reads; bit 6 marks writes. OpClass is a pure function of this
// byte (see op_class_of), which is what lets extend()'s late-writer
// re-resolution mutate flags alone and have the classification follow.
inline constexpr std::uint8_t kOpPhantom = 1 << 0;             // observed non-final write
inline constexpr std::uint8_t kOpInitWriter = 1 << 1;          // observed writer is ⊥
inline constexpr std::uint8_t kOpSelfWriter = 1 << 2;          // observed writer is self
inline constexpr std::uint8_t kOpUnknownWriter = 1 << 3;       // writer outside the set
inline constexpr std::uint8_t kOpWriterMissesKey = 1 << 4;     // member, but never writes key
inline constexpr std::uint8_t kOpPositionalInternal = 1 << 5;  // own write earlier in Σ_T
inline constexpr std::uint8_t kOpWrite = 1 << 6;               // the op is a write

namespace detail {
/// The exact branch order of compile-time classification (phantom before
/// positional before self before init before unknown / misses-key), evaluated
/// once per flag pattern at compile time into a 128-entry table.
constexpr OpClass classify_flags(std::uint8_t m) {
  if (m & kOpWrite) return OpClass::kWrite;
  if (m & kOpPhantom) return OpClass::kReadNever;
  if (m & kOpPositionalInternal) {
    return (m & kOpSelfWriter) != 0 ? OpClass::kReadInternal : OpClass::kReadNever;
  }
  if (m & kOpSelfWriter) return OpClass::kReadNever;
  if (m & kOpInitWriter) return OpClass::kReadInitial;
  if (m & (kOpUnknownWriter | kOpWriterMissesKey)) return OpClass::kReadNever;
  return OpClass::kReadExternal;
}

struct OpClassTable {
  std::array<OpClass, 128> cls{};
  constexpr OpClassTable() {
    for (std::size_t m = 0; m < cls.size(); ++m) {
      cls[m] = classify_flags(static_cast<std::uint8_t>(m));
    }
  }
};
inline constexpr OpClassTable kOpClassTable{};
}  // namespace detail

/// OpClass of a flags byte: a single indexed load on the search hot path.
inline OpClass op_class_of(std::uint8_t flags) {
  return detail::kOpClassTable.cls[flags & 0x7F];
}

/// One operation gathered back into record form — the cold-path / test-facing
/// view. Engines' hot loops should use OpsView's field accessors instead,
/// which touch only the arrays they need.
struct CompiledOp {
  KeyIdx key = kNoKeyIdx;
  /// Resolved dense index of the observed writer whenever it is a member of
  /// the set (including self and writer-misses-key reads, so phenomena can be
  /// reconstructed); kNoTxnIdx for writes, ⊥ and unknown writers.
  TxnIdx writer = kNoTxnIdx;
  OpClass cls = OpClass::kWrite;
  std::uint8_t flags = 0;

  bool is_write() const { return cls == OpClass::kWrite; }
  bool is_read() const { return cls != OpClass::kWrite; }

  /// Matches OpAnalysis::internal: a positional-internal read, with the
  /// phantom check taking precedence (a phantom read is never "internal").
  bool internal() const {
    return is_read() && (flags & kOpPositionalInternal) != 0 &&
           (flags & kOpPhantom) == 0;
  }
};

/// Non-owning indexed view over one transaction's ops in the SoA layout.
/// Field accessors read exactly one parallel array; predicates read only the
/// flags byte; `operator[]` gathers a full CompiledOp for cold paths. Indices
/// are aligned with Transaction::ops().
class OpsView {
 public:
  OpsView() = default;
  OpsView(const KeyIdx* keys, const TxnIdx* writers, const std::uint8_t* flags,
          std::size_t n)
      : keys_(keys), writers_(writers), flags_(flags), n_(n) {}

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  KeyIdx key(std::size_t i) const { return keys_[i]; }
  TxnIdx writer(std::size_t i) const { return writers_[i]; }
  std::uint8_t flags(std::size_t i) const { return flags_[i]; }
  OpClass cls(std::size_t i) const { return op_class_of(flags_[i]); }
  bool is_write(std::size_t i) const { return (flags_[i] & kOpWrite) != 0; }
  bool is_read(std::size_t i) const { return (flags_[i] & kOpWrite) == 0; }
  bool internal(std::size_t i) const {
    const std::uint8_t m = flags_[i];
    return (m & (kOpWrite | kOpPhantom)) == 0 && (m & kOpPositionalInternal) != 0;
  }

  CompiledOp operator[](std::size_t i) const {
    return CompiledOp{keys_[i], writers_[i], cls(i), flags_[i]};
  }

 private:
  const KeyIdx* keys_ = nullptr;
  const TxnIdx* writers_ = nullptr;
  const std::uint8_t* flags_ = nullptr;
  std::size_t n_ = 0;
};

/// Sparse rows: `row(i)` is a span over row i's items. Stored per-row (not as
/// one flat CSR) so `extend` can append to interior rows in place; the row
/// accessors are unchanged from the CSR form, so engines are oblivious.
struct Rows {
  std::vector<std::vector<TxnIdx>> rows;

  std::span<const TxnIdx> row(std::size_t i) const { return rows[i]; }
  std::size_t row_size(std::size_t i) const { return rows[i].size(); }
  std::size_t size() const { return rows.size(); }
};

/// What one `CompiledHistory::extend` call added — the delta a streaming
/// consumer needs to evaluate exactly the new transactions.
struct CompiledDelta {
  TxnIdx first = 0;             // dense index of the block's first transaction
  std::uint32_t count = 0;      // transactions appended
  KeyIdx first_new_key = 0;     // keys [first_new_key, key_count) are new
  /// Reads of *prefix* transactions whose observed writer arrived in this
  /// block and was re-resolved in place: (owner dense index, op index).
  std::vector<std::pair<TxnIdx, std::uint32_t>> resolved;
};

class CompiledHistory {
 public:
  /// Borrowing mode: compile a finished set (must outlive this object).
  explicit CompiledHistory(const TransactionSet& txns);

  /// Owning / growable mode: an empty history that owns its TransactionSet.
  /// Grow it with extend(); txns() always reflects the transactions so far.
  CompiledHistory();

  CompiledHistory(const CompiledHistory&) = delete;
  CompiledHistory& operator=(const CompiledHistory&) = delete;

  /// True in the growable mode (default-constructed).
  bool owns_transactions() const { return owned_ != nullptr; }

  /// Append a block of transactions and recompile incrementally. Only valid
  /// in the owning mode (throws std::logic_error otherwise); throws
  /// std::invalid_argument on a duplicate or reserved id, like the
  /// TransactionSet constructor. The returned delta is valid until the next
  /// extend(). Not thread-safe against concurrent readers.
  const CompiledDelta& extend(std::span<const Transaction> block);
  const CompiledDelta& extend(const Transaction& txn) {
    return extend(std::span<const Transaction>(&txn, 1));
  }

  // --- epoch-based prefix retirement (bounded-memory streaming) -------------
  //
  // retire(upto) folds the prefix [0, upto) into a summarized base state so a
  // monitor can run forever: the per-op SoA arrays, read-key footprints,
  // write masks, materialized adjacency rows and the owned Transaction
  // payloads of the prefix are reclaimed; everything a *future* append can
  // still be judged against is retained, at a flat few dozen bytes per
  // retired transaction:
  //
  //   * every scalar column (ids_, start/commit timestamps, session, level
  //     tag) — so duplicate detection, C-ORD, time_precedes and the
  //     retroactive real-time inversion scans stay EXACT over retired ids,
  //   * the offset arrays (op_begin_, wk/rk_begin_) — op counts stay known,
  //   * the sorted write-key footprints (write_keys_ + writers_of_) — so
  //     writes_key() stays exact forever (resident transactions use the
  //     bitset mask; retired ones binary-search their retained span),
  //   * ts_order_ — splicing in extend() is untouched.
  //
  // Dense indices are stable (a stable-offset scheme, not a remap): ops(d)
  // subtracts a base offset, so extend() after retire() appends exactly the
  // bytes an unretired twin would — bit-identical for every resident field,
  // asserted by tests/online_window_test.cpp. Accessing the reclaimed fields
  // of a retired transaction (ops(), read_keys(), write_mask()) is undefined;
  // callers must check `d >= retired()` first. The offline engines refuse
  // retired histories outright (they answer ∃e over the full history).
  struct RetireStats {
    TxnIdx watermark = 0;             // first resident dense index after the call
    std::uint32_t txns = 0;           // transactions retired by this call
    std::uint64_t ops = 0;            // compiled ops reclaimed by this call
    std::uint64_t pending_purged = 0; // unresolved-writer entries dropped
  };

  /// Fold the prefix [0, upto) (clamped to size(); monotone — a watermark
  /// at or below retired() is a no-op). Owning mode only.
  RetireStats retire(TxnIdx upto);

  /// Dense index of the first non-retired transaction (0 = nothing retired).
  TxnIdx retired() const { return retired_; }
  /// Compiled ops currently resident (excludes reclaimed prefix ops) — the
  /// flatness gauge the windowed soak bench and CI gate watch.
  std::size_t resident_ops() const { return op_flags_.size(); }

  const TransactionSet& txns() const { return *txns_; }
  std::size_t size() const { return n_; }
  std::size_t key_count() const { return keys_.size(); }
  const KeyInterner& keys() const { return keys_; }

  /// Dense id column: ids_[d] == txns().at(d).id(). Transactions are ~200
  /// bytes each; a linear pass that only needs ids must stream 8 bytes per
  /// transaction, not a cache line.
  TxnId id_of(TxnIdx d) const { return ids_[d]; }
  const std::vector<TxnId>& ids() const { return ids_; }

  // --- per-transaction compiled ops and footprints --------------------------

  /// Ops of transaction `d`, index-aligned with Transaction::ops(). The view
  /// is backed by the three parallel arrays; it is invalidated by extend().
  /// Undefined for d < retired() — the prefix ops are reclaimed.
  OpsView ops(TxnIdx d) const {
    const std::uint32_t b = op_begin_[d] - ops_base_;
    return OpsView(op_key_.data() + b, op_writer_.data() + b,
                   op_flags_.data() + b, op_begin_[d + 1] - op_begin_[d]);
  }

  /// Number of ops of transaction `d` without materializing a view.
  std::size_t op_count(TxnIdx d) const { return op_begin_[d + 1] - op_begin_[d]; }

  /// Sorted dense keys the transaction (finally) writes / externally reads.
  /// Write footprints are retained across retire(); read footprints are
  /// reclaimed (undefined for d < retired()).
  std::span<const KeyIdx> write_keys(TxnIdx d) const {
    return {write_keys_.data() + wk_begin_[d], write_keys_.data() + wk_begin_[d + 1]};
  }
  std::span<const KeyIdx> read_keys(TxnIdx d) const {
    return {read_keys_.data() + (rk_begin_[d] - rk_base_),
            read_keys_.data() + (rk_begin_[d + 1] - rk_base_)};
  }

  /// Membership test on the write footprint — exact for every transaction
  /// ever appended, retired or not. Resident transactions test their bitset
  /// mask in O(1); retired ones binary-search the retained sorted footprint
  /// (the masks, sized to the whole key universe, are what retire()
  /// reclaims). Safe for keys interned after `d` was compiled (a grown
  /// history's masks are not retro-widened): a transaction never writes a
  /// key first revealed by a later block.
  bool writes_key(TxnIdx d, KeyIdx k) const {
    if (d >= retired_) {
      const DynamicBitset& m = write_mask_[d - retired_];
      return k < m.size() && m.test(k);
    }
    const std::span<const KeyIdx> wk = write_keys(d);
    return std::binary_search(wk.begin(), wk.end(), k);
  }
  /// Undefined for d < retired().
  const DynamicBitset& write_mask(TxnIdx d) const {
    return write_mask_[d - retired_];
  }

  /// Committed writers of a key, in dense (declaration) order.
  std::span<const TxnIdx> writers_of(KeyIdx k) const { return writers_of_.row(k); }

  // --- timestamps and sessions ---------------------------------------------

  Timestamp start_ts(TxnIdx d) const { return start_ts_[d]; }
  Timestamp commit_ts(TxnIdx d) const { return commit_ts_[d]; }
  SessionId session(TxnIdx d) const { return session_[d]; }

  // --- per-transaction isolation-level annotations --------------------------

  /// Raw u8 level tag of transaction `d`: the numeric ct::IsolationLevel of
  /// its `level=` annotation, or kNoLevelTag when the observation carries
  /// none. A dense column like ids_/start_ts_ so a level-resolution pass
  /// streams one byte per transaction; preserved bit-identically by extend()
  /// (grown ≡ fresh, asserted by tests/mixed_levels_test.cpp).
  static constexpr std::uint8_t kNoLevelTag = 0xFF;
  std::uint8_t level_tag(TxnIdx d) const { return level_tag_[d]; }
  const std::vector<std::uint8_t>& level_tags() const { return level_tag_; }
  std::optional<ct::IsolationLevel> annotated_level(TxnIdx d) const {
    const std::uint8_t t = level_tag_[d];
    if (t == kNoLevelTag) return std::nullopt;
    return static_cast<ct::IsolationLevel>(t);
  }
  /// Number of transactions carrying an annotation (0 ⇒ every level-resolve
  /// is the fallback — the uniform fast path).
  std::size_t annotated_level_count() const { return annotated_levels_; }
  bool has_timestamps(TxnIdx d) const {
    return start_ts_[d] != kNoTimestamp && commit_ts_[d] != kNoTimestamp;
  }
  bool all_timestamped() const { return all_timestamped_; }

  /// T_a <_s T_b (§3): commit(a) strictly before start(b), both known.
  bool time_precedes(TxnIdx a, TxnIdx b) const {
    return commit_ts_[a] != kNoTimestamp && start_ts_[b] != kNoTimestamp &&
           commit_ts_[a] < start_ts_[b];
  }

  /// Deterministic candidate order: timestamped transactions first, by
  /// (commit_ts, dense index); untimestamped after, in dense order. This is a
  /// total order — unlike the pre-compile comparator, which compared
  /// untimestamped elements "equivalent" to everything and was not a strict
  /// weak order on mixed inputs (UB under std::sort). extend() splices new
  /// candidates into both regions without re-sorting the prefix.
  const std::vector<TxnIdx>& ts_order() const { return ts_order_; }

  // --- real-time / session adjacency (lazy) --------------------------------

  struct Adjacency {
    Rows rt_preds, rt_succs;      // a ∈ rt_preds[b] ⟺ a <_s b
    Rows sess_preds, sess_succs;  // same, restricted to a.session == b.session
    // Sort indices kept so extend() can update the rows incrementally:
    std::vector<TxnIdx> by_commit;  // commit-timestamped txns, by (commit, dense)
    std::vector<TxnIdx> by_start;   // start-timestamped txns, by (start, dense)
  };

  /// Computed on first use (one sorted pass + edge fill), then shared;
  /// thread-safe so parallel search branches can share one instance. If
  /// already materialized when extend() runs, the rows are updated in place
  /// (prefix rows gain late-arriving predecessors at their sorted position),
  /// bit-identical to rebuilding from scratch.
  const Adjacency& adjacency() const;

 private:
  /// Compile transactions [first, txns_->size()): the constructor's whole-set
  /// pass and extend()'s per-block pass are the same code.
  void compile_block(TxnIdx first);
  Adjacency build_adjacency() const;
  void extend_adjacency(Adjacency& adj, TxnIdx first) const;
  bool ts_less(TxnIdx a, TxnIdx b) const;

  const TransactionSet* txns_;
  std::unique_ptr<TransactionSet> owned_;  // set iff owning / growable mode
  std::size_t n_ = 0;
  KeyInterner keys_;

  // Structure-of-arrays op storage: op i of transaction d lives at index
  // op_begin_[d] + i - ops_base_ of each array. Field-separated so a loop
  // that needs only flags (admissibility prescans, phenomenon detection)
  // streams one byte per op instead of a 12-byte record. op_begin_ holds
  // ABSOLUTE offsets forever; retire() front-erases the arrays and advances
  // ops_base_ (the stable-offset scheme), so resident indexing — and every
  // byte extend() appends — is identical to an unretired twin's.
  std::vector<KeyIdx> op_key_;
  std::vector<TxnIdx> op_writer_;
  std::vector<std::uint8_t> op_flags_;
  std::vector<std::uint32_t> op_begin_;
  std::vector<KeyIdx> write_keys_, read_keys_;
  std::vector<std::uint32_t> wk_begin_, rk_begin_;
  std::vector<DynamicBitset> write_mask_;  // resident only: index d - retired_
  Rows writers_of_;  // rows indexed by KeyIdx

  // Retirement state: [0, retired_) is folded. ops_base_/rk_base_ are the
  // absolute offsets of the first resident entry of the front-erased arrays.
  TxnIdx retired_ = 0;
  std::uint32_t ops_base_ = 0;
  std::uint32_t rk_base_ = 0;

  std::vector<TxnId> ids_;
  std::vector<Timestamp> start_ts_, commit_ts_;
  std::vector<SessionId> session_;
  std::vector<std::uint8_t> level_tag_;
  std::size_t annotated_levels_ = 0;
  bool all_timestamped_ = true;
  std::vector<TxnIdx> ts_order_;
  std::size_t ts_timed_ = 0;  // length of the timestamped prefix of ts_order_

  /// Owning mode: reads whose observed writer is not (yet) a member, by
  /// awaited writer id — re-resolved in place if that writer arrives later.
  std::unordered_map<TxnId, std::vector<std::pair<TxnIdx, std::uint32_t>>> pending_;
  CompiledDelta delta_;
  std::vector<char> written_scratch_;  // per-txn program-order scratch, keyed by KeyIdx

  mutable std::mutex adj_mu_;
  mutable std::atomic<bool> adj_ready_{false};
  mutable std::optional<Adjacency> adj_;
};

}  // namespace crooks::model
