// The isolation checker: decide ∃e : ∀T ∈ 𝒯 : CT_I(T, e)  (Definition 5).
//
// This is the practical artifact the state-based model enables (and the idea
// later industrialized by checkers such as Elle, Cobra and PolySI): given
// only what *clients observed* — transactions with the values their reads
// returned — decide whether the storage system could have produced those
// observations under isolation level I.
//
// Four engine tiers, cross-validated against each other in the test suite:
//
//  * Direct      — single-pass checkers for the weak levels (RC, RA, PSI)
//    that sweep the compiled SoA arrays in commit order and never build a
//    DSG or a prefix-search tree. Sound and complete for RC and RA (with or
//    without a version order); for PSI a sound saturation refuter plus a
//    verified constructed witness, falling back to a bounded exhaustive
//    search on the rare undecided instance. Near-linear: the raw-speed tier
//    for large weak-level audits.
//  * Exhaustive  — branch-and-bound over execution prefixes. Sound and
//    complete for every level, factorial in |𝒯|; the ground-truth oracle.
//  * Graph       — the constructive ⇐ directions of Theorems 1–4, 6, 10:
//    build the dependency graph the observations pin down, topologically
//    sort it per the level's rule, and verify the commit test on the result.
//    With an authoritative version order (a store that knows its install
//    order) this is sound *and complete* for RU, RC, RA, PSI, SER and SSER;
//    for the timed SI family (ANSI/Session/Strong) the real-time C-ORD
//    clause pins the execution to commit-timestamp order, making the single
//    candidate decisive with or without a version order.
//  * Heuristic   — candidate orders (commit-time, dependency topological)
//    verified by the commit test; answers kSatisfiable or kUnknown. Used for
//    large client-only observation sets.
//
// check() picks automatically: direct for its eligible levels, else complete
// graph decision when available, else exhaustive when |𝒯| is small, else
// heuristic (and, for Adya SI, the lattice). What those leave undecided goes
// to the component step first: the history splits into key-connected
// components — transactions joined by a shared key or a read-from edge — and
// each is decided by the same dispatch, smallest first. A refuted component
// refutes the whole history at every level; at the untimed levels (RU, RC,
// RA, PSI, Adya SI, SER and mixes of these) the component witnesses join into
// one, verified against the whole history. Only a one-component history, or a
// timed level with no component refuted, reaches the bounded exhaustive
// search. CheckOptions::engine overrides the choice.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "committest/commit_test.hpp"
#include "committest/level_assignment.hpp"
#include "committest/levels.hpp"
#include "model/execution.hpp"
#include "model/transaction.hpp"

namespace crooks::checker {

enum class Outcome : std::uint8_t {
  kSatisfiable,    // witness execution found (and verified)
  kUnsatisfiable,  // proven: no execution passes the commit test
  kUnknown,        // search budget exhausted / incomplete engine gave up
};

/// The minimal conflicting read-state evidence attached to a refutation:
/// which transaction's commit test fails, on which read, against which
/// candidate states. Built by explain_refutation() from the canonical
/// candidate execution; rendered for humans by report::render_counterexample
/// (Elle-style anomaly certificate — a verdict an operator can act on).
struct ReadDiagnosis {
  TxnId txn{};                 // transaction whose commit test fails
  /// The isolation level the failing transaction was audited at — under a
  /// mixed-level assignment this is that transaction's *own* level, not a
  /// history-wide one.
  std::optional<ct::IsolationLevel> level;
  std::string clause;          // the violated commit-test clause, spelled out
  std::optional<Key> key;      // the implicated read's key, when one is pinned
  std::optional<TxnId> observed_writer;  // the writer that read observed
  /// Per-read candidate read-state intervals on the candidate execution,
  /// e.g. "r(k3=T2): [s2, s2]; r(k5=T6): [s6, s6]; parent = s6".
  std::string candidate_states;
  /// Which execution the evidence is stated against (e.g. "commit-timestamp
  /// order" — for the timed levels the only order C-ORD admits).
  std::string candidate_execution;
};

struct CheckResult {
  CheckResult() = default;
  /// The shape every engine returns: verdict, optional witness, proof sketch,
  /// effort. The observability fields below are filled in by the engine
  /// wrappers after the fact.
  CheckResult(Outcome o, std::optional<model::Execution> w, std::string d,
              std::uint64_t nodes = 0)
      : outcome(o), witness(std::move(w)), detail(std::move(d)), nodes_explored(nodes) {}

  Outcome outcome = Outcome::kUnknown;
  std::optional<model::Execution> witness;  // set iff kSatisfiable
  std::string detail;                       // proof sketch / failure reason
  /// Search effort, uniformly populated by every engine: states/placements
  /// examined by the exhaustive search, transactions commit-tested plus topo
  /// queue pops by the graph engine. Dashboards never see a zero just
  /// because the fast path answered.
  std::uint64_t nodes_explored = 0;
  /// Dependency-graph edges walked by the graph engine (0 for exhaustive).
  std::uint64_t edges_visited = 0;
  /// Which engine produced the verdict: "direct", "exhaustive", "graph",
  /// "heuristic", "hierarchy", or "" for trivial (empty-set) answers. A
  /// verdict of the component step names the deciding component's engine
  /// (for a joined witness, the largest component's).
  std::string engine;
  /// Set on (some) kUnsatisfiable results: the failing commit test, localized.
  std::optional<ReadDiagnosis> diagnosis;

  bool satisfiable() const { return outcome == Outcome::kSatisfiable; }
  bool unsatisfiable() const { return outcome == Outcome::kUnsatisfiable; }
};

/// Which engine decides a check. kAuto is the dispatch described in the
/// header comment; the explicit selections force one engine and return its
/// verdict as-is (possibly kUnknown — forcing `direct` on a non-eligible
/// level, or `graph` where it is incomplete, reports honestly instead of
/// silently substituting another engine).
enum class EngineSelect : std::uint8_t {
  kAuto,
  kDirect,
  kGraph,
  kExhaustive,
};

struct CheckOptions {
  /// Use the exhaustive engine when |𝒯| ≤ this and no complete graph
  /// decision applies.
  std::size_t exhaustive_threshold = 9;

  /// Engine selection for check() / check_batch() / check_incremental().
  EngineSelect engine = EngineSelect::kAuto;

  /// Node budget for the exhaustive engine; exceeding it yields kUnknown.
  /// It bounds one sequential search. The branch-parallel search (threads >
  /// 1, |𝒯| ≥ 4) gives each of its |𝒯| top-level branches the whole budget,
  /// so it may explore up to |𝒯| × max_nodes nodes before it gives up: 80M
  /// on a 20-transaction refutation at the default. check()'s component
  /// step spends one budget across components, each getting what the earlier
  /// ones left (at threads > 1 a satisfiable component is not charged).
  std::uint64_t max_nodes = 4'000'000;

  /// Authoritative per-key install order, when the system under check can
  /// export it (our store does). Keys absent from the map must have at most
  /// one committed writer.
  ///
  /// Semantics: when set, the checker decides the *restricted* question
  /// "∃e consistent with this install order : ∀T CT_I(T, e)" — i.e.
  /// executions must apply conflicting writes in the given order. This is
  /// the question the equivalence theorems answer (they instantiate << from
  /// e), so with a version order the graph engine is sound AND complete for
  /// RU, RC, RA, PSI, SER and SSER. Without it, the client-centric question
  /// is strictly more permissive: clients cannot observe install order, so
  /// e.g. two blind writes can always be ordered either way (this is the
  /// paper's Figure 1(l) point about systems that refuse to reorder writes).
  const std::unordered_map<Key, std::vector<TxnId>>* version_order = nullptr;

  /// Worker threads for the parallel layers: check_batch fans histories
  /// across this many workers, and the exhaustive engine distributes disjoint
  /// top-level prefix branches. 0 means hardware_concurrency; 1 preserves the
  /// fully sequential behaviour bit-for-bit (including nodes_explored — use
  /// threads = 1 when debugging node-count regressions).
  ///
  /// Determinism contract (see DESIGN.md §2.3): for a fixed input, the
  /// verdict (kSatisfiable / kUnsatisfiable / kUnknown) is the same for every
  /// thread count and every scheduling. A parallel run may choose a different
  /// witness than the sequential one — it still passes verify_witness — and
  /// may report a different nodes_explored, and it may answer kSatisfiable on
  /// budget-limited instances where the sequential engine gives up with
  /// kUnknown (never the reverse, and it never contradicts a definite
  /// sequential verdict).
  std::size_t threads = 0;

  /// Resolved thread count (threads == 0 ⇒ hardware_concurrency).
  std::size_t resolved_threads() const;
};

/// One history in a check_batch call: its observations plus (optionally) its
/// own authoritative version order. A null version_order falls back to the
/// batch-level CheckOptions::version_order.
struct BatchItem {
  const model::TransactionSet* txns = nullptr;
  const std::unordered_map<Key, std::vector<TxnId>>* version_order = nullptr;
};

/// Decide ∃e ∀T CT_I(T, e), picking the strongest applicable engine.
CheckResult check(ct::IsolationLevel level, const model::TransactionSet& txns,
                  const CheckOptions& opts = {});

/// Same, over an existing compilation of the history. All engines consume the
/// compiled form; the TransactionSet overloads compile once and delegate here.
CheckResult check(ct::IsolationLevel level, const model::CompiledHistory& ch,
                  const CheckOptions& opts = {});

/// Check many independent histories concurrently via a size-class sharded
/// scheduler (see batch.cpp): tiny histories are packed several per pool task
/// to amortize dispatch, medium ones get a task each, and large
/// (refutation-heavy) ones additionally run their searches with the
/// branch-parallel exhaustive engine. Completed shards drain through an MPMC
/// result queue instead of a pool-wide barrier. Results are returned in input
/// order; each is decided by the same dispatch as check(). With threads == 1
/// every result is bit-for-bit the lone sequential check; with more threads
/// the per-result guarantee is the CheckOptions::threads determinism contract
/// (same verdict, possibly a different witness or node count on large
/// histories).
std::vector<CheckResult> check_batch(ct::IsolationLevel level,
                                     std::span<const BatchItem> items,
                                     const CheckOptions& opts = {});

/// check_batch over bare observation sets; every history shares
/// opts.version_order (usually null). Consecutive histories where each
/// extends the previous one (same transactions plus an appended suffix) are
/// compiled once and grown per item via CompiledHistory::extend — an audit
/// stream of growing prefixes never re-interns its shared prefix.
std::vector<CheckResult> check_batch(ct::IsolationLevel level,
                                     std::span<const model::TransactionSet> histories,
                                     const CheckOptions& opts = {});

/// Audit a growing history at block granularity: result i answers the ∃e
/// question for the concatenation of blocks[0..i]. The shared prefix is
/// compiled once and extended incrementally (CompiledDelta per block).
/// Inherently sequential across blocks — opts.threads parallelizes within
/// each per-prefix check instead. Throws std::invalid_argument if a block
/// repeats a transaction id seen in an earlier block.
std::vector<CheckResult> check_incremental(ct::IsolationLevel level,
                                           std::span<const model::TransactionSet> blocks,
                                           const CheckOptions& opts = {});

/// Branch-and-bound over execution prefixes. Sound and complete (with
/// respect to opts.version_order when set); factorial.
CheckResult check_exhaustive(ct::IsolationLevel level,
                             const model::TransactionSet& txns,
                             const CheckOptions& opts = {});
CheckResult check_exhaustive(ct::IsolationLevel level,
                             const model::CompiledHistory& ch,
                             const CheckOptions& opts = {});

/// Constructive graph engine. Complete exactly when `detail` says so (see
/// header comment); otherwise may return kUnknown.
CheckResult check_graph(ct::IsolationLevel level, const model::TransactionSet& txns,
                        const CheckOptions& opts = {});
CheckResult check_graph(ct::IsolationLevel level, const model::CompiledHistory& ch,
                        const CheckOptions& opts = {});

/// True when `level` has a direct single-pass decision procedure: RC, RA and
/// PSI. check() tries the direct engine first exactly for these.
bool direct_eligible(ct::IsolationLevel level);

/// Direct single-pass engine for the weak levels (see direct.cpp). Sound and
/// complete for RC and RA; for PSI sound with a verified witness and a
/// bounded exhaustive fallback — kUnknown only on a non-eligible level or an
/// oversized undecided PSI instance (check()'s dispatch then falls through
/// to the complete engines).
CheckResult check_direct(ct::IsolationLevel level, const model::TransactionSet& txns,
                         const CheckOptions& opts = {});
CheckResult check_direct(ct::IsolationLevel level, const model::CompiledHistory& ch,
                         const CheckOptions& opts = {});

/// Build the minimal read-state evidence for a refuted history: evaluate the
/// level's commit test on `candidate` (or, for the one-argument overload, the
/// compiled history's shared timestamp order) and extract the first failing
/// transaction, the implicated read, and its candidate read states. Returns
/// nullopt when the candidate execution actually passes (possible when the
/// refutation came from a version-order restriction the candidate ignores).
std::optional<ReadDiagnosis> explain_refutation(ct::IsolationLevel level,
                                                const model::CompiledHistory& ch,
                                                const model::Execution& candidate,
                                                std::string candidate_name);
std::optional<ReadDiagnosis> explain_refutation(ct::IsolationLevel level,
                                                const model::CompiledHistory& ch);

/// Re-verify a witness against the canonical commit tests (used by tests to
/// guard against divergence between search-time and analysis-time logic).
ct::ExecutionVerdict verify_witness(ct::IsolationLevel level,
                                    const model::TransactionSet& txns,
                                    const model::Execution& e);
ct::ExecutionVerdict verify_witness(ct::IsolationLevel level,
                                    const model::CompiledHistory& ch,
                                    const model::Execution& e);

// --- per-transaction isolation levels --------------------------------------
//
// Every entry point below decides the mixed question ∃e ∀T CT_{A(T)}(T, e):
// each transaction's commit test runs at its own assigned level. A uniform
// assignment delegates verbatim to the global-level overload above, so
// uniform calls are verdict-, witness-, node-count- and diagnosis-identical
// to the existing API by construction (and oracle-checked by
// tests/mixed_levels_test.cpp). Genuinely mixed assignments dispatch:
//
//  * Direct      — eligible when every level present is in {RC, RA, PSI};
//    per-transaction constraint gating on the same single pass.
//  * Exhaustive  — sound and complete for any mix (the commit test is
//    modular in T; prefix pruning fixes a placed transaction's verdict at
//    its own level).
//  * Graph       — decisive when all levels present are in the timed SI
//    family (C-ORD pins the commit order for every transaction); otherwise
//    refutes at the meet of the present levels (sound by per-transaction
//    monotonicity) and verifies heuristic candidates per transaction.
//  * Components  — as for a global level; each component keeps its
//    transactions' own levels, and witnesses join only when no transaction's
//    level is timed.

/// Mixed-level check over one history. Dispatch mirrors check(level, ...).
CheckResult check(const ct::LevelAssignment& levels,
                  const model::TransactionSet& txns, const CheckOptions& opts = {});
CheckResult check(const ct::LevelAssignment& levels,
                  const model::CompiledHistory& ch, const CheckOptions& opts = {});

/// Mixed-level batch / incremental audits. The policy is resolved against
/// each item's own compilation (annotations + overrides + fallback);
/// LevelPolicy::uniform(level) reproduces the global-level overloads
/// bit-for-bit.
std::vector<CheckResult> check_batch(const ct::LevelPolicy& policy,
                                     std::span<const BatchItem> items,
                                     const CheckOptions& opts = {});
std::vector<CheckResult> check_batch(const ct::LevelPolicy& policy,
                                     std::span<const model::TransactionSet> histories,
                                     const CheckOptions& opts = {});
std::vector<CheckResult> check_incremental(const ct::LevelPolicy& policy,
                                           std::span<const model::TransactionSet> blocks,
                                           const CheckOptions& opts = {});

/// Forced-engine mixed entry points, mirroring the global-level ones.
CheckResult check_exhaustive(const ct::LevelAssignment& levels,
                             const model::CompiledHistory& ch,
                             const CheckOptions& opts = {});
CheckResult check_graph(const ct::LevelAssignment& levels,
                        const model::CompiledHistory& ch,
                        const CheckOptions& opts = {});
CheckResult check_direct(const ct::LevelAssignment& levels,
                         const model::CompiledHistory& ch,
                         const CheckOptions& opts = {});

/// True when the direct engine decides this assignment: every level present
/// is direct-eligible (RC, RA or PSI).
bool direct_eligible(const ct::LevelAssignment& levels);

/// Mixed-level refutation evidence: the diagnosis names the violated
/// transaction's own level.
std::optional<ReadDiagnosis> explain_refutation(const ct::LevelAssignment& levels,
                                                const model::CompiledHistory& ch,
                                                const model::Execution& candidate,
                                                std::string candidate_name);
std::optional<ReadDiagnosis> explain_refutation(const ct::LevelAssignment& levels,
                                                const model::CompiledHistory& ch);

/// Witness verification under a per-transaction assignment.
ct::ExecutionVerdict verify_witness(const ct::LevelAssignment& levels,
                                    const model::TransactionSet& txns,
                                    const model::Execution& e);
ct::ExecutionVerdict verify_witness(const ct::LevelAssignment& levels,
                                    const model::CompiledHistory& ch,
                                    const model::Execution& e);

}  // namespace crooks::checker
