// Constructive graph engine: the ⇐ directions of the equivalence theorems,
// turned into an algorithm.
//
// Timed SI family (ANSI / Session / Strong SI): the C-ORD clause forces any
// witness execution to apply transactions in real-time commit order, so the
// commit-timestamp-sorted order is the *only* candidate — testing it decides
// satisfiability outright (Theorems 7–9's constructions).
//
// Untimed levels with an authoritative version order: intern the order
// against the compiled history, detect phenomena (the theorems' ⇒
// contrapositive gives unsatisfiability), and on the absence of phenomena
// construct the witness by topologically sorting the serialization graph with
// exactly the edge set each theorem's ⇐ proof uses (A.2, A.4, A.5, B.2, E.2).
//
// The engine runs entirely on model::CompiledHistory — phenomena, graph
// edges, commit-order candidates and witness verification all share the one
// compiled form (the TransactionSet overloads compile once and delegate).
// Only the cold unsatisfiable-explanation path lifts observations into an
// Adya history, where the phenomenon renderers live.
//
// Everything found is re-verified against the canonical commit tests before
// being reported — the engine never returns an unchecked witness.
//
// check()'s kAuto dispatch lives here too, with its component step: what the
// polynomial tiers leave undecided is decided one key-connected component at
// a time before any whole-history search (see check_components).
#include <algorithm>
#include <numeric>
#include <queue>

#include "adya/graph.hpp"
#include "adya/phenomena.hpp"
#include "checker/checker.hpp"
#include "checker/engine_obs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crooks::checker {

namespace {

using ct::IsolationLevel;
using model::CompiledHistory;
using model::TxnIdx;

/// Effort accounting for the graph engine, mirroring the exhaustive engine's
/// local-tally-then-flush discipline: nodes = transactions commit-tested plus
/// topo queue pops, edges = DSG edges walked. Accumulated locally during one
/// check and copied into CheckResult / the registry by the check_graph
/// wrapper.
struct GraphEffort {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
};

/// Kahn topological sort over the DSG edges selected by `mask`, breaking
/// ties toward smaller commit timestamp then smaller id (deterministic,
/// and commit order is the natural witness). Requires a Dsg built from `ch`
/// (node i == dense index i). Empty result on a cycle.
std::vector<TxnId> topo_order(const adya::Dsg& dsg, std::uint8_t mask,
                              const CompiledHistory& ch, GraphEffort& eff) {
  const std::size_t n = dsg.size();
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<std::size_t>> out(n);
  for (const adya::Edge& e : dsg.edges()) {
    if (!(e.kind & mask)) continue;
    out[e.from].push_back(e.to);
    ++indegree[e.to];
    ++eff.edges;
  }

  auto later = [&](std::size_t a, std::size_t b) {
    const auto ta = static_cast<TxnIdx>(a);
    const auto tb = static_cast<TxnIdx>(b);
    if (ch.commit_ts(ta) != ch.commit_ts(tb)) {
      return ch.commit_ts(ta) > ch.commit_ts(tb);
    }
    return ch.id_of(ta) > ch.id_of(tb);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(later)> ready(later);
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(i);
  }

  std::vector<TxnId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::size_t u = ready.top();
    ready.pop();
    ++eff.nodes;
    order.push_back(dsg.id_of(u));
    for (std::size_t v : out[u]) {
      if (--indegree[v] == 0) ready.push(v);
    }
  }
  if (order.size() != n) {
    if (obs::Trace::active()) {
      obs::Trace::event("graph.cycle",
                        obs::TraceFields()
                            .add("sorted", static_cast<std::uint64_t>(order.size()))
                            .add("n", static_cast<std::uint64_t>(n)));
    }
    return {};  // cycle
  }
  return order;
}

/// Edge set each level's constructive proof sorts by.
std::uint8_t witness_mask(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kReadUncommitted: return adya::kWW;
    case IsolationLevel::kReadCommitted:
    case IsolationLevel::kReadAtomic:
    case IsolationLevel::kPSI: return adya::kDependency;
    case IsolationLevel::kSerializable: return adya::kAllDsg;
    case IsolationLevel::kStrictSerializable: return adya::kAllDsg | adya::kRT;
    default: return 0;
  }
}

CheckResult verified_sat(IsolationLevel level, const CompiledHistory& ch,
                         std::vector<TxnId> order, std::string how,
                         GraphEffort& eff) {
  model::Execution e(ch.txns(), std::move(order));
  eff.nodes += ch.size();  // one commit test per transaction
  if (ct::ExecutionVerdict v = verify_witness(level, ch, e); !v.ok) {
    return {Outcome::kUnknown, std::nullopt,
            "internal: constructed witness failed verification (" + v.explanation + ")",
            0};
  }
  return {Outcome::kSatisfiable, std::move(e), std::move(how), 0};
}

/// The commit-timestamp-sorted execution; nullopt when timestamps are
/// missing or commit timestamps collide.
std::optional<std::vector<TxnId>> commit_sorted(const CompiledHistory& ch) {
  const std::size_t n = ch.size();
  std::vector<TxnIdx> ds(n);
  std::iota(ds.begin(), ds.end(), TxnIdx{0});
  for (TxnIdx d = 0; d < n; ++d) {
    if (ch.commit_ts(d) == kNoTimestamp) return std::nullopt;
  }
  std::sort(ds.begin(), ds.end(), [&](TxnIdx a, TxnIdx b) {
    if (ch.commit_ts(a) != ch.commit_ts(b)) return ch.commit_ts(a) < ch.commit_ts(b);
    return a < b;  // collision → rejected below; keep the sort a total order
  });
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (ch.commit_ts(ds[i]) == ch.commit_ts(ds[i + 1])) return std::nullopt;
  }
  std::vector<TxnId> order;
  order.reserve(n);
  for (TxnIdx d : ds) order.push_back(ch.id_of(d));
  return order;
}

/// The smallest key whose writers `order` installs against the version
/// order, or nullopt when it installs every listed key as listed (restricted
/// to members, as the exhaustive engine reads it). Candidate orders not built
/// from the install order must pass this before they can witness the
/// restricted question (CheckOptions::version_order).
std::optional<Key> install_mismatch(
    const CompiledHistory& ch,
    const std::unordered_map<Key, std::vector<TxnId>>* version_order,
    const std::vector<TxnId>& order) {
  if (version_order == nullptr) return std::nullopt;
  std::vector<std::size_t> pos(ch.size());
  for (std::size_t j = 0; j < order.size(); ++j) {
    pos[ch.txns().dense_index_of(order[j])] = j;
  }
  std::optional<Key> first;
  for (const auto& [key, installers] : *version_order) {
    const model::KeyIdx k = ch.keys().find(key);
    if (k == model::kNoKeyIdx) continue;
    std::vector<TxnIdx> listed;
    for (TxnId id : installers) {
      const std::size_t d = ch.txns().dense_index_if(id);
      if (d != model::TransactionSet::npos) listed.push_back(static_cast<TxnIdx>(d));
    }
    const auto writers = ch.writers_of(k);
    std::vector<TxnIdx> applied(writers.begin(), writers.end());
    std::sort(applied.begin(), applied.end(),
              [&](TxnIdx a, TxnIdx b) { return pos[a] < pos[b]; });
    if (listed != applied && (!first.has_value() || key.value < first->value)) {
      first = key;
    }
  }
  return first;
}

std::string commit_order_against(Key k) {
  return "C-ORD pins the execution to commit-timestamp order, which installs "
         "the writers of " + crooks::to_string(k) + " against the version order";
}

/// The engine body. Fills `eff`; the public wrapper below copies the effort
/// into the result, stamps the engine name, attaches the refutation
/// diagnosis and reports to the metrics/trace layers.
CheckResult check_graph_impl(IsolationLevel level, const CompiledHistory& ch,
                             const CheckOptions& opts, GraphEffort& eff) {
  // Timestamp-requiring levels are unsatisfiable as soon as one transaction
  // is outside the time oracle (same convention as the exhaustive engine's
  // precheck). Gating here keeps the heuristic path below from "verifying"
  // an SSER candidate whose real-time clauses hold only vacuously because
  // the missing timestamps make every real-time predecessor set empty.
  if (ct::requires_timestamps(level)) {
    for (TxnIdx d = 0; d < ch.size(); ++d) {
      if (!ch.has_timestamps(d)) {
        CheckResult r{Outcome::kUnsatisfiable, std::nullopt,
                      std::string(ct::name_of(level)) +
                          " requires the time oracle; no timestamps on " +
                          crooks::to_string(ch.id_of(d)),
                      0};
        ReadDiagnosis diag;
        diag.txn = ch.id_of(d);
        diag.clause = r.detail;
        diag.candidate_execution = "time-oracle precheck (no candidate needed)";
        r.diagnosis = std::move(diag);
        return r;
      }
    }
  }

  // --- Timed SI family: C-ORD pins the execution to commit order. ---------
  if (level == IsolationLevel::kAnsiSI || level == IsolationLevel::kSessionSI ||
      level == IsolationLevel::kStrongSI) {
    auto order = commit_sorted(ch);
    if (!order.has_value()) {
      return {Outcome::kUnsatisfiable, std::nullopt,
              "C-ORD needs distinct commit timestamps", 0};
    }
    if (auto k = install_mismatch(ch, opts.version_order, *order)) {
      return {Outcome::kUnsatisfiable, std::nullopt, commit_order_against(*k), 0};
    }
    model::Execution e(ch.txns(), std::move(*order));
    eff.nodes += ch.size();
    ct::ExecutionVerdict v = verify_witness(level, ch, e);
    if (v.ok) {
      return {Outcome::kSatisfiable, std::move(e),
              "commit test passes on the commit-order execution (the only "
              "order satisfying C-ORD)",
              0};
    }
    return {Outcome::kUnsatisfiable, std::nullopt,
            "C-ORD pins the execution to commit-timestamp order, on which: " +
                v.explanation,
            0};
  }

  // --- Untimed levels with an authoritative version order: phenomena. -----
  if (opts.version_order != nullptr && level != IsolationLevel::kAdyaSI) {
    const adya::InstallOrders io = adya::compile_install_orders(ch, opts.version_order);
    // Level-scoped detection: asking about a weak level must not build the
    // SI-family start/real-time edge sets, which are Θ(n²) on serial
    // histories.
    const adya::Phenomena p = adya::detect(ch, io, level);
    const adya::Verdict verdict = adya::satisfies(p, level);
    if (verdict == adya::Verdict::kViolated) {
      // Cold path: lift into an Adya history only to render the diagnosis.
      adya::History h = adya::from_observations(ch.txns(), *opts.version_order);
      return {Outcome::kUnsatisfiable, std::nullopt,
              "under the system's install order: " + adya::explain_violation(h, level),
              0};
    }
    if (verdict == adya::Verdict::kSatisfied) {
      adya::Dsg dsg(ch, io);
      std::uint8_t mask = witness_mask(level);
      if (level == IsolationLevel::kStrictSerializable) {
        if (!dsg.add_realtime_edges(ch)) {
          return {Outcome::kUnsatisfiable, std::nullopt,
                  "StrictSerializable requires the time oracle", 0};
        }
      }
      std::vector<TxnId> order = topo_order(dsg, mask, ch, eff);
      if (!order.empty()) {
        return verified_sat(level, ch, std::move(order),
                            "witness from topological sort of the serialization "
                            "graph (no phenomena under the install order)",
                            eff);
      }
      return {Outcome::kUnknown, std::nullopt,
              "internal: phenomena absent but serialization graph cyclic", 0};
    }
    // kInapplicable (e.g. SSER without timestamps): fall through.
  }

  // --- Heuristic: try natural candidate orders, verify each. --------------
  std::vector<std::pair<std::string, std::vector<TxnId>>> candidates;
  if (auto cs = commit_sorted(ch);
      cs.has_value() && !install_mismatch(ch, opts.version_order, *cs)) {
    candidates.emplace_back("commit-timestamp order", std::move(*cs));
  }
  {
    // Dependency topological order using the observations' wr edges plus
    // whatever ww edges a version order pins (if none: single-writer keys).
    try {
      const adya::InstallOrders io =
          adya::compile_install_orders(ch, opts.version_order);
      adya::Dsg dsg(ch, io);
      std::vector<TxnId> order =
          topo_order(dsg, level == IsolationLevel::kSerializable ||
                              level == IsolationLevel::kStrictSerializable
                          ? adya::kAllDsg
                          : adya::kDependency,
                     ch, eff);
      if (!order.empty()) candidates.emplace_back("dependency topological order", order);
    } catch (const std::invalid_argument&) {
      // multi-writer keys without version order: no dependency candidate
    }
  }

  for (auto& [how, order] : candidates) {
    model::Execution e(ch.txns(), std::move(order));
    eff.nodes += ch.size();
    if (verify_witness(level, ch, e).ok) {
      CheckResult r{Outcome::kSatisfiable, std::move(e),
                    "heuristic: " + how + " verified", 0};
      r.engine = "heuristic";
      return r;
    }
  }
  CheckResult r{Outcome::kUnknown, std::nullopt,
                "no candidate order verified; graph engine is incomplete here", 0};
  r.engine = "heuristic";
  return r;
}

/// Mixed-level graph engine. Three tiers, all per-transaction-verified:
///
///  * every level present in the timed SI family → C-ORD holds at *every*
///    placement, so the commit-sorted order is still the only candidate and
///    testing it (each transaction at its own level) is decisive;
///  * refutation at the meet of the present levels — each transaction's own
///    level is at least as strong as the meet (see ct::meet_of), so CT_{A(T)}
///    implies CT_meet transaction by transaction and "no execution satisfies
///    the meet uniformly" refutes the mix. A meet-level *witness* proves
///    nothing by itself and is demoted to a candidate;
///  * heuristic candidate orders verified against the per-transaction tests.
CheckResult check_graph_impl(const ct::LevelAssignment& levels,
                             const CompiledHistory& ch, const CheckOptions& opts,
                             GraphEffort& eff) {
  // Per-transaction timestamp precheck: only a transaction whose own level
  // is timed needs the oracle (same convention as the exhaustive engine).
  for (TxnIdx d = 0; d < ch.size(); ++d) {
    const IsolationLevel lvl = levels.of(d);
    if (!ct::requires_timestamps(lvl) || ch.has_timestamps(d)) continue;
    CheckResult r{Outcome::kUnsatisfiable, std::nullopt,
                  std::string(ct::name_of(lvl)) +
                      " requires the time oracle; no timestamps on " +
                      crooks::to_string(ch.id_of(d)),
                  0};
    ReadDiagnosis diag;
    diag.txn = ch.id_of(d);
    diag.clause = r.detail;
    diag.candidate_execution = "time-oracle precheck (no candidate needed)";
    diag.level = lvl;
    r.diagnosis = std::move(diag);
    return r;
  }

  if (levels.all_in({IsolationLevel::kAnsiSI, IsolationLevel::kSessionSI,
                     IsolationLevel::kStrongSI})) {
    auto order = commit_sorted(ch);
    if (!order.has_value()) {
      return {Outcome::kUnsatisfiable, std::nullopt,
              "C-ORD needs distinct commit timestamps", 0};
    }
    if (auto k = install_mismatch(ch, opts.version_order, *order)) {
      return {Outcome::kUnsatisfiable, std::nullopt, commit_order_against(*k), 0};
    }
    model::Execution e(ch.txns(), std::move(*order));
    eff.nodes += ch.size();
    ct::ExecutionVerdict v = verify_witness(levels, ch, e);
    if (v.ok) {
      return {Outcome::kSatisfiable, std::move(e),
              "per-transaction commit tests pass on the commit-order execution "
              "(every level present pins C-ORD)",
              0};
    }
    return {Outcome::kUnsatisfiable, std::nullopt,
            "C-ORD pins the execution to commit-timestamp order, on which: " +
                v.explanation,
            0};
  }

  // Meet-level tier. Genuinely mixed non-timed-SI assignments always meet at
  // an untimed level (no timed level sits below an untimed one in the
  // lattice), so this never trips the meet's own timestamp precheck.
  const IsolationLevel meet = levels.meet();
  CheckResult at_meet = check_graph(meet, ch, opts);
  eff.nodes += at_meet.nodes_explored;
  eff.edges += at_meet.edges_visited;
  if (at_meet.outcome == Outcome::kUnsatisfiable) {
    return {Outcome::kUnsatisfiable, std::nullopt,
            "refuted at the meet level " + std::string(ct::name_of(meet)) +
                " (every transaction's own level is at least as strong): " +
                at_meet.detail,
            0};
  }
  if (at_meet.outcome == Outcome::kSatisfiable && at_meet.witness.has_value()) {
    eff.nodes += ch.size();
    model::Execution e = *std::move(at_meet.witness);
    if (verify_witness(levels, ch, e).ok) {
      return {Outcome::kSatisfiable, std::move(e),
              "meet-level (" + std::string(ct::name_of(meet)) +
                  ") witness verified against the per-transaction commit tests",
              0};
    }
  }

  // Heuristic tier: natural candidate orders, each verified per transaction.
  std::vector<std::pair<std::string, std::vector<TxnId>>> candidates;
  if (auto cs = commit_sorted(ch);
      cs.has_value() && !install_mismatch(ch, opts.version_order, *cs)) {
    candidates.emplace_back("commit-timestamp order", std::move(*cs));
  }
  try {
    const adya::InstallOrders io =
        adya::compile_install_orders(ch, opts.version_order);
    adya::Dsg dsg(ch, io);
    const std::uint8_t mask =
        levels.present(IsolationLevel::kSerializable) ||
                levels.present(IsolationLevel::kStrictSerializable)
            ? adya::kAllDsg
            : adya::kDependency;
    std::vector<TxnId> order = topo_order(dsg, mask, ch, eff);
    if (!order.empty()) candidates.emplace_back("dependency topological order", order);
  } catch (const std::invalid_argument&) {
    // multi-writer keys without version order: no dependency candidate
  }
  for (auto& [how, order] : candidates) {
    model::Execution e(ch.txns(), std::move(order));
    eff.nodes += ch.size();
    if (verify_witness(levels, ch, e).ok) {
      CheckResult r{Outcome::kSatisfiable, std::move(e),
                    "heuristic: " + how + " verified", 0};
      r.engine = "heuristic";
      return r;
    }
  }
  CheckResult r{Outcome::kUnknown, std::nullopt,
                "no candidate order verified; graph engine is incomplete for "
                "this level mix",
                0};
  r.engine = "heuristic";
  return r;
}

}  // namespace

CheckResult check_graph(IsolationLevel level, const CompiledHistory& ch,
                        const CheckOptions& opts) {
  if (ch.size() == 0) {
    return {Outcome::kSatisfiable, model::Execution::identity(ch.txns()), "empty set", 0};
  }
  if (auto refused = engine_obs::refuse_retired(ch)) return *std::move(refused);
  static obs::Histogram& graph_latency = engine_obs::check_latency("graph");
  static obs::Counter& edges_total = obs::Registry::global().counter(
      "crooks_graph_edges_visited_total",
      "Serialization-graph edges walked by the graph engine");
  obs::TraceSpan span("engine.graph");
  obs::ScopedTimer timer(graph_latency);
  GraphEffort eff;
  CheckResult result = check_graph_impl(level, ch, opts, eff);
  result.nodes_explored = eff.nodes;
  result.edges_visited = eff.edges;
  if (result.engine.empty()) result.engine = "graph";
  if (result.unsatisfiable() && !result.diagnosis) {
    result.diagnosis = explain_refutation(level, ch);
  }
  if (obs::enabled()) {
    engine_obs::checks_counter(result.engine, result.outcome).inc();
    if (eff.edges != 0) edges_total.inc(eff.edges);
  }
  span.field("level", ct::name_of(level))
      .field("n", static_cast<std::uint64_t>(ch.size()))
      .field("engine", result.engine)
      .field("nodes", eff.nodes)
      .field("edges", eff.edges)
      .field("outcome", engine_obs::outcome_word(result.outcome));
  return result;
}

CheckResult check_graph(IsolationLevel level, const model::TransactionSet& txns,
                        const CheckOptions& opts) {
  const CompiledHistory ch(txns);
  return check_graph(level, ch, opts);
}

CheckResult check_graph(const ct::LevelAssignment& levels, const CompiledHistory& ch,
                        const CheckOptions& opts) {
  if (levels.is_uniform()) return check_graph(levels.fallback(), ch, opts);
  if (ch.size() == 0) {
    return {Outcome::kSatisfiable, model::Execution::identity(ch.txns()), "empty set", 0};
  }
  if (auto refused = engine_obs::refuse_retired(ch)) return *std::move(refused);
  static obs::Histogram& graph_latency = engine_obs::check_latency("graph");
  obs::TraceSpan span("engine.graph");
  obs::ScopedTimer timer(graph_latency);
  GraphEffort eff;
  CheckResult result = check_graph_impl(levels, ch, opts, eff);
  result.nodes_explored = eff.nodes;
  result.edges_visited = eff.edges;
  if (result.engine.empty()) result.engine = "graph";
  if (result.unsatisfiable() && !result.diagnosis) {
    result.diagnosis = explain_refutation(levels, ch);
  }
  if (obs::enabled()) {
    engine_obs::checks_counter(result.engine, result.outcome).inc();
  }
  span.field("level", levels.describe())
      .field("n", static_cast<std::uint64_t>(ch.size()))
      .field("engine", result.engine)
      .field("nodes", eff.nodes)
      .field("edges", eff.edges)
      .field("outcome", engine_obs::outcome_word(result.outcome));
  return result;
}

namespace {

CheckResult check_dispatch(IsolationLevel level, const CompiledHistory& ch,
                           const CheckOptions& opts);
CheckResult check_dispatch(const ct::LevelAssignment& levels,
                           const CompiledHistory& ch, const CheckOptions& opts);

// --- The component step ------------------------------------------------------
//
// The commit tests of Tables 1–2 read only the states of T's own keys, and ▷
// links only transactions that share a key or a read-from edge. Join every
// transaction to its keys and to the writers its reads observed; ∃e then
// splits over the connected components (DESIGN.md §2.14 has the argument):
//
//  * restricting any witness to one component keeps every commit-test clause,
//    the real-time, session and C-ORD clauses included, so a refuted
//    component refutes the whole history at every level;
//  * concatenating one witness per component is a witness of the whole
//    history when no level in play reads timestamps. Real-time order crosses
//    components, so a timed level only ever refutes here.

/// The key-connected components of a history with more than one, smallest
/// first (ties by first member), each listing its dense indices in ascending
/// order; `of_key` maps each key to its component. Empty for one component.
struct Components {
  std::vector<std::vector<TxnIdx>> members;
  std::vector<std::uint32_t> of_key;
};

Components key_components(const CompiledHistory& ch) {
  const auto n = static_cast<std::uint32_t>(ch.size());
  // Union-find over transactions [0, n) and keys [n, n + key_count). A root
  // is its set's smallest index, so a transaction's root is the first member
  // of its component.
  std::vector<std::uint32_t> up(n + ch.key_count());
  std::iota(up.begin(), up.end(), 0u);
  const auto root = [&up](std::uint32_t x) {
    while (up[x] != x) x = up[x] = up[up[x]];
    return x;
  };
  const auto join = [&](std::uint32_t a, std::uint32_t b) {
    a = root(a);
    b = root(b);
    if (a < b) {
      up[b] = a;
    } else {
      up[a] = b;
    }
  };
  for (TxnIdx d = 0; d < n; ++d) {
    const model::OpsView ops = ch.ops(d);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      join(d, n + ops.key(i));
      if (ops.writer(i) != model::kNoTxnIdx) join(d, ops.writer(i));
    }
  }

  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> slot(n, kNone);  // root → component
  Components out;
  for (TxnIdx d = 0; d < n; ++d) {
    std::uint32_t& s = slot[root(d)];
    if (s == kNone) {
      s = static_cast<std::uint32_t>(out.members.size());
      out.members.emplace_back();
    }
    out.members[s].push_back(d);
  }
  if (out.members.size() <= 1) return {};

  std::stable_sort(out.members.begin(), out.members.end(),
                   [](const auto& a, const auto& b) { return a.size() < b.size(); });
  for (std::uint32_t c = 0; c < out.members.size(); ++c) slot[out.members[c].front()] = c;
  out.of_key.resize(ch.key_count());
  for (model::KeyIdx k = 0; k < ch.key_count(); ++k) {
    out.of_key[k] = slot[root(n + k)];  // every interned key has a reader or writer
  }
  return out;
}

std::string in_component(std::size_t m, std::size_t n) {
  return "in a key-connected component of " + std::to_string(m) + " of " +
         std::to_string(n) + " transactions: ";
}

/// Decide ∃e one key-connected component at a time, smallest first, each by
/// the kAuto dispatch on its own copy of the history. nullopt when the step
/// does not apply: one component, a version order the whole history rejects
/// (the search that follows treats it exactly as before), or a timed level
/// in play with no component refuted.
///
/// One node budget: each component gets what the earlier ones left of
/// opts.max_nodes. With threads > 1 a satisfiable component's node count
/// depends on scheduling, so it is not charged there; every other outcome
/// is charged as at threads = 1. The parallel budgets are then never below
/// the sequential ones, and the CheckOptions::threads determinism contract
/// carries over: a parallel run never contradicts or loses a definite
/// sequential verdict.
std::optional<CheckResult> check_components(const ct::LevelAssignment& levels,
                                            const CompiledHistory& ch,
                                            const CheckOptions& opts) {
  Components comps = key_components(ch);
  if (comps.members.empty()) return std::nullopt;
  if (opts.version_order != nullptr) {
    try {
      adya::compile_install_orders(ch, opts.version_order);
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
  }
  using VersionOrder = std::unordered_map<Key, std::vector<TxnId>>;
  std::vector<std::vector<const VersionOrder::value_type*>> vo_of(comps.members.size());
  if (opts.version_order != nullptr) {
    for (const auto& entry : *opts.version_order) {
      const model::KeyIdx k = ch.keys().find(entry.first);
      if (k != model::kNoKeyIdx) vo_of[comps.of_key[k]].push_back(&entry);
    }
  }
  bool timed = false;
  for (TxnIdx d = 0; d < ch.size() && !timed; ++d) {
    timed = ct::requires_timestamps(levels.of(d));
  }

  obs::TraceSpan span("check.components");
  span.field("n", static_cast<std::uint64_t>(ch.size()))
      .field("components", static_cast<std::uint64_t>(comps.members.size()));
  // Resolved once: threads = 0 asks the OS for the core count on every call.
  CheckOptions base = opts;
  base.threads = opts.resolved_threads();
  const bool charge_sat = base.threads == 1;
  std::uint64_t spent = 0, nodes = 0, edges = 0;
  std::optional<CheckResult> undecided;
  std::size_t undecided_size = 0;
  std::vector<std::uint32_t> joined;
  CheckResult largest;
  for (std::size_t c = 0; c < comps.members.size(); ++c) {
    const std::vector<TxnIdx>& members = comps.members[c];
    std::vector<model::Transaction> part;
    part.reserve(members.size());
    for (TxnIdx d : members) part.push_back(ch.txns().at(d));
    const model::TransactionSet sub(std::move(part));
    const CompiledHistory sub_ch(sub);

    CheckOptions sub_opts = base;
    sub_opts.max_nodes = opts.max_nodes - std::min(spent, opts.max_nodes);
    VersionOrder sub_vo;
    if (opts.version_order != nullptr) {
      for (const VersionOrder::value_type* entry : vo_of[c]) sub_vo.insert(*entry);
      sub_opts.version_order = &sub_vo;
    }
    std::vector<IsolationLevel> column;
    column.reserve(members.size());
    for (TxnIdx d : members) column.push_back(levels.of(d));
    const IsolationLevel first = column.front();
    const ct::LevelAssignment sub_levels(first, std::move(column));
    CheckResult r = sub_levels.is_uniform()
                        ? check_dispatch(sub_levels.fallback(), sub_ch, sub_opts)
                        : check_dispatch(sub_levels, sub_ch, sub_opts);
    nodes += r.nodes_explored;
    edges += r.edges_visited;

    if (r.unsatisfiable()) {
      r.detail = in_component(members.size(), ch.size()) + r.detail;
      if (r.diagnosis.has_value() && !r.diagnosis->candidate_execution.empty()) {
        r.diagnosis->candidate_execution += " of its key-connected component";
      }
      r.nodes_explored = nodes;
      r.edges_visited = edges;
      span.field("visited", static_cast<std::uint64_t>(c + 1)).field("outcome", "unsat");
      return r;
    }
    if (charge_sat || !r.satisfiable()) spent += r.nodes_explored;
    if (!r.satisfiable()) {
      if (!undecided.has_value()) {
        undecided = std::move(r);
        undecided_size = members.size();
      }
      continue;
    }
    if (!timed) {
      for (std::uint32_t sd : r.witness->dense_order()) joined.push_back(members[sd]);
    }
    largest = std::move(r);
  }
  span.field("visited", static_cast<std::uint64_t>(comps.members.size()));
  if (timed) {
    span.field("outcome", "fall-through");
    return std::nullopt;
  }
  if (undecided.has_value()) {
    span.field("outcome", "unknown");
    undecided->detail = in_component(undecided_size, ch.size()) + undecided->detail;
    undecided->nodes_explored = nodes;
    undecided->edges_visited = edges;
    return undecided;
  }

  model::Execution e = model::Execution::from_dense(ch.txns(), std::move(joined), ch.ids());
  CheckResult r{Outcome::kUnknown, std::nullopt, "", nodes};
  r.edges_visited = edges;
  r.engine = largest.engine;
  if (ct::ExecutionVerdict v = verify_witness(levels, ch, e); !v.ok) {
    r.detail = "internal: joined component witnesses failed verification (" +
               v.explanation + ")";
  } else {
    r.outcome = Outcome::kSatisfiable;
    r.witness = std::move(e);
    r.detail = "witness joined from " + std::to_string(comps.members.size()) +
               " key-connected components; the largest, " +
               std::to_string(comps.members.back().size()) + " of " +
               std::to_string(ch.size()) + " transactions: " + largest.detail;
  }
  span.field("outcome", engine_obs::outcome_word(r.outcome));
  return r;
}

CheckResult check_dispatch(IsolationLevel level, const CompiledHistory& ch,
                           const CheckOptions& opts) {
  // Explicit engine selection bypasses the tiering and reports the chosen
  // engine's verdict as-is (possibly kUnknown — forcing is honest, never a
  // silent substitution).
  switch (opts.engine) {
    case EngineSelect::kDirect: return check_direct(level, ch, opts);
    case EngineSelect::kGraph: return check_graph(level, ch, opts);
    case EngineSelect::kExhaustive: return check_exhaustive(level, ch, opts);
    case EngineSelect::kAuto: break;
  }

  // Direct tier first: near-linear single-pass decision for the weak levels.
  // Complete for RC/RA; kUnknown only on an oversized undecided PSI instance,
  // which falls through to the complete engines below.
  if (direct_eligible(level)) {
    CheckResult r = check_direct(level, ch, opts);
    if (r.outcome != Outcome::kUnknown) return r;
  }

  // Complete graph decisions next (polynomial).
  const bool timed_pinned = level == IsolationLevel::kAnsiSI ||
                            level == IsolationLevel::kSessionSI ||
                            level == IsolationLevel::kStrongSI;
  const bool vo_complete =
      opts.version_order != nullptr &&
      (level == IsolationLevel::kReadUncommitted ||
       level == IsolationLevel::kReadCommitted ||
       level == IsolationLevel::kReadAtomic || level == IsolationLevel::kPSI ||
       level == IsolationLevel::kSerializable ||
       level == IsolationLevel::kStrictSerializable);

  if (timed_pinned || vo_complete) {
    CheckResult r = check_graph(level, ch, opts);
    if (r.outcome != Outcome::kUnknown) return r;
  }
  if (ch.size() <= opts.exhaustive_threshold) {
    return check_exhaustive(level, ch, opts);
  }
  CheckResult r = check_graph(level, ch, opts);
  if (r.outcome != Outcome::kUnknown) return r;

  // Hierarchy inference for the one large-instance gap: timestamp-free
  // Adya SI has no complete polynomial procedure here, but the lattice is
  // sound in both directions — a serializable witness also witnesses SI
  // (SER ⇒ AdyaSI), and an unsatisfiable PSI refutes SI (AdyaSI ⇒ PSI).
  if (level == IsolationLevel::kAdyaSI) {
    CheckResult ser = check_graph(IsolationLevel::kSerializable, ch, opts);
    if (ser.outcome == Outcome::kSatisfiable &&
        verify_witness(level, ch, *ser.witness).ok) {
      ser.detail += " (serializable witness also satisfies CT_SI)";
      ser.engine = "hierarchy";
      return ser;
    }
    CheckResult psi = check_graph(IsolationLevel::kPSI, ch, opts);
    if (psi.outcome == Outcome::kUnsatisfiable) {
      psi.detail = "refuted via the hierarchy (AdyaSI ⇒ PSI): " + psi.detail;
      psi.engine = "hierarchy";
      return psi;
    }
  }

  // Key-connected components: decide each on its own, smallest first.
  if (auto r = check_components(level, ch, opts)) return *std::move(r);

  // Last resort: bounded exhaustive search may still find a witness quickly
  // (the candidate ordering starts from commit order).
  return check_exhaustive(level, ch, opts);
}

/// Mixed-level tiering. Same shape as the global-level dispatch: direct when
/// every level present is direct-eligible, the decisive graph path when the
/// whole assignment pins C-ORD, then the complete exhaustive search (bounded
/// by the threshold), with the graph engine's meet-refutation/heuristic tier
/// and the component step covering large instances before the final
/// exhaustive resort.
CheckResult check_dispatch(const ct::LevelAssignment& levels,
                           const CompiledHistory& ch, const CheckOptions& opts) {
  switch (opts.engine) {
    case EngineSelect::kDirect: return check_direct(levels, ch, opts);
    case EngineSelect::kGraph: return check_graph(levels, ch, opts);
    case EngineSelect::kExhaustive: return check_exhaustive(levels, ch, opts);
    case EngineSelect::kAuto: break;
  }

  if (direct_eligible(levels)) {
    CheckResult r = check_direct(levels, ch, opts);
    if (r.outcome != Outcome::kUnknown) return r;
  }

  if (levels.all_in({IsolationLevel::kAnsiSI, IsolationLevel::kSessionSI,
                     IsolationLevel::kStrongSI})) {
    CheckResult r = check_graph(levels, ch, opts);
    if (r.outcome != Outcome::kUnknown) return r;
  }

  if (ch.size() <= opts.exhaustive_threshold) {
    return check_exhaustive(levels, ch, opts);
  }
  CheckResult r = check_graph(levels, ch, opts);
  if (r.outcome != Outcome::kUnknown) return r;
  if (auto split = check_components(levels, ch, opts)) return *std::move(split);
  return check_exhaustive(levels, ch, opts);
}

}  // namespace

CheckResult check(IsolationLevel level, const CompiledHistory& ch,
                  const CheckOptions& opts) {
  if (auto refused = engine_obs::refuse_retired(ch)) return *std::move(refused);
  obs::TraceSpan span("check.dispatch");
  CheckResult result = check_dispatch(level, ch, opts);
  span.field("level", ct::name_of(level))
      .field("n", static_cast<std::uint64_t>(ch.size()))
      .field("engine", result.engine)
      .field("outcome", engine_obs::outcome_word(result.outcome));
  return result;
}

CheckResult check(IsolationLevel level, const model::TransactionSet& txns,
                  const CheckOptions& opts) {
  const CompiledHistory ch(txns);
  return check(level, ch, opts);
}

CheckResult check(const ct::LevelAssignment& levels, const CompiledHistory& ch,
                  const CheckOptions& opts) {
  // A uniform assignment IS the global-level question; delegating keeps the
  // two APIs verdict-, witness- and diagnosis-identical by construction.
  if (levels.is_uniform()) return check(levels.fallback(), ch, opts);
  if (auto refused = engine_obs::refuse_retired(ch)) return *std::move(refused);
  obs::TraceSpan span("check.dispatch");
  CheckResult result = check_dispatch(levels, ch, opts);
  span.field("level", levels.describe())
      .field("n", static_cast<std::uint64_t>(ch.size()))
      .field("engine", result.engine)
      .field("outcome", engine_obs::outcome_word(result.outcome));
  return result;
}

CheckResult check(const ct::LevelAssignment& levels, const model::TransactionSet& txns,
                  const CheckOptions& opts) {
  const CompiledHistory ch(txns);
  return check(levels, ch, opts);
}

}  // namespace crooks::checker
