#include "report/report.hpp"

#include <map>
#include <sstream>

#include "adya/phenomena.hpp"
#include "forensics/collector.hpp"
#include "model/compiled.hpp"
#include "report/forensics_render.hpp"

namespace crooks::report {

namespace {

const char* verdict_word(const checker::CheckResult& r) {
  switch (r.outcome) {
    case checker::Outcome::kSatisfiable: return "PASS";
    case checker::Outcome::kUnsatisfiable: return "FAIL";
    case checker::Outcome::kUnknown: return "UNDECIDED";
  }
  return "?";
}

/// One text line per offline engine refutation: the canonical pattern the
/// engine's evidence maps to. Annotation only — engine witnesses never enter
/// the replay table the determinism gate diffs.
std::string engine_exemplar_line(const model::CompiledHistory& ch,
                                 const checker::CheckResult& r,
                                 ct::IsolationLevel level,
                                 std::string_view label) {
  const std::optional<forensics::Witness> w =
      forensics::witness_from_result(ch, r, level);
  if (!w.has_value()) return {};
  std::ostringstream os;
  os << "    " << label << " (" << w->engine
     << "): " << forensics::pattern_name(*w) << " — " << w->shape_str << "\n";
  return os.str();
}

AuditResult audit_impl(const Observations& obs, const checker::CheckOptions& base,
                       ForensicsAudit* sink) {
  checker::CheckOptions opts = base;
  if (obs.has_version_order() && opts.version_order == nullptr) {
    opts.version_order = &obs.version_order;
  }

  std::ostringstream out;
  out << "isolation audit: " << obs.txns.size() << " transactions";
  if (opts.version_order != nullptr) {
    out << ", install order supplied (verdicts are definitive for the "
           "untimed levels)";
  }
  out << "\n\n";

  AuditResult result;

  // Forensics replay: the same OnlineChecker + Collector path --follow runs,
  // over the same transactions in the same (declaration) order. Built before
  // the engine loop so its compiled stream doubles as the history the engine
  // exemplar witnesses are extracted against.
  std::optional<checker::OnlineChecker> replay;
  forensics::Collector::Options copt;
  copt.metrics = false;  // a library audit must not touch the global registry
  forensics::Collector collector(copt);
  std::string engine_lines;
  if (sink != nullptr) {
    replay.emplace();  // all ten levels, like the --follow default
    collector.attach(*replay);
    replay->append_all(obs.txns);
  }

  // One compilation serves all eleven checks below; the TransactionSet
  // overloads would compile the whole history again for each.
  const model::CompiledHistory ch(obs.txns);
  std::vector<ct::IsolationLevel> passing;
  std::optional<model::Execution> strongest_witness;
  for (ct::IsolationLevel level : ct::kAllLevels) {
    const checker::CheckResult r = checker::check(level, ch, opts);
    if (replay.has_value()) {
      engine_lines +=
          engine_exemplar_line(replay->stream(), r, level, ct::name_of(level));
    }
    out << "  " << verdict_word(r) << "  ";
    out.width(20);
    out << std::left << ct::name_of(level);
    if (auto eq = ct::equivalent_names(level); !eq.empty()) out << " (≡ " << eq << ")";
    if (!r.satisfiable() && !r.detail.empty()) out << "\n        " << r.detail;
    out << "\n";
    if (r.unsatisfiable() && r.diagnosis.has_value()) {
      std::istringstream lines(render_counterexample(*r.diagnosis));
      for (std::string line; std::getline(lines, line);) {
        out << "      " << line << "\n";
      }
    }
    if (r.satisfiable()) {
      passing.push_back(level);
      if (!result.strongest.has_value() ||
          ct::at_least_as_strong(level, *result.strongest)) {
        result.strongest = level;
        strongest_witness = r.witness;
      }
    }
  }

  // The lattice has incomparable branches (serializability vs the timed SI
  // family): report every maximal passing level.
  out << "\nstrongest level(s) admitted:";
  bool any = false;
  for (ct::IsolationLevel p : passing) {
    bool maximal = true;
    for (ct::IsolationLevel q : passing) {
      if (q != p && ct::at_least_as_strong(q, p)) maximal = false;
    }
    if (maximal) {
      out << (any ? ", " : " ") << ct::name_of(p);
      any = true;
    }
  }
  if (!any) out << " none";
  out << "\n";

  // Name the anomalies when the install order pins them down.
  if (opts.version_order != nullptr) {
    try {
      const adya::History h = adya::from_observations(obs.txns, *opts.version_order);
      const adya::Phenomena p = adya::detect(h);
      out << "phenomena under the install order: " << p.to_string() << "\n";
    } catch (const std::invalid_argument& e) {
      out << "phenomena unavailable: " << e.what() << "\n";
    }
  }

  if (strongest_witness.has_value() && obs.txns.size() <= 12) {
    out << "\nwitness for the strongest level:\n"
        << render_execution(obs.txns, *strongest_witness);
  }

  // Mixed-level audit: when the input declares per-transaction levels, the
  // per-level table above answers "what if EVERY transaction ran at L"; this
  // section answers the deployment's actual question — each transaction at
  // its own declared level (unannotated ones at the default-level directive,
  // or ReadUncommitted when absent).
  if (obs.has_level_annotations()) {
    const ct::IsolationLevel fallback =
        obs.default_level.value_or(ct::IsolationLevel::kReadUncommitted);
    // Dense compile order == the set's declaration order, so the column can
    // be built straight off the transactions.
    std::vector<ct::IsolationLevel> column;
    column.reserve(obs.txns.size());
    std::map<ct::IsolationLevel, std::size_t> groups;
    for (const model::Transaction& t : obs.txns) {
      column.push_back(t.level().value_or(fallback));
      ++groups[column.back()];
    }
    ct::LevelAssignment assignment(fallback, std::move(column));
    out << "\nmixed-level audit (each transaction at its own declared level; "
        << "default " << ct::name_of(fallback) << "):\n";
    out << "  level groups:";
    for (const auto& [l, n] : groups) out << "  " << ct::name_of(l) << " ×" << n;
    out << "\n";
    const checker::CheckResult r = checker::check(assignment, ch, opts);
    out << "  " << verdict_word(r) << "  " << assignment.describe() << "\n";
    if (!r.satisfiable() && !r.detail.empty()) out << "        " << r.detail << "\n";
    if (r.unsatisfiable() && r.diagnosis.has_value()) {
      std::istringstream lines(render_counterexample(*r.diagnosis));
      for (std::string line; std::getline(lines, line);) {
        out << "      " << line << "\n";
      }
    }
    if (replay.has_value()) {
      engine_lines +=
          engine_exemplar_line(replay->stream(), r, fallback, "mixed-level");
    }
  }

  if (sink != nullptr) {
    out << "\n" << render_forensics(collector.table());
    if (!engine_lines.empty()) {
      out << "  engine exemplars (∃e refutations, text only):\n" << engine_lines;
    }
    sink->table = collector.table();
  }

  result.text = out.str();
  return result;
}

}  // namespace

AuditResult audit(const Observations& obs, const checker::CheckOptions& base) {
  return audit_impl(obs, base, nullptr);
}

ForensicsAudit audit_with_forensics(const Observations& obs,
                                    const checker::CheckOptions& base) {
  ForensicsAudit fa;
  fa.base = audit_impl(obs, base, &fa);
  return fa;
}

std::string render_counterexample(const checker::ReadDiagnosis& d) {
  std::ostringstream out;
  out << "  counterexample";
  if (!d.candidate_execution.empty()) {
    out << " (evidence on " << d.candidate_execution << ")";
  }
  out << ":\n";
  out << "    failing transaction: " << to_string(d.txn);
  // Under a mixed-level assignment this is the transaction's OWN level — the
  // one whose commit test it failed.
  if (d.level.has_value()) out << " (audited at " << ct::name_of(*d.level) << ")";
  out << "\n";
  if (!d.clause.empty()) out << "    violated clause: " << d.clause << "\n";
  if (d.key.has_value()) {
    out << "    implicated read: " << to_string(*d.key);
    if (d.observed_writer.has_value()) {
      out << " (observed writer " << to_string(*d.observed_writer) << ")";
    }
    out << "\n";
  }
  if (!d.candidate_states.empty()) {
    out << "    candidate read states: " << d.candidate_states << "\n";
  }
  return out.str();
}

std::string render_execution(const model::TransactionSet& txns,
                             const model::Execution& e) {
  std::ostringstream out;
  out << "  s0: all keys ⊥\n";
  StateIndex i = 1;
  for (TxnId id : e.order()) {
    const model::Transaction& t = txns.by_id(id);
    out << "  s" << i << ": apply " << to_string(id) << " {";
    bool first = true;
    for (const model::Operation& op : t.ops()) {
      if (!first) out << ", ";
      first = false;
      out << model::to_string(op);
    }
    out << "}";
    const auto state = e.materialize(txns, i);
    out << "  ->  {";
    first = true;
    for (const auto& [k, v] : state) {
      if (!first) out << ", ";
      first = false;
      out << to_string(k) << "=" << to_string(v.writer);
    }
    out << "}\n";
    ++i;
  }
  return out.str();
}

}  // namespace crooks::report
