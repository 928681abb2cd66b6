#include "report/serialize.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

namespace crooks::report {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& why) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + why);
}

/// Split a line into tokens, dropping comments.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss(line);
  std::string tok;
  while (ss >> tok) {
    if (tok[0] == '#') break;
    out.push_back(tok);
  }
  return out;
}

std::uint64_t parse_u64(const std::string& s, std::size_t line, const char* what) {
  // std::stoull would accept a sign ("-1" wraps to 2^64-1): digits only.
  if (s.empty() || s[0] < '0' || s[0] > '9') {
    fail(line, std::string("bad ") + what + ": '" + s + "'");
  }
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(s, &used);
    if (used != s.size()) fail(line, std::string("bad ") + what + ": '" + s + "'");
    return v;
  } catch (const std::invalid_argument&) {
    fail(line, std::string("bad ") + what + ": '" + s + "'");
  } catch (const std::out_of_range&) {
    fail(line, std::string("out-of-range ") + what + ": '" + s + "'");
  }
}

/// A 32-bit id attribute; values that do not fit are rejected, not
/// truncated. `max` excludes a reserved sentinel (kNoSession).
std::uint32_t parse_u32(const std::string& s, std::size_t line, const char* what,
                        std::uint32_t max = std::numeric_limits<std::uint32_t>::max()) {
  const std::uint64_t v = parse_u64(s, line, what);
  if (v > max) fail(line, std::string("out-of-range ") + what + ": '" + s + "'");
  return static_cast<std::uint32_t>(v);
}

Timestamp parse_ts(const std::string& s, std::size_t line, const char* what) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(s, &used);
    if (used != s.size()) fail(line, std::string("bad ") + what + ": '" + s + "'");
    return v;
  } catch (const std::exception&) {
    fail(line, std::string("bad ") + what + ": '" + s + "'");
  }
}

ct::IsolationLevel parse_level(const std::string& s, std::size_t line) {
  if (const auto l = ct::level_from_name(s)) return *l;
  fail(line, "unknown isolation level '" + s +
                 "' (valid: " + std::string(ct::kValidLevelNames) + ")");
}

}  // namespace

Observations parse_observations(std::istream& in) {
  std::vector<model::Transaction> txns;
  std::unordered_map<Key, std::vector<TxnId>> vo;
  std::optional<ct::IsolationLevel> default_level;

  std::string line;
  std::size_t lineno = 0;

  // Open-transaction state.
  bool open = false;
  TxnId id{};
  SessionId session = kNoSession;
  SiteId site{0};
  Timestamp start = kNoTimestamp, commit = kNoTimestamp;
  std::optional<ct::IsolationLevel> level;
  std::vector<model::Operation> ops;

  auto close = [&](std::size_t at) {
    if (!open) fail(at, "'end' without 'txn'");
    txns.emplace_back(id, std::move(ops), session, site, start, commit, level);
    ops = {};
    open = false;
  };

  while (std::getline(in, line)) {
    ++lineno;
    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;

    if (tok[0] == "txn") {
      if (open) fail(lineno, "'txn' while another transaction is open");
      if (tok.size() < 2) fail(lineno, "txn needs an id");
      open = true;
      id = TxnId{parse_u64(tok[1], lineno, "txn id")};
      session = kNoSession;
      site = SiteId{0};
      start = commit = kNoTimestamp;
      level = std::nullopt;
      for (std::size_t i = 2; i < tok.size(); ++i) {
        const auto eq = tok[i].find('=');
        if (eq == std::string::npos) fail(lineno, "expected key=value: '" + tok[i] + "'");
        const std::string key = tok[i].substr(0, eq);
        const std::string val = tok[i].substr(eq + 1);
        if (key == "session") {
          session = SessionId{parse_u32(val, lineno, "session", kNoSession.value - 1)};
        } else if (key == "site") {
          site = SiteId{parse_u32(val, lineno, "site")};
        } else if (key == "start") {
          start = parse_ts(val, lineno, "start");
        } else if (key == "commit") {
          commit = parse_ts(val, lineno, "commit");
        } else if (key == "level") {
          level = parse_level(val, lineno);
        } else {
          fail(lineno, "unknown attribute '" + key + "'");
        }
      }
    } else if (tok[0] == "read") {
      if (!open) fail(lineno, "'read' outside a transaction");
      if (tok.size() < 3) fail(lineno, "read needs: read <key> <writer> [phantom]");
      const Key k{parse_u64(tok[1], lineno, "key")};
      const TxnId w{parse_u64(tok[2], lineno, "writer")};
      const bool phantom = tok.size() > 3 && tok[3] == "phantom";
      if (tok.size() > 3 && !phantom) fail(lineno, "unexpected token '" + tok[3] + "'");
      ops.push_back(phantom ? model::Operation::read_intermediate(k, w)
                            : model::Operation::read(k, w));
    } else if (tok[0] == "write") {
      if (!open) fail(lineno, "'write' outside a transaction");
      if (tok.size() != 2) fail(lineno, "write needs: write <key>");
      ops.push_back(model::Operation::write(Key{parse_u64(tok[1], lineno, "key")}, id));
    } else if (tok[0] == "end") {
      close(lineno);
    } else if (tok[0] == "vo") {
      if (open) fail(lineno, "'vo' inside a transaction");
      if (tok.size() < 2) fail(lineno, "vo needs: vo <key> <id...>");
      auto& order = vo[Key{parse_u64(tok[1], lineno, "key")}];
      for (std::size_t i = 2; i < tok.size(); ++i) {
        order.push_back(TxnId{parse_u64(tok[i], lineno, "txn id")});
      }
    } else if (tok[0] == "default-level") {
      if (open) fail(lineno, "'default-level' inside a transaction");
      if (tok.size() != 2) fail(lineno, "default-level needs: default-level <name>");
      default_level = parse_level(tok[1], lineno);
    } else {
      fail(lineno, "unknown directive '" + tok[0] + "'");
    }
  }
  if (open) fail(lineno, "unterminated transaction (missing 'end')");

  return {model::TransactionSet(std::move(txns)), std::move(vo), default_level};
}

Observations parse_observations(const std::string& text) {
  std::istringstream ss(text);
  return parse_observations(ss);
}

void write_observations(std::ostream& out, const Observations& obs) {
  if (obs.default_level.has_value()) {
    out << "default-level " << ct::name_of(*obs.default_level) << "\n";
  }
  for (const model::Transaction& t : obs.txns) {
    out << "txn " << t.id().value;
    if (t.session() != kNoSession) out << " session=" << t.session().value;
    if (t.site() != SiteId{0}) out << " site=" << t.site().value;
    if (t.start_ts() != kNoTimestamp) out << " start=" << t.start_ts();
    if (t.commit_ts() != kNoTimestamp) out << " commit=" << t.commit_ts();
    if (t.level().has_value()) out << " level=" << ct::name_of(*t.level());
    out << "\n";
    for (const model::Operation& op : t.ops()) {
      if (op.is_read()) {
        out << "  read " << op.key.value << " " << op.value.writer.value
            << (op.value.phantom ? " phantom" : "") << "\n";
      } else {
        out << "  write " << op.key.value << "\n";
      }
    }
    out << "end\n";
  }
  for (const auto& [key, order] : obs.version_order) {
    out << "vo " << key.value;
    for (TxnId id : order) out << " " << id.value;
    out << "\n";
  }
}

std::string to_text(const Observations& obs) {
  std::ostringstream ss;
  write_observations(ss, obs);
  return ss.str();
}

}  // namespace crooks::report
