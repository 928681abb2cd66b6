// See stream_audit.hpp. The loop deals with two realities of tailing a file
// another process writes: reads can catch the writer mid-line (a line without
// its newline yet — buffered in `partial` and completed on a later poll), and
// mid-block (a `txn` opened but its `end` not yet written — complete blocks
// are batched, the open one waits).
//
// The stream is consumed in three stages:
//   stage 1  Splitter — cuts the byte stream into complete RawBlocks and
//            owns ALL parser state that crosses block boundaries (the
//            `default-level` directive, the open-block accumulator, stream-
//            level errors). Decoding is stateless per block.
//   stage 2  decode_block — RawBlock -> transactions via parse_observations,
//            with the directive applied to unannotated transactions.
//   stage 3  OnlineChecker::append_all, once per batch at every flush.
// The error contract is "first error in line order wins, and an error drops
// its whole batch": before reporting a stream error, the loop decodes the
// pending blocks, so an earlier block's parse error is the one reported.
#include "report/stream_audit.hpp"

#include <cctype>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "report/serialize.hpp"

namespace crooks::report {

namespace {

using Clock = std::chrono::steady_clock;

/// The follow-mode series: per-batch counters the CLI's human-format lines
/// are derived from (StreamBlockReport carries the same numbers — the
/// metrics layer is the source of truth, the printf renderer one consumer).
struct FollowMetrics {
  obs::Counter& batches;
  obs::Counter& txns;
  obs::Counter& duplicates;
  obs::Histogram& batch_seconds;
  obs::Gauge& levels_alive;

  static FollowMetrics& get() {
    static FollowMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return FollowMetrics{
          r.counter("crooks_follow_batches_total",
                    "Non-empty batches audited by the streaming monitor"),
          r.counter("crooks_follow_txns_total",
                    "Transactions accepted by the streaming monitor"),
          r.counter("crooks_follow_duplicates_total",
                    "Duplicate transactions ignored by the streaming monitor"),
          r.histogram("crooks_follow_batch_seconds",
                      "append_all latency per audited batch"),
          r.gauge("crooks_follow_levels_alive",
                  "Tracked isolation levels not yet violated")};
    }();
    return m;
  }
};

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// First whitespace-separated token of `line`, with any '#' comment removed.
/// A plain character scan — the follow hot loop calls this once per input
/// line, and the istringstream it replaced paid a locale acquisition (a
/// shared refcount, i.e. a lock) per call.
std::string_view first_token(std::string_view line) {
  const std::size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  std::size_t b = 0;
  while (b < line.size() && is_space(line[b])) ++b;
  std::size_t e = b;
  while (e < line.size() && !is_space(line[e])) ++e;
  return line.substr(b, e - b);
}

/// All whitespace-separated tokens, comment stripped (same splitting as the
/// parser's tokenize, without the stream machinery).
std::vector<std::string_view> tokens_of(std::string_view line) {
  const std::size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    std::size_t e = i;
    while (e < line.size() && !is_space(line[e])) ++e;
    if (e > i) out.push_back(line.substr(i, e - i));
    i = e;
  }
  return out;
}

/// One complete `txn … end` block as cut from the raw stream by stage 1.
struct RawBlock {
  std::string text;              // the block's lines, newline-terminated
  std::uint64_t first_line = 0;  // absolute line number of its `txn` line
  /// The `default-level` directive in force when the block completed;
  /// decode_block applies it to unannotated transactions.
  std::optional<ct::IsolationLevel> default_level;
};

/// A decoded block, or a decode failure.
struct DecodedBlock {
  std::vector<model::Transaction> txns;
  /// Non-empty on failure: the fully formatted error message.
  std::string error;
};

/// Stage 2: decode one complete block; a parse failure is reported as
/// "block starting at line N: why".
DecodedBlock decode_block(const RawBlock& block) {
  DecodedBlock out;
  Observations obs;
  try {
    obs = parse_observations(block.text);
  } catch (const std::exception& e) {
    out.error = "block starting at line " + std::to_string(block.first_line) +
                ": " + e.what();
    return out;
  }
  out.txns.reserve(obs.txns.size());
  for (const model::Transaction& t : obs.txns) {
    if (block.default_level.has_value() && !t.level().has_value()) {
      // The directive in force when the block completed becomes the
      // transaction's level, exactly as an offline parse of the whole file
      // would assign it.
      out.txns.emplace_back(t.id(), t.ops(), t.session(), t.site(),
                            t.start_ts(), t.commit_ts(), block.default_level);
    } else {
      out.txns.push_back(t);
    }
  }
  return out;
}

/// Stage 1: line stream -> complete RawBlocks. Owns every piece of parser
/// state that crosses block boundaries.
struct Splitter {
  std::vector<RawBlock> pending;  // complete blocks since last flush
  std::optional<ct::IsolationLevel> default_level;
  std::uint64_t line_no = 0;
  bool in_block = false;

  // Stream-level error (a stage-1 fact, distinct from a block parse error).
  std::string error;  // formatted "line N: why"

  std::string open_block_;
  std::uint64_t open_block_line_ = 0;

  /// Consume one complete line; false on a stream-level error.
  bool consume(const std::string& line) {
    ++line_no;
    const std::string_view tok = first_token(line);
    if (in_block) {
      if (tok == "txn") return fail("'txn' inside an unfinished block");
      if (tok == "vo") return fail("'vo' inside an unfinished block");
      open_block_ += line;
      open_block_ += '\n';
      if (tok == "end") {
        in_block = false;
        pending.push_back(
            RawBlock{std::move(open_block_), open_block_line_, default_level});
        open_block_.clear();
      }
      return true;
    }
    if (tok.empty()) return true;  // blank or comment-only
    if (tok == "vo") {
      return fail(
          "version order ('vo') is not allowed in streaming mode: the "
          "monitor judges the apply order itself; use an offline check "
          "for the ∃e question");
    }
    if (tok == "default-level") {
      // Resolved here, once, and stamped onto every later block — the
      // per-block decoder stays stateless.
      const std::vector<std::string_view> toks = tokens_of(line);
      if (toks.size() != 2) {
        return fail("default-level needs: default-level <name>");
      }
      const auto level = ct::level_from_name(std::string(toks[1]));
      if (!level.has_value()) {
        return fail("unknown isolation level '" + std::string(toks[1]) +
                    "' (valid: " + std::string(ct::kValidLevelNames) + ")");
      }
      default_level = *level;
      return true;
    }
    if (tok != "txn") return fail("expected 'txn', got '" + std::string(tok) + "'");
    in_block = true;
    open_block_line_ = line_no;
    open_block_ = line;
    open_block_ += '\n';
    return true;
  }

  bool fail(std::string why) {
    error = "line " + std::to_string(line_no) + ": " + why;
    return false;
  }
};

}  // namespace

StreamAuditResult stream_audit(
    std::istream& in, const StreamAuditOptions& opts,
    const std::function<bool(const StreamBlockReport&)>& on_block) {
  StreamAuditResult result;
  checker::OnlineChecker chk(opts.levels);
  chk.set_window({opts.window_txns, opts.window_bytes});
  if (opts.on_checker) opts.on_checker(chk);

  Splitter splitter;
  std::string partial;  // line fragment read before its newline
  std::vector<model::Transaction> batch;
  bool stop = false;
  Clock::time_point last_input = Clock::now();

  // The stream-error exit: an earlier pending block's parse error wins over
  // the stream error, since it comes first in line order.
  auto stream_fail = [&]() {
    for (const RawBlock& block : splitter.pending) {
      const DecodedBlock decoded = decode_block(block);
      if (!decoded.error.empty()) {
        result.error = decoded.error;
        stop = true;
        return;
      }
    }
    result.error = splitter.error;
    stop = true;
  };

  auto flush = [&]() {
    if (stop) return;
    // Each block is decoded on its own: a writer re-emitting a transaction
    // block is a checker-level duplicate (ignored) no matter how the blocks
    // happen to batch across polls — parsing a whole batch as one document
    // would instead turn "both copies arrived in the same poll" into a
    // fatal parse error.
    for (const RawBlock& block : splitter.pending) {
      DecodedBlock decoded = decode_block(block);
      if (!decoded.error.empty()) {
        result.error = std::move(decoded.error);
        stop = true;
        splitter.pending.clear();
        return;
      }
      for (model::Transaction& t : decoded.txns) batch.push_back(std::move(t));
    }
    splitter.pending.clear();
    if (batch.empty()) return;

    const checker::OnlineChecker::Stats before = chk.stats();
    const std::vector<ct::IsolationLevel> alive_before = chk.surviving_levels();
    const Clock::time_point t0 = Clock::now();
    const std::size_t accepted =
        chk.append_all(std::span<const model::Transaction>(batch));
    const Clock::time_point t1 = Clock::now();

    StreamBlockReport rep;
    rep.block = ++result.blocks;
    rep.transactions = accepted;
    rep.duplicates = chk.stats().duplicates_ignored - before.duplicates_ignored;
    rep.seconds = std::chrono::duration<double>(t1 - t0).count();
    for (ct::IsolationLevel level : alive_before) {
      if (!chk.status(level).ok) rep.died.push_back(level);
    }
    rep.checker = &chk;
    rep.watermark = chk.watermark();
    rep.resident_txns = chk.resident_txns();
    rep.resident_ops = chk.resident_ops();

    result.transactions += accepted;
    result.duplicates += rep.duplicates;
    batch.clear();

    if (obs::enabled()) {
      FollowMetrics& m = FollowMetrics::get();
      m.batches.inc();
      m.txns.inc(accepted);
      m.duplicates.inc(rep.duplicates);
      m.batch_seconds.observe(rep.seconds);
      m.levels_alive.set(static_cast<std::int64_t>(chk.surviving_levels().size()));
    }
    if (opts.metrics_every != 0 && result.blocks % opts.metrics_every == 0) {
      rep.metrics_snapshot = obs::Registry::global().json();
    }

    if (on_block && !on_block(rep)) stop = true;
    if (opts.max_blocks != 0 && result.blocks >= opts.max_blocks) stop = true;
  };

  std::string line;
  while (!stop) {
    if (std::getline(in, line)) {
      last_input = Clock::now();
      if (in.eof()) {
        // The writer hasn't finished this line yet; hold it for later polls.
        partial += line;
        continue;
      }
      if (!splitter.consume(partial + line)) stream_fail();
      partial.clear();
      continue;
    }
    // Caught up with the stream: audit everything complete, then poll.
    if (opts.max_blocks != 0 && result.blocks + 1 >= opts.max_blocks &&
        splitter.in_block && !partial.empty() && first_token(partial) == "end") {
      // This flush is the last one --max-blocks allows, and the open block's
      // `end` already arrived minus its newline. The idle-exit path would
      // treat such a fragment as the complete final line after the loop, but
      // max_blocks stops the loop with `stop` set, skipping it — so the
      // fully-delivered block would silently never be audited. Complete it
      // here instead, so it joins the final batch.
      if (!splitter.consume(partial)) stream_fail();
      partial.clear();
    }
    flush();
    if (stop) break;
    if (opts.idle_exit_ms > 0 &&
        Clock::now() - last_input >= std::chrono::milliseconds(opts.idle_exit_ms)) {
      break;
    }
    in.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.poll_ms));
  }
  if (!stop && !partial.empty()) {
    // The writer exited without a trailing newline (idle-exit fired with a
    // buffered fragment): treat the fragment as the complete final line so a
    // block whose `end` lacks the newline is still audited.
    if (!splitter.consume(partial)) stream_fail();
    partial.clear();
  }
  flush();  // blocks completed by the final reads before a stop condition

  result.surviving = chk.surviving_levels();
  for (ct::IsolationLevel level : opts.levels) {
    result.statuses.emplace(level, chk.status(level));
  }
  result.checker_stats = chk.stats();
  return result;
}

}  // namespace crooks::report
