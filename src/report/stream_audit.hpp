// Streaming audit: tail a growing observation stream through OnlineChecker.
//
// This is the library behind `crooks-check --follow`: it reads the plain-text
// observation format (serialize.hpp) from a stream that may still be growing
// (a history file another process appends to), groups complete `txn … end`
// blocks into batches, and feeds each batch to OnlineChecker::append_all —
// one CompiledDelta per batch, so a monitor that runs for days never leaves
// the compiled path. It lives in the report library (not the CLI) so tests
// can exercise the tailing loop in-process, including under ThreadSanitizer
// with a concurrent writer.
//
// Batching semantics: while input is available, complete blocks accumulate;
// whenever the reader catches up with the stream (EOF), everything
// accumulated is appended as one batch and reported via the callback. At EOF
// the stream's failbit is cleared and reading resumes after `poll_ms` —
// tail -f semantics — until `idle_exit_ms` passes without new input,
// `max_blocks` batches have been audited, or the callback returns false.
//
// `vo` (version order) lines are rejected: the streaming verdict is about the
// apply order itself, and the offline ∃e checkers own the version-order
// question. A `default-level` directive between blocks is handled by the
// stream splitter (stage 1) and applied to every later unannotated
// transaction, so the level column of the compiled stream matches what an
// offline parse of the same file would build.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "checker/online.hpp"

namespace crooks::report {

struct StreamAuditOptions {
  /// Levels the monitor tracks (default: all ten).
  std::vector<ct::IsolationLevel> levels = {ct::kAllLevels.begin(),
                                            ct::kAllLevels.end()};
  /// Sleep between polls once the reader has caught up with the stream.
  int poll_ms = 50;
  /// Stop after this long without any new input; 0 = keep tailing forever
  /// (until max_blocks or the callback stops the audit).
  int idle_exit_ms = 0;
  /// Stop after this many non-empty batches; 0 = unbounded.
  std::uint64_t max_blocks = 0;
  /// Every N-th audited batch carries a JSON metrics snapshot
  /// (StreamBlockReport::metrics_snapshot) scraped from the global registry;
  /// 0 = never. `crooks-check --follow --metrics-every=N` renders these as
  /// `metrics {...}` lines interleaved with the human-format output.
  std::uint64_t metrics_every = 0;
  /// Bounded-memory window (`crooks-check --window=N`): keep at most this
  /// many transactions resident, retiring the prefix into the checker's
  /// summarized base. 0 = unbounded (the pre-window behavior).
  std::size_t window_txns = 0;
  /// Byte-estimate variant (`--window-bytes=B`); both may be set, the
  /// tighter limit wins. See OnlineChecker::WindowOptions.
  std::size_t window_bytes = 0;
  /// Invoked once on the freshly constructed checker, before any input is
  /// read. `crooks-check --forensics --follow` attaches its forensics
  /// Collector here (the collector must outlive the audit call).
  std::function<void(checker::OnlineChecker&)> on_checker = {};
};

/// One audited batch (all complete transaction blocks available at a poll).
struct StreamBlockReport {
  std::uint64_t block = 0;       // 1-based batch number
  std::size_t transactions = 0;  // accepted by the checker in this batch
  std::size_t duplicates = 0;    // ignored (id already in the stream)
  double seconds = 0;            // append_all latency for this batch
  /// Levels whose first violation happened in this batch.
  std::vector<ct::IsolationLevel> died;
  const checker::OnlineChecker* checker = nullptr;  // state after the batch
  /// One-line JSON scrape of the metrics registry; non-empty only on every
  /// StreamAuditOptions::metrics_every-th batch.
  std::string metrics_snapshot;
  /// Window state after the batch (all 0 / == transactions when unwindowed).
  std::uint64_t watermark = 0;       // transactions retired so far
  std::size_t resident_txns = 0;     // transactions still resident
  std::size_t resident_ops = 0;      // compiled op rows still resident
};

struct StreamAuditResult {
  std::uint64_t blocks = 0;
  std::size_t transactions = 0;
  std::size_t duplicates = 0;
  /// Parse/format failure that aborted the audit; empty on a clean exit.
  std::string error;
  std::vector<ct::IsolationLevel> surviving;
  std::map<ct::IsolationLevel, checker::OnlineChecker::LevelStatus> statuses;
  checker::OnlineChecker::Stats checker_stats;
};

/// Tail `in`, auditing each batch of complete transaction blocks. `on_block`
/// (optional) is invoked after every non-empty batch; returning false stops
/// the audit after that batch.
StreamAuditResult stream_audit(
    std::istream& in, const StreamAuditOptions& opts = {},
    const std::function<bool(const StreamBlockReport&)>& on_block = {});

}  // namespace crooks::report
