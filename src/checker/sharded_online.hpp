// Pipelined, session-sharded front-end for the streaming monitor.
//
// The streaming audit path was the one engine tier still pinned to a single
// core: `report::stream_audit` parsed, compiled and checked every block on
// the tailing thread. Profiling the follow loop shows the split is lopsided —
// decoding a transaction block out of the plain-text observation format costs
// microseconds (tokenizer, attribute parsing, Transaction construction),
// more than appending the decoded transaction to a start-only
// OnlineChecker. ShardedOnlineChecker exploits exactly that asymmetry with
// a three-stage pipeline:
//
//   stage 1 (caller)   splits the raw byte stream into complete transaction
//                      blocks, resolves the `default-level` directive, and
//                      submits one EPOCH (= one serial flush batch) at a time;
//   stage 2 (N shards) decode their session-partitioned subset of the epoch's
//                      blocks into model::Transactions — the expensive,
//                      embarrassingly parallel work;
//   stage 3 (merge)    reassembles each epoch in stream order and appends it
//                      to the ONE authoritative OnlineChecker, which runs the
//                      cross-session checks exactly as the serial monitor
//                      does: extend() compilation, the per-transaction
//                      commit tests, real-time/retroactive scans, PSI
//                      closure, and windowed retirement at the global
//                      watermark.
//
// Admissibility is deliberately NOT sharded: PREREAD, the RA fracture
// comparison, per-key timelines and the PSI PREC closure are all properties
// of the global apply-order prefix, so a session-local verdict would be
// unsound. Keeping one authoritative checker on the merge thread makes the
// strict contract hold by construction: verdicts, first-violation witnesses,
// Stats totals and forensics JSON are byte-identical to the serial monitor
// at every shard count, under windowing and in assigned-level mode — the
// speedup comes from parallel decode plus pipelining the three stages.
//
// Transport is the bounded Vyukov MpmcQueue (common/thread_pool.hpp): a full
// ring blocks the producer (backpressure), so a slow merge stage throttles
// the shards and the shards throttle stage 1 — nothing is ever dropped, and
// crooks_ingest_ring_dropped_total exists purely as a tripwire asserting so.
//
// Epochs are sequenced: the merge stage buffers shard results until every
// shard has reported an epoch, appends epochs strictly in submission order,
// and reconciles errors to the exact serial semantics (the first error in
// LINE order wins; an epoch with any error is discarded whole, matching the
// serial loop's drop-the-batch-on-error behavior).
//
// The block decoder is injected (`BlockDecoder`) rather than calling
// report::parse_observations directly: the checker library stays independent
// of the report/serialization layer, the differential tests can wrap any
// decoder, and a future ingest adapter (e.g. Elle/Jepsen EDN histories) plugs
// in a different decoder without touching the pipeline.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checker/online.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace crooks::checker {

/// One complete `txn … end` block as cut from the raw stream by stage 1.
struct RawBlock {
  std::string text;           ///< the block's lines, newline-terminated
  std::uint64_t first_line = 0;  ///< absolute line number of its `txn` line
  /// Shard routing key (the session id of the block's transaction; 0 when
  /// sessionless or unparsable — a malformed block may route anywhere, its
  /// decode error is identical on every shard).
  std::uint64_t route = 0;
  /// The `default-level` directive in force when the block completed; the
  /// decoder applies it to unannotated transactions. Resolved by stage 1 so
  /// shard workers never share parser state.
  std::optional<ct::IsolationLevel> default_level;
};

/// A decoded block, or a decode failure.
struct DecodedBlock {
  std::vector<model::Transaction> txns;
  /// Non-empty on failure: the fully formatted error message (the pipeline
  /// reports it verbatim). error_line orders concurrent failures — the
  /// smallest line wins, matching the serial first-error semantics.
  std::string error;
  std::uint64_t error_line = 0;
};

using BlockDecoder = std::function<DecodedBlock(const RawBlock&)>;

class ShardedOnlineChecker {
 public:
  struct Options {
    /// Decode shard workers (stage 2). At least 1; one shard still pipelines
    /// decode against check on separate threads.
    std::size_t shards = 2;
    /// Epochs stage 1 may run ahead of the merge stage before submit()
    /// blocks (per-shard input-ring capacity).
    std::size_t max_inflight_epochs = 4;
    /// Uniform-mode levels (ignored when track_assigned is set).
    std::vector<ct::IsolationLevel> levels = {ct::kAllLevels.begin(),
                                              ct::kAllLevels.end()};
    /// Mixed-level monitor: OnlineChecker(kTrackAssigned, assigned_fallback).
    bool track_assigned = false;
    ct::IsolationLevel assigned_fallback = ct::IsolationLevel::kSerializable;
    /// Bounded-memory window, applied to the authoritative checker.
    OnlineChecker::WindowOptions window{};
    /// REQUIRED: turns a RawBlock into transactions on a shard worker. Must
    /// be thread-safe for concurrent calls on distinct blocks.
    BlockDecoder decoder;
    /// Invoked once on the freshly constructed checker before any thread
    /// starts (the forensics Collector attaches here, as in stream_audit).
    std::function<void(OnlineChecker&)> on_checker;
  };

  /// One appended epoch, reported from the merge thread after its
  /// append_all. Mirrors report::StreamBlockReport's checker-derived fields.
  struct EpochReport {
    std::uint64_t epoch = 0;       ///< 1-based; == the serial batch number
    std::size_t transactions = 0;  ///< accepted by the checker
    std::size_t duplicates = 0;
    double seconds = 0;  ///< merge-side append_all latency
    std::vector<ct::IsolationLevel> died;
    const OnlineChecker* checker = nullptr;
    std::uint64_t watermark = 0;
    std::size_t resident_txns = 0;
    std::size_t resident_ops = 0;
  };
  /// Runs on the merge thread; returning false stops the pipeline after
  /// this epoch (later epochs are discarded), like the serial callback.
  using EpochCallback = std::function<bool(const EpochReport&)>;

  ShardedOnlineChecker(Options opts, EpochCallback on_epoch = {});
  ~ShardedOnlineChecker();  // finish()es if the caller did not

  ShardedOnlineChecker(const ShardedOnlineChecker&) = delete;
  ShardedOnlineChecker& operator=(const ShardedOnlineChecker&) = delete;

  /// Submit one epoch of complete blocks (stage 1's flush boundary — cut
  /// exactly where the serial monitor would cut a batch, so batch numbering
  /// and metrics totals line up). Blocks are partitioned by `route` across
  /// the shard rings; an empty vector is a no-op. Returns false once the
  /// pipeline has stopped (error or callback), in which case the epoch is
  /// discarded — exactly what the serial loop does with a batch after stop.
  /// Single-producer: one thread submits.
  bool submit(std::vector<RawBlock> blocks);

  /// Stage 1 hit a stream-level error at `line` (a `vo` line, a `txn` inside
  /// an unfinished block, an unknown directive …). The pending blocks are
  /// decoded for validation but never appended; the reported error is the
  /// first in line order among their decode errors and this one — byte-for-
  /// byte the serial semantics, where an earlier block's parse error fires
  /// before a later stream error is ever read. Stops the pipeline.
  bool submit_error(std::vector<RawBlock> pending, std::uint64_t line,
                    std::string message);

  /// True once an error or a false-returning callback stopped the pipeline.
  /// Stage 1 polls this to stop reading input early.
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  struct Result {
    std::uint64_t epochs = 0;  ///< appended epochs == serial batch count
    std::size_t transactions = 0;
    std::size_t duplicates = 0;
    std::string error;  ///< first error in line order; empty on clean exit
  };

  /// Drain the pipeline and join all threads. Idempotent; after it returns
  /// the checker is quiescent and may be read from the calling thread.
  const Result& finish();

  /// The authoritative checker. Only the merge thread touches it while the
  /// pipeline runs; call finish() first (or read from the epoch callback,
  /// which runs on the merge thread).
  const OnlineChecker& checker() const { return chk_; }

  std::size_t shards() const { return in_.size(); }

 private:
  struct ShardTask {
    enum class Kind : std::uint8_t { kAppend, kValidateOnly, kStop };
    Kind kind = Kind::kAppend;
    std::uint64_t epoch = 0;
    /// (sequence within epoch, block): sequence restores stream order at
    /// the merge after shards decode out of order.
    std::vector<std::pair<std::uint32_t, RawBlock>> blocks;
  };
  struct ShardResult {
    ShardTask::Kind kind = ShardTask::Kind::kAppend;
    std::uint64_t epoch = 0;
    std::vector<std::pair<std::uint32_t, model::Transaction>> txns;
    std::string error;
    std::uint64_t error_line = 0;
  };
  /// Per-shard cached metric references (labels are resolved once here, not
  /// per block on the hot path).
  struct ShardMetrics {
    obs::Counter& blocks;
    obs::Counter& appends;
    obs::Counter& submit_stalls;
    obs::Counter& result_stalls;
    obs::Gauge& queue_depth;
    obs::Histogram& decode_seconds;
  };

  void shard_loop(std::size_t shard);
  void merge_loop();
  void process_epoch(std::vector<std::unique_ptr<ShardResult>> results);
  bool submit_tasks(std::vector<RawBlock> blocks, ShardTask::Kind kind);

  Options opts_;
  EpochCallback on_epoch_;
  OnlineChecker chk_;

  std::vector<std::unique_ptr<MpmcQueue<std::unique_ptr<ShardTask>>>> in_;
  MpmcQueue<std::unique_ptr<ShardResult>> results_;

  std::atomic<bool> stopped_{false};
  std::uint64_t next_epoch_ = 0;  // submit thread only
  // Stage-1 error, written by submit_error BEFORE its epoch is pushed and
  // read by the merge thread AFTER popping that epoch's results (the ring's
  // release/acquire pair orders the accesses).
  std::uint64_t stage1_error_epoch_ = 0;
  std::uint64_t stage1_error_line_ = 0;
  std::string stage1_error_;

  Result result_;  // merge thread until joined, then the finish() caller
  bool finished_ = false;

  std::vector<ShardMetrics> shard_metrics_;
  obs::Counter& epochs_counter_;
  obs::Counter& merge_stalls_counter_;
  obs::Counter& dropped_counter_;  // tripwire: never incremented
  obs::Gauge& merge_depth_gauge_;

  std::vector<std::thread> shard_threads_;
  std::thread merge_thread_;
};

}  // namespace crooks::checker
