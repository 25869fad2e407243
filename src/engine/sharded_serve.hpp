// The serve runtime: N decode shards × M engine partitions, the one engine
// behind every `dpgreedy serve` run.
//
//   shard 0 ─┐                 ┌─ partition 0 (StreamingEngine)
//   shard 1 ─┼─► SPSC rings ───┼─ partition 1 (StreamingEngine)
//     ...    │  (one per shard │    ...
//   shard N ─┘   × partition)  └─ partition M
//                                   │
//                                   ▼
//                     deterministic merge → one RunReport
//
// At N = M = 1 there is nothing to overlap, so the runtime runs inline on
// the caller's thread: claim a block, push_batch it, fire the hooks — no
// ring and no thread.  Otherwise shards claim blocks from a
// ShardClaimSource (trace/shard_source.hpp) — each claim returns the block
// plus its global sequence number — decode them (CSV) or slice them
// (sequence/`.dpt`), and route every row to the partition that owns its
// flow:
//
//   routing key   kByServer:  the row's server id (a server's whole stream
//                             lands on one partition — per-server flows are
//                             never split)
//                 kByItemSet: the row's lowest item id (rows are sorted, so
//                             this is items[0]); itemless rows fall back to
//                             the server key
//   partition     splitmix64(key [^ tag]) mod M  — a fixed avalanche hash,
//                             so the assignment is stable across runs,
//                             platforms and (N, M) block layouts
//
// Transport: one SPSC work ring and one SPSC free ring per (shard,
// partition) pair — zero CAS on the hot path; each partition sweeps its N
// inbound rings.  Envelopes recycle on the free rings, so steady state
// allocates nothing per block.  Every claimed block ships exactly one
// envelope to every partition — empty sub-blocks included (push_batch on an
// empty block is a documented no-op) — so each partition receives the dense
// sequence 0, 1, 2, … and restores canonical trace order with an
// expected-seq counter plus a holdback map, regardless of which shard
// decoded what or how the rings interleaved.
//
// Determinism contract (see docs/streaming.md for the full argument):
//   * For a fixed partition count M, the merged report and every cadence
//     snapshot are bit-identical across every shard count N, batch size,
//     ring capacity and thread schedule — each partition consumes its
//     routed sub-stream in canonical order, and the merge reduces
//     per-partition results in fixed partition-index order.
//   * At M = 1 the single partition ingests the exact global stream, so the
//     merged report is bit-identical to per-row StreamingEngine::push on
//     every trace.  For M > 1 it is bit-identical to it exactly on
//     flow-partitionable traces (streams whose cost decomposes over the
//     routed flow universes); on general traces the interleaving of
//     floating-point accumulation across partitions differs from the
//     global order, and the merged result is the canonical *partitioned*
//     answer, reproducible bit-for-bit at that M.
//
// Cadences: the runtime cuts the source's claims at every multiple of
// ServeConfig::snapshot_interval and ::stats_interval, so a block ends on
// each such row.  Those blocks are barriers: every partition contributes at
// the same global stream position (a snapshot, and its epoch), and the last
// partition to arrive merges in partition-index order and fires the hooks
// (serialized, in stream order).  The cost-ratio probe runs per partition
// over its own sub-stream; the merged ratio is Σ online / Σ offline.
//
// Error contract: a malformed row at global seq S (recorded by the source
// via atomic-min) suppresses every block after S — partitions process
// seq ≤ S in canonical order, then skip — so the engines ingest exactly the
// requests before the failure; the provenance message lands in
// ShardedServeResult::feed_error rather than an exception, because the
// partition engines (and their final reports) live inside this call.  A row
// an engine rejects (InvalidArgument from push_batch: a time that does not
// increase, say) stops the run the same way: every partition still
// finishes, the report covers the rows served, and the message lands in
// ShardedServeResult::engine_error.  At M = 1 those are exactly the rows
// before the rejected one.  At M > 1 each partition sees only its own rows,
// so time order is checked before routing: the decode shard checks the rows
// of its claimed block and cuts the block before the first that is not
// later than the one before it; every partition checks each block's first
// time against the previous block's last.  An out-of-order row then ends
// the run like a decode failure at its block — the partitions serve exactly
// the rows before it, and engine_error names it, with rejected_row, as one
// engine would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/request_block.hpp"
#include "engine/run_report.hpp"
#include "engine/serve_config.hpp"
#include "engine/streaming_engine.hpp"
#include "trace/shard_source.hpp"

namespace dpg {

/// Stable row → partition assignment (exposed for tests and docs).
[[nodiscard]] std::size_t serve_partition_of(ServerId server,
                                             std::span<const ItemId> items,
                                             ServeRoute route,
                                             std::size_t partition_count);

/// Serial-order reduction of per-partition reports into one canonical
/// report: totals and event counts summed in partition-index order (the
/// fixed FP reduction order that makes the merge deterministic), timing
/// fields take the max (partitions ran concurrently), then finalize_report
/// restores the ave/cache identities.  Merging one report is the identity.
[[nodiscard]] RunReport merge_partition_reports(
    std::span<const RunReport> parts);

/// Same reduction for snapshots: report and delta merged as above; request
/// / package / allocation counts summed; epoch takes the max (partitions
/// repack independently); item_count is summed — an upper bound, since
/// kByServer routing can discover one item on several partitions; the
/// aggregate ratio is Σ online / Σ offline.  Merging one is the identity.
[[nodiscard]] StreamingSnapshot merge_partition_snapshots(
    std::span<const StreamingSnapshot> parts);

struct ShardedServeStats {
  std::size_t requests = 0;  // rows ingested across all partitions
  std::size_t batches = 0;   // blocks claimed from the source
  std::uint64_t enqueue_blocked = 0;  // shard waits on full work rings
  std::uint64_t dequeue_blocked = 0;  // partition idle-waits for work
};

struct ShardedServeResult {
  /// The canonical merged report (merge_partition_reports of the below).
  RunReport report;
  /// Per-partition final reports, index == partition.
  std::vector<RunReport> partition_reports;
  ShardedServeStats stats;
  /// Aggregate probe ratio Σ online / Σ offline after finish() flushed
  /// every partition's partial tail chunk (0 when the probe is off).
  double cost_ratio = 0.0;
  std::size_t probe_chunks = 0;  // offline solves across all partitions
  std::size_t epoch = 0;         // max partition epoch
  /// Decode-failure provenance ("" = the stream ended cleanly).  When set,
  /// the reports cover exactly the requests before the failure.
  std::string feed_error;
  /// The engine's message for a rejected row ("" = none), prefixed with
  /// "partition j: " when M > 1 and the row is not named.  When set, the
  /// reports and stats.requests cover the rows the partitions served
  /// before it.
  std::string engine_error;
  /// The 1-based stream row engine_error rejects (0 = not named): always
  /// at M = 1, and at M > 1 for a row out of time order.
  std::size_t rejected_row = 0;
};

/// What the runtime reports while it runs.  Every hook is optional, fires
/// in stream order and never concurrently with another.
struct ServeHooks {
  /// At every multiple of snapshot_interval: the merged snapshot and the
  /// global row count it covers.
  std::function<void(const StreamingSnapshot&, std::size_t)> on_snapshot;
  /// At every multiple of stats_interval, after that row's snapshot: the
  /// global row count and the epoch (max over partitions).
  std::function<void(std::size_t, std::size_t)> on_stats;
  /// M = 1 only: each block the engine served, and how many of its leading
  /// rows it served (all but a rejected row and what follows it).  This is
  /// `serve --archive`'s feed.
  std::function<void(const RequestBlock&, std::size_t)> on_served;
};

/// Runs the serve topology to end of stream: inline at N = M = 1, else
/// config.shard_count decode threads and config.partition_count engine
/// threads, joined before returning; finishes every partition engine and
/// returns the deterministic merge.  `engine_options` configures each
/// partition engine (probe included).  Cuts the source's claims at the
/// config's cadences.  Throws only on system faults; decode errors and
/// rejected rows surface through ShardedServeResult::feed_error /
/// engine_error (see the error contract above).
ShardedServeResult run_sharded_serve(ShardClaimSource& source,
                                     const CostModel& model,
                                     const ServeConfig& config,
                                     const StreamingOptions& engine_options,
                                     const ServeHooks& hooks = {});

/// Double-buffered snapshot publication: the serve thread writes the back
/// buffer privately and swaps it in under a briefly-held mutex; readers
/// (stats printer, prom writer, HTTP scrapes) copy the front buffer under
/// the same brief mutex.  Neither side ever holds an engine mutex, so
/// observers never block ingest.
class ReportBoard {
 public:
  /// Publishes a snapshot (writer side; one writer at a time).
  void publish(StreamingSnapshot snapshot) {
    back_ = std::move(snapshot);
    const std::lock_guard<std::mutex> lock(mutex_);
    std::swap(front_, back_);
    ++version_;
  }

  /// Copies the latest published snapshot.  `version` (optional) receives
  /// the publication count — 0 means nothing has been published yet.
  [[nodiscard]] StreamingSnapshot read(std::uint64_t* version = nullptr) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (version != nullptr) *version = version_;
    return front_;
  }

 private:
  mutable std::mutex mutex_;
  StreamingSnapshot front_;
  StreamingSnapshot back_;  // writer-private between publishes
  std::uint64_t version_ = 0;
};

}  // namespace dpg
