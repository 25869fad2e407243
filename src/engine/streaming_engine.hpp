// StreamingEngine — the long-lived, push-based serving front of the online
// path.
//
// The batch entry point (solve_online_dp_greedy) answers "what would the
// online policy have cost over this materialized trace".  Production serving
// is the opposite shape: requests arrive one at a time, forever, and the
// policy must decide *now*.  StreamingEngine owns an OnlineDpGreedyState
// (solver/online_state.hpp) and exposes exactly that contract:
//
//   StreamingEngine engine(model, options);
//   for (;;) {
//     auto d = engine.push(server, time, items);   // serve one request
//     ...
//     if (tick) auto s = engine.snapshot();        // canonical RunReport,
//   }                                              // delta + ratio probe
//   RunReport final = engine.finish();
//
// Pushing a trace request-by-request is bit-identical to the batch solver at
// every window/repack/hysteresis setting — the registry's online_dp_greedy
// solver is itself this engine driven over the sequence (engine/adapters.cpp),
// so the equivalence is exercised by every golden test.
//
// Epochs.  Phase-1 re-correlation happens inside the state every
// `repack_interval` pushes: pairs whose windowed Jaccard decayed below θ/2
// dissolve, then unpartnered pairs above θ re-pack greedily (the θ / θ-over-2
// hysteresis of the online extension).  Each such round is one *epoch*;
// Decision::epoch and StreamingSnapshot::epoch expose the running count, and
// the round is visible as an "epoch/repack" span in the obs trace.
//
// Cost-ratio probe.  With probe_chunk > 0, the engine buffers every pushed
// request; each time the buffer fills it runs the offline per-item optimum
// (solve_optimal_baseline) over that chunk — times rebased to the chunk
// start, so the DP's μ-horizon is not inflated by absolute stream time — and
// accumulates its cost.  snapshot().cost_ratio is then the running
// online-vs-offline ratio: an *estimate* of the empirical competitive ratio
// (the chunked offline optimum ignores cross-chunk carry-over, making it a
// slightly pessimistic divisor), bounded-memory by construction.
//
// Memory.  Steady state allocates nothing per push: the window ring reuses
// slot capacity, scratch vectors stay warm, and a pack or split restarts
// flows in place, each keeping its replicas inline unless it outgrows them.
// snapshot().state_alloc_events is the trace.build_allocs-style counter for
// the ring and scratch — constant once warm (asserted by bench/bm_stream on
// a 10M-request run); replica spills are not counted there.
//
// Thread safety.  push / snapshot / finish are mutually serialized by an
// internal mutex, so a monitoring thread may snapshot() while another
// push()es (exercised under TSan in tests/streaming_engine_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/cost_model.hpp"
#include "core/request.hpp"
#include "core/request_block.hpp"
#include "core/types.hpp"
#include "engine/run_report.hpp"
#include "solver/online_state.hpp"

namespace dpg {

struct StreamingOptions {
  /// The online policy knobs (θ, window, repack_interval, hold_factor).
  OnlineDpGreedyOptions online;

  /// Run the offline optimal-baseline probe over every `probe_chunk` pushed
  /// requests (0 disables the probe and its buffering entirely).
  std::size_t probe_chunk = 0;

  /// Pre-size the item universe / server count (both grow on demand; the
  /// hints only avoid early growth reallocations).
  std::size_t item_count_hint = 0;
  std::size_t server_count_hint = 0;

  /// Throws InvalidArgument naming the offending field (delegates to
  /// OnlineDpGreedyOptions::validate for the policy knobs).
  void validate() const;
};

/// What one push cost and decided.
struct StreamingDecision {
  Cost cost_delta = 0.0;            // total cost charged by this push
  std::size_t transfers = 0;        // wire transfers (λ-charges)
  std::size_t package_fetches = 0;  // 2αλ package fetches (Observation 2)
  std::size_t pack_events = 0;      // pairs formed by this push's epoch
  std::size_t unpack_events = 0;    // pairs dissolved by this push's epoch
  bool repacked = false;            // this push ran an epoch re-pairing
  std::size_t epoch = 0;            // epochs completed so far (after this push)
};

/// One snapshot of the running engine.
struct StreamingSnapshot {
  /// Cumulative canonical report, as if the stream ended here: the same
  /// field mapping as the registry's online_dp_greedy report, valued
  /// non-destructively (live replicas charged to their last use).
  RunReport report;
  /// The same report's cost/event fields minus the previous snapshot's —
  /// what this snapshot interval contributed.
  RunReport delta;

  std::size_t requests = 0;       // pushes so far
  std::size_t epoch = 0;          // epochs (re-pairing rounds) so far
  std::size_t live_packages = 0;  // pairs currently packed
  std::size_t item_count = 0;     // item universe discovered so far

  // Ratio probe (zeros until the first chunk completes / probe disabled).
  Cost online_probe_cost = 0.0;   // online cost over the probed prefix
  Cost offline_probe_cost = 0.0;  // offline optimum over the same prefix
  double cost_ratio = 0.0;        // online / offline, the running estimate
  std::size_t probe_chunks = 0;   // offline solves run so far

  /// Steady-state allocation events in the policy state (ring slots +
  /// scratch growth) — constant once warm; see bench/bm_stream.
  std::uint64_t state_alloc_events = 0;
};

class StreamingEngine {
 public:
  StreamingEngine(const CostModel& model, const StreamingOptions& options);

  /// Serves one request.  `items` need not be sorted (the engine sorts and
  /// dedups into a scratch row); `time` must be strictly greater than every
  /// previous push and > 0.
  StreamingDecision push(ServerId server, Time time,
                         std::span<const ItemId> items);

  /// Serves every row of a block in trace order and returns the aggregate
  /// decision (counts summed, `repacked` if any row repacked, `epoch` after
  /// the last row).  This is the serve runtime's ingest entry: one mutex
  /// acquisition, one telemetry clock pair, and one counter update per
  /// block instead of per request — and block rows arrive
  /// pre-canonicalized (both claim sources guarantee sorted unique items),
  /// so the per-push sort/dedup copy is skipped entirely.  The engine state
  /// after push_batch is bit-identical to per-row push() at every batch
  /// size, including the ratio probe (probe buffering interleaves per row).
  ///
  /// An empty block is a no-op: no mutex, no clock pair, no counter bumps
  /// (so sharded sources delivering empty tail blocks don't skew
  /// `stream.batch_ns`), and the returned decision is value-initialized —
  /// zero deltas, epoch 0.
  StreamingDecision push_batch(const RequestBlock& block);

  /// Values the stream as if it ended now (non-destructive) and returns the
  /// canonical cumulative report, the delta since the previous snapshot and
  /// the probe state.
  StreamingSnapshot snapshot();

  /// Closes the books and returns the final canonical report.  The engine
  /// is spent afterwards (further pushes throw).
  RunReport finish();

  [[nodiscard]] std::size_t requests_seen() const;
  [[nodiscard]] std::size_t epoch() const;

  /// Running online-vs-offline ratio over the probed prefix (0 until the
  /// first chunk).  Valid after finish() too — finish flushes the partial
  /// tail chunk first, so the final ratio covers the whole stream.
  [[nodiscard]] double cost_ratio() const;
  [[nodiscard]] std::size_t probe_chunks() const;

  /// The ratio's numerator / denominator over the probed prefix (0 until
  /// the first chunk; valid after finish() too).  Exposed so a sharded
  /// merge can aggregate Σ online / Σ offline across partition engines
  /// instead of averaging per-partition ratios.
  [[nodiscard]] Cost online_probe_cost() const;
  [[nodiscard]] Cost offline_probe_cost() const;

 private:
  [[nodiscard]] RunReport make_report(const OnlineDpGreedyResult& result) const;
  void maybe_run_probe();

  mutable std::mutex mutex_;
  CostModel model_;
  StreamingOptions options_;
  OnlineDpGreedyState state_;
  bool finished_ = false;

  std::vector<ItemId> row_;  // sorted/deduped scratch for push

  // Probe state (only touched when options_.probe_chunk > 0).
  std::vector<RequestDraft> probe_buffer_;
  ServerId probe_max_server_ = 0;
  Cost offline_probe_cost_ = 0.0;
  Cost online_probe_cost_ = 0.0;
  std::size_t probe_chunks_ = 0;

  // Previous snapshot's cumulative fields, for the delta.
  RunReport last_snapshot_;
};

}  // namespace dpg
