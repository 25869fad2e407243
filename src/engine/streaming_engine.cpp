#include "engine/streaming_engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/baselines.hpp"
#include "util/error.hpp"

namespace dpg {

namespace {

const obs::Counter g_stream_pushes = obs::counter("stream.pushes");
const obs::Counter g_stream_items = obs::counter("stream.items");
const obs::Counter g_stream_batches = obs::counter("stream.batches");
const obs::Counter g_stream_snapshots = obs::counter("stream.snapshots");
const obs::Counter g_stream_probe_chunks = obs::counter("stream.probe_chunks");
const obs::Histogram g_stream_push_ns = obs::histogram("stream.push_ns");
const obs::Histogram g_stream_batch_ns = obs::histogram("stream.batch_ns");

}  // namespace

void StreamingOptions::validate() const {
  online.validate();
  // probe_chunk == 0 simply disables the probe; any positive chunk is legal.
}

StreamingEngine::StreamingEngine(const CostModel& model,
                                 const StreamingOptions& options)
    : model_(model),
      options_(options),
      state_(model, options.online, options.item_count_hint) {
  options.validate();
  if (options_.probe_chunk > 0) probe_buffer_.reserve(options_.probe_chunk);
  if (options_.server_count_hint > 0) {
    probe_max_server_ = static_cast<ServerId>(options_.server_count_hint - 1);
  }
}

StreamingDecision StreamingEngine::push(ServerId server, Time time,
                                        std::span<const ItemId> items) {
  const std::lock_guard<std::mutex> lock(mutex_);
  require(!finished_, "StreamingEngine::push: engine already finished");

  // Per-push latency histogram; the clock reads only happen with telemetry
  // on, so the disabled hot path stays one relaxed load per counter.
  const std::uint64_t push_start_ns =
      obs::enabled() ? obs::trace_now_ns() : 0;

  // Canonicalize the row (RequestSequence rows arrive sorted and unique, so
  // this is a no-op pass on the batch path).
  row_.assign(items.begin(), items.end());
  std::sort(row_.begin(), row_.end());
  row_.erase(std::unique(row_.begin(), row_.end()), row_.end());

  const OnlineDpGreedyState::Decision d =
      state_.push(server, time, std::span<const ItemId>(row_));
  g_stream_pushes.add();
  g_stream_items.add(row_.size());

  if (options_.probe_chunk > 0) {
    probe_max_server_ = std::max(probe_max_server_, server);
    probe_buffer_.push_back(RequestDraft{server, time, row_});
    maybe_run_probe();
  }

  // Probe solves included: the histogram's tail is exactly the pushes a
  // caller would see stall.
  if (obs::enabled()) {
    g_stream_push_ns.record(obs::trace_now_ns() - push_start_ns);
  }

  StreamingDecision decision;
  decision.cost_delta = d.cost_delta;
  decision.transfers = d.transfers;
  decision.package_fetches = d.package_fetches;
  decision.pack_events = d.pack_events;
  decision.unpack_events = d.unpack_events;
  decision.repacked = d.repacked;
  decision.epoch = state_.repack_rounds();
  return decision;
}

StreamingDecision StreamingEngine::push_batch(const RequestBlock& block) {
  // Empty blocks are a documented no-op: sharded sources legitimately hand
  // out zero-row tails (a shard whose claimed range ends on a block
  // boundary, a partition that owns no flow in a block), and charging them
  // a mutex acquisition, a telemetry clock pair and a `stream.batches` bump
  // would both serialize idle shards and drag `stream.batch_ns` toward
  // zero.  The returned value-initialized decision (zero deltas, epoch 0)
  // is exactly what a zero-row loop would have produced.
  if (block.empty()) return StreamingDecision{};

  const std::lock_guard<std::mutex> lock(mutex_);
  require(!finished_, "StreamingEngine::push_batch: engine already finished");

  // One clock pair per block, not per request.
  const std::uint64_t batch_start_ns =
      obs::enabled() ? obs::trace_now_ns() : 0;

  OnlineDpGreedyState::Decision total;
  if (options_.probe_chunk == 0) {
    // Fast path: the whole block goes straight through the solver.  Rows
    // are already sorted/unique (the RequestBlock invariant), so the
    // per-push canonicalization copy is skipped.
    total = state_.push_batch(block);
  } else {
    // Probe path: buffering must interleave per row so the offline solve
    // fires at the exact same request boundary as per-row pushes.
    const std::size_t rows = block.size();
    for (std::size_t i = 0; i < rows; ++i) {
      const ServerId server = block.server_of(i);
      const Time time = block.time_of(i);
      const std::span<const ItemId> items = block.items_of(i);
      const OnlineDpGreedyState::Decision d = state_.push(server, time, items);
      total.cost_delta += d.cost_delta;
      total.transfers += d.transfers;
      total.package_fetches += d.package_fetches;
      total.pack_events += d.pack_events;
      total.unpack_events += d.unpack_events;
      total.repacked = total.repacked || d.repacked;
      probe_max_server_ = std::max(probe_max_server_, server);
      probe_buffer_.push_back(
          RequestDraft{server, time,
                       std::vector<ItemId>(items.begin(), items.end())});
      maybe_run_probe();
    }
  }

  g_stream_pushes.add(block.size());
  g_stream_items.add(block.total_items());
  g_stream_batches.add();
  if (obs::enabled()) {
    g_stream_batch_ns.record(obs::trace_now_ns() - batch_start_ns);
  }

  StreamingDecision decision;
  decision.cost_delta = total.cost_delta;
  decision.transfers = total.transfers;
  decision.package_fetches = total.package_fetches;
  decision.pack_events = total.pack_events;
  decision.unpack_events = total.unpack_events;
  decision.repacked = total.repacked;
  decision.epoch = state_.repack_rounds();
  return decision;
}

void StreamingEngine::maybe_run_probe() {
  if (probe_buffer_.size() < options_.probe_chunk) return;
  const obs::TraceSpan span("stream/probe");
  // Rebase times to the chunk start so the offline DP prices the chunk as a
  // standalone stream (absolute stream time must not inflate the μ-side).
  const Time base = probe_buffer_.front().time;
  for (RequestDraft& draft : probe_buffer_) {
    draft.time = draft.time - base + 1.0;
  }
  const std::size_t server_count =
      static_cast<std::size_t>(probe_max_server_) + 1;
  const RequestSequence chunk(server_count, state_.item_count(),
                              std::move(probe_buffer_));
  probe_buffer_.clear();  // moved-from; reset to a known state
  probe_buffer_.reserve(options_.probe_chunk);
  offline_probe_cost_ += solve_optimal_baseline(chunk, model_, {}, nullptr,
                                                 /*keep_plans=*/false)
                             .total_cost;
  online_probe_cost_ = state_.value_now().total_cost;
  ++probe_chunks_;
  g_stream_probe_chunks.add();
}

RunReport StreamingEngine::make_report(
    const OnlineDpGreedyResult& result) const {
  // The same field mapping as the registry's online_dp_greedy adapter.
  RunReport report;
  report.solver = "online_dp_greedy";
  report.total_cost = result.total_cost;
  report.raw_cost = result.total_cost;
  report.total_item_accesses = result.total_item_accesses;
  report.transfer_cost = result.transfer_cost;
  report.package_count = result.pack_events;
  report.unpack_events = result.unpack_events;
  report.transfer_events = result.transfers + result.package_fetches;
  finalize_report(report);
  return report;
}

StreamingSnapshot StreamingEngine::snapshot() {
  const std::lock_guard<std::mutex> lock(mutex_);
  require(!finished_, "StreamingEngine::snapshot: engine already finished");
  const obs::TraceSpan span("stream/snapshot");
  g_stream_snapshots.add();

  StreamingSnapshot snapshot;
  snapshot.report = make_report(state_.value_now());
  snapshot.requests = state_.requests_seen();
  snapshot.epoch = state_.repack_rounds();
  snapshot.live_packages = state_.live_packages();
  snapshot.item_count = state_.item_count();
  snapshot.online_probe_cost = online_probe_cost_;
  snapshot.offline_probe_cost = offline_probe_cost_;
  snapshot.cost_ratio = offline_probe_cost_ > 0.0
                            ? online_probe_cost_ / offline_probe_cost_
                            : 0.0;
  snapshot.probe_chunks = probe_chunks_;
  snapshot.state_alloc_events = state_.alloc_events();

  RunReport& delta = snapshot.delta;
  delta.solver = snapshot.report.solver;
  delta.total_cost = snapshot.report.total_cost - last_snapshot_.total_cost;
  delta.raw_cost = snapshot.report.raw_cost - last_snapshot_.raw_cost;
  delta.cache_cost = snapshot.report.cache_cost - last_snapshot_.cache_cost;
  delta.transfer_cost =
      snapshot.report.transfer_cost - last_snapshot_.transfer_cost;
  delta.total_item_accesses =
      snapshot.report.total_item_accesses - last_snapshot_.total_item_accesses;
  delta.package_count =
      snapshot.report.package_count - last_snapshot_.package_count;
  delta.unpack_events =
      snapshot.report.unpack_events - last_snapshot_.unpack_events;
  delta.transfer_events =
      snapshot.report.transfer_events - last_snapshot_.transfer_events;
  delta.ave_cost =
      delta.total_item_accesses == 0
          ? 0.0
          : delta.total_cost /
                static_cast<double>(delta.total_item_accesses);
  last_snapshot_ = snapshot.report;
  return snapshot;
}

RunReport StreamingEngine::finish() {
  const std::lock_guard<std::mutex> lock(mutex_);
  require(!finished_, "StreamingEngine::finish: engine already finished");
  finished_ = true;
  // Flush a partial probe chunk so the ratio covers the whole stream.
  if (options_.probe_chunk > 0 && !probe_buffer_.empty()) {
    const std::size_t full = options_.probe_chunk;
    options_.probe_chunk = probe_buffer_.size();
    maybe_run_probe();
    options_.probe_chunk = full;
  }
  return make_report(state_.finalize());
}

std::size_t StreamingEngine::requests_seen() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_.requests_seen();
}

std::size_t StreamingEngine::epoch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_.repack_rounds();
}

double StreamingEngine::cost_ratio() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return offline_probe_cost_ > 0.0 ? online_probe_cost_ / offline_probe_cost_
                                   : 0.0;
}

std::size_t StreamingEngine::probe_chunks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return probe_chunks_;
}

Cost StreamingEngine::online_probe_cost() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return online_probe_cost_;
}

Cost StreamingEngine::offline_probe_cost() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return offline_probe_cost_;
}

}  // namespace dpg
