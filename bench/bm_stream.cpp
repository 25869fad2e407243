// Streaming-engine perf harness: sustained push ingest rate, the O(window)
// steady-state memory ceiling, snapshot latency under load, the running
// online-vs-offline cost-ratio probe, a two-shard serve (decode on two
// threads, push_batch on a third) vs the serial per-row loop, and the N×M
// topology vs its serial anchors — emitted as the "streaming",
// "streaming_pipeline" and
// "streaming_sharded" sections of a fragment for dpgreedy_bench to merge
// (see bench/harness/fragment.hpp).
//
// The load-bearing number is the memory ceiling: the stream must hold the
// engine's allocation count *exactly flat* after warm-up — the window ring,
// scratch vectors and package-slot free list are O(window + m + items),
// never O(n).  The harness asserts it (exact engine counters, not RSS
// sampling) and additionally records peak RSS before/after so a baseline
// diff localizes any regression.
//
// Usage: bm_stream [--fragment FILE] [--requests N]
// (default: bm_stream.fragment.json in the CWD, 10M requests; the quick CI
// tier runs 1M — every gate on this section is size-independent.)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/serve_config.hpp"
#include "engine/sharded_serve.hpp"
#include "engine/streaming_engine.hpp"
#include "trace/shard_source.hpp"
#include "harness/fragment.hpp"
#include "harness_common.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace dpg {
namespace {

// The synthetic serving workload: Zipf-skewed popularity over a small item
// universe with a fixed-partner co-access pull (the regime where epoch
// re-pairing keeps firing), generated procedurally so the harness itself is
// O(1) in stream length — materializing 10M requests up front would defeat
// the point of the memory ceiling.
struct StreamSource {
  Rng rng{4242};
  std::size_t server_count = 24;
  std::size_t item_count = 64;
  double co_access = 0.5;
  Time t = 0.0;
  std::vector<ItemId> items;

  void next() {
    t += 0.125 * static_cast<Time>(rng.next_int(1, 8));
    items.clear();
    // Crude Zipf skew: min of two uniforms biases towards small ids.
    const ItemId a = static_cast<ItemId>(
        std::min(rng.next_below(item_count), rng.next_below(item_count)));
    items.push_back(a);
    if (rng.next_bool(co_access)) {
      const ItemId partner = a ^ 1u;
      if (partner < item_count && partner != a) items.push_back(partner);
    }
  }

  [[nodiscard]] ServerId server() {
    return static_cast<ServerId>(rng.next_below(server_count));
  }
};

StreamingOptions stream_options() {
  StreamingOptions options;
  options.online.theta = 0.4;
  options.online.window = 256;
  options.online.repack_interval = 64;
  return options;
}

/// The main ingest run: `requests` pushes, snapshots on a fixed cadence.
struct IngestReport {
  std::size_t requests = 0;
  std::size_t window = 0;
  double ingest_s = 0.0;
  double requests_per_s = 0.0;
  std::size_t epochs = 0;
  std::size_t live_packages = 0;
  Cost total_cost = 0.0;
  // The ceiling: engine allocation events at the warm-up mark vs the end.
  std::uint64_t allocs_warm = 0;
  std::uint64_t allocs_final = 0;
  bool allocs_flat = false;
  // Snapshot latency over the run (mean / worst, milliseconds).
  std::size_t snapshots = 0;
  double snapshot_mean_ms = 0.0;
  double snapshot_max_ms = 0.0;
  std::uint64_t rss_before = 0;
  std::uint64_t rss_after = 0;
};

IngestReport run_ingest(std::size_t requests) {
  const CostModel model{1.0, 1.0, 0.8};
  StreamingOptions options = stream_options();
  StreamSource source;
  options.item_count_hint = source.item_count;
  options.server_count_hint = source.server_count;
  StreamingEngine engine(model, options);

  IngestReport report;
  report.requests = requests;
  report.window = options.online.window;
  report.rss_before = harness::peak_rss_bytes();

  // Warm-up: several windows + repacks, enough for every scratch vector and
  // the pair-count map to reach steady shape.
  const std::size_t warm_mark =
      std::min(requests / 2, 100 * options.online.window);
  const std::size_t snapshot_every = std::max<std::size_t>(requests / 10, 1);

  double snapshot_total_ms = 0.0;
  Stopwatch ingest_watch;
  for (std::size_t i = 1; i <= requests; ++i) {
    source.next();
    engine.push(source.server(), source.t, source.items);
    if (i == warm_mark) {
      report.allocs_warm = engine.snapshot().state_alloc_events;
    }
    if (i % snapshot_every == 0) {
      Stopwatch snap_watch;
      const StreamingSnapshot snapshot = engine.snapshot();
      const double ms = snap_watch.elapsed_seconds() * 1e3;
      snapshot_total_ms += ms;
      report.snapshot_max_ms = std::max(report.snapshot_max_ms, ms);
      ++report.snapshots;
      report.allocs_final = snapshot.state_alloc_events;
      report.epochs = snapshot.epoch;
      report.live_packages = snapshot.live_packages;
    }
  }
  report.ingest_s = ingest_watch.elapsed_seconds();
  report.requests_per_s =
      static_cast<double>(requests) / std::max(report.ingest_s, 1e-12);
  report.snapshot_mean_ms =
      report.snapshots > 0
          ? snapshot_total_ms / static_cast<double>(report.snapshots)
          : 0.0;
  report.total_cost = engine.finish().total_cost;
  report.allocs_flat = report.allocs_final == report.allocs_warm;
  report.rss_after = harness::peak_rss_bytes();
  return report;
}

/// The ratio probe at bench scale: a shorter stream with the chunked offline
/// optimum enabled, recording the running competitive-ratio estimate and the
/// per-epoch cadence it is refreshed at.
struct ProbeReport {
  std::size_t requests = 0;
  std::size_t probe_chunk = 0;
  std::size_t probe_chunks = 0;
  std::size_t epochs = 0;
  double cost_ratio = 0.0;
  double ingest_s = 0.0;  // probe solves included — the serving-path cost
};

ProbeReport run_probe(std::size_t requests) {
  const CostModel model{1.0, 1.0, 0.8};
  StreamingOptions options = stream_options();
  options.probe_chunk = 10000;
  StreamSource source;
  options.item_count_hint = source.item_count;
  options.server_count_hint = source.server_count;
  StreamingEngine engine(model, options);

  ProbeReport report;
  report.requests = requests;
  report.probe_chunk = options.probe_chunk;
  Stopwatch watch;
  for (std::size_t i = 0; i < requests; ++i) {
    source.next();
    engine.push(source.server(), source.t, source.items);
  }
  (void)engine.finish();
  report.ingest_s = watch.elapsed_seconds();
  report.probe_chunks = engine.probe_chunks();
  report.cost_ratio = engine.cost_ratio();
  report.epochs = engine.epoch();
  return report;
}

/// A two-shard serve (2×1: decode on two threads, push_batch on a third)
/// vs the serial per-row loop, both reading the same on-disk CSV so the
/// comparison includes the decode work the threads overlap with ingest.
/// The trace is streamed to disk row by row (never materialized) so the
/// harness stays O(window + batch) in memory.
struct PipelineReport {
  std::size_t requests = 0;
  std::size_t batch_rows = 0;
  std::size_t ring_capacity = 0;
  std::uint64_t trace_bytes = 0;
  double serial_s = 0.0;
  double serial_requests_per_s = 0.0;
  double pipeline_s = 0.0;
  double pipeline_requests_per_s = 0.0;
  double speedup = 0.0;
  bool multicore = false;      // >= 2 hardware threads: the 2x gate arms
  bool bit_identical = false;  // 2x1 final report == serial final report
  Cost total_cost = 0.0;
  std::uint64_t allocs_warm = 0;
  std::uint64_t allocs_final = 0;
  bool allocs_flat = false;
  std::uint64_t enqueue_blocked = 0;
  std::uint64_t dequeue_blocked = 0;
};

std::uint64_t write_trace_csv(const std::string& path, std::size_t requests) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  require(file != nullptr, "bm_stream: cannot write " + path);
  std::fputs("server,time,items\n", file);
  StreamSource source;
  for (std::size_t i = 0; i < requests; ++i) {
    source.next();
    const ServerId server = source.server();
    // t advances in exact 0.125 steps, so %.3f round-trips bit-exactly.
    if (source.items.size() == 2) {
      std::fprintf(file, "%u,%.3f,%u;%u\n", server, source.t, source.items[0],
                   source.items[1]);
    } else {
      std::fprintf(file, "%u,%.3f,%u\n", server, source.t, source.items[0]);
    }
  }
  const long bytes = std::ftell(file);
  std::fclose(file);
  return bytes > 0 ? static_cast<std::uint64_t>(bytes) : 0;
}

StreamingOptions pipeline_options() {
  StreamingOptions options = stream_options();
  StreamSource shape;  // only for the universe hints
  options.item_count_hint = shape.item_count;
  options.server_count_hint = shape.server_count;
  return options;
}

bool reports_identical(const RunReport& a, const RunReport& b) {
  return a.total_cost == b.total_cost && a.raw_cost == b.raw_cost &&
         a.cache_cost == b.cache_cost && a.transfer_cost == b.transfer_cost &&
         a.total_item_accesses == b.total_item_accesses &&
         a.package_count == b.package_count &&
         a.unpack_events == b.unpack_events &&
         a.transfer_events == b.transfer_events &&
         a.cache_segments == b.cache_segments;
}

/// The serial anchor: one-thread decode through the CSV claim source, then
/// one StreamingEngine::push per row, into engines[route(row)].
template <typename Route>
void push_rows(const std::string& trace_path,
               std::vector<std::unique_ptr<StreamingEngine>>& engines,
               const Route& route) {
  CsvClaimSource source(trace_path, ServeConfig{}.batch_rows);
  RequestBlock block;
  std::uint64_t seq = 0;
  std::size_t rows_through = 0;
  while (source.claim(block, seq, rows_through)) {
    for (std::size_t r = 0; r < block.size(); ++r) {
      engines[route(block.server_of(r), block.items_of(r))]->push(
          block.server_of(r), block.time_of(r), block.items_of(r));
    }
  }
  require(source.error_seq() == ShardClaimSource::kNoError,
          "bm_stream: " + source.error_message());
}

/// One engine per partition, all with the harness options.
std::vector<std::unique_ptr<StreamingEngine>> make_engines(
    std::size_t count, const CostModel& model,
    const StreamingOptions& options) {
  std::vector<std::unique_ptr<StreamingEngine>> engines;
  for (std::size_t j = 0; j < count; ++j) {
    engines.push_back(std::make_unique<StreamingEngine>(model, options));
  }
  return engines;
}

/// A timed serve run that snapshots every tenth of the stream, recording
/// the merged allocation count at the first snapshot past the warm-up mark
/// and at the last.
struct TimedServe {
  ShardedServeResult result;
  double seconds = 0.0;
  std::uint64_t allocs_warm = 0;
  std::uint64_t allocs_final = 0;
  bool allocs_flat = false;
};

TimedServe timed_serve(const std::string& trace_path, ServeConfig config,
                       const CostModel& model,
                       const StreamingOptions& options, std::size_t requests) {
  TimedServe timed;
  config.snapshot_every(std::max<std::size_t>(requests / 10, 1));
  CsvClaimSource source(trace_path, config.batch_rows);
  const std::size_t warm_mark =
      std::min(requests / 2, 100 * options.online.window);
  bool warm_done = false;
  ServeHooks hooks;
  hooks.on_snapshot = [&](const StreamingSnapshot& s, std::size_t rows) {
    if (!warm_done && rows >= warm_mark) {
      timed.allocs_warm = s.state_alloc_events;
      warm_done = true;
    }
    timed.allocs_final = s.state_alloc_events;
  };
  Stopwatch watch;
  timed.result = run_sharded_serve(source, model, config, options, hooks);
  timed.seconds = watch.elapsed_seconds();
  timed.allocs_flat = warm_done && timed.allocs_final == timed.allocs_warm;
  require(timed.result.feed_error.empty(),
          "bm_stream: " + timed.result.feed_error);
  return timed;
}

PipelineReport run_pipeline_compare(const std::string& trace_path,
                                    std::size_t requests) {
  PipelineReport report;
  report.requests = requests;
  report.multicore = std::thread::hardware_concurrency() >= 2;
  report.trace_bytes = write_trace_csv(trace_path, requests);
  const CostModel model{1.0, 1.0, 0.8};
  const StreamingOptions options = pipeline_options();

  // Serial baseline: one-thread decode and one engine.push() per row.
  RunReport serial_report;
  {
    auto engines = make_engines(1, model, options);
    Stopwatch watch;
    push_rows(trace_path, engines, [](ServerId, std::span<const ItemId>) {
      return std::size_t{0};
    });
    report.serial_s = watch.elapsed_seconds();
    serial_report = engines[0]->finish();
  }

  // Two decode shards, one engine partition: `serve --shards 2`.
  ServeConfig config;  // serve defaults: batch 1024, ring 8
  config.shards(2);
  report.batch_rows = config.batch_rows;
  report.ring_capacity = config.ring_capacity;
  const TimedServe timed =
      timed_serve(trace_path, config, model, options, requests);
  report.pipeline_s = timed.seconds;
  report.allocs_warm = timed.allocs_warm;
  report.allocs_final = timed.allocs_final;
  report.allocs_flat = timed.allocs_flat;
  report.enqueue_blocked = timed.result.stats.enqueue_blocked;
  report.dequeue_blocked = timed.result.stats.dequeue_blocked;

  report.serial_requests_per_s =
      static_cast<double>(requests) / std::max(report.serial_s, 1e-12);
  report.pipeline_requests_per_s =
      static_cast<double>(requests) / std::max(report.pipeline_s, 1e-12);
  report.speedup = report.serial_s / std::max(report.pipeline_s, 1e-12);
  report.bit_identical = reports_identical(serial_report, timed.result.report);
  report.total_cost = timed.result.report.total_cost;
  std::remove(trace_path.c_str());
  return report;
}

/// The N×M topology against its two determinism anchors, plus the
/// throughput floor: a 2×1 run must reproduce the 1×1 (inline) report
/// bit-for-bit (M = 1 ingests the exact global stream), and a 2×2 run by
/// item set must reproduce a serial routed two-engine reference (the
/// canonical partitioned answer).  Timing compares the 2×2 run to the
/// serial per-row loop over the same on-disk CSV.
struct ShardedReport {
  std::size_t requests = 0;
  std::size_t shards = 2;
  std::size_t partitions = 2;
  std::size_t batch_rows = 0;
  std::size_t ring_capacity = 0;
  double serial_s = 0.0;
  double serial_requests_per_s = 0.0;
  double sharded_s = 0.0;
  double sharded_requests_per_s = 0.0;
  double speedup = 0.0;
  bool multicore = false;  // >= 4 hardware threads: the 2x gate arms
  bool bit_identical = false;         // 2x1 == 1x1 (and serial)
  bool partitioned_identical = false;  // 2x2 == routed serial reference
  Cost total_cost = 0.0;
  std::uint64_t allocs_warm = 0;
  std::uint64_t allocs_final = 0;
  bool allocs_flat = false;
  std::uint64_t enqueue_blocked = 0;
  std::uint64_t dequeue_blocked = 0;
};

ShardedReport run_sharded_compare(const std::string& trace_path,
                                  std::size_t requests) {
  ShardedReport report;
  report.requests = requests;
  report.multicore = std::thread::hardware_concurrency() >= 4;
  write_trace_csv(trace_path, requests);
  const CostModel model{1.0, 1.0, 0.8};
  const StreamingOptions eopts = pipeline_options();

  // Anchor 1: the 1×1 report, served inline (its own anchor is the
  // per-row loop, so matching it transitively matches both).
  RunReport inline_report;
  {
    CsvClaimSource source(trace_path, ServeConfig{}.batch_rows);
    inline_report =
        run_sharded_serve(source, model, ServeConfig{}, eopts).report;
  }

  // Timing baseline: the serial per-row loop (decode + push, one thread).
  {
    auto engines = make_engines(1, model, eopts);
    Stopwatch watch;
    push_rows(trace_path, engines, [](ServerId, std::span<const ItemId>) {
      return std::size_t{0};
    });
    report.serial_s = watch.elapsed_seconds();
    (void)engines[0]->finish();
  }

  // 2×1: two decode shards, one engine partition — bit-identity required.
  {
    ServeConfig config;
    config.shards(2).partitions(1);
    CsvClaimSource source(trace_path, config.batch_rows);
    const ShardedServeResult result =
        run_sharded_serve(source, model, config, eopts);
    report.bit_identical = result.feed_error.empty() &&
                           reports_identical(result.report, inline_report);
  }

  // Anchor 2: the serial routed reference for M = 2 by item set — decode on
  // one thread, route every row with the same hash, merge in partition
  // order.  This is the canonical partitioned answer the 2×2 run must hit.
  RunReport reference_report;
  {
    auto engines = make_engines(2, model, eopts);
    push_rows(trace_path, engines,
              [](ServerId server, std::span<const ItemId> items) {
                return serve_partition_of(server, items,
                                          ServeRoute::kByItemSet, 2);
              });
    std::vector<RunReport> parts;
    parts.reserve(engines.size());
    for (auto& engine : engines) parts.push_back(engine->finish());
    reference_report = merge_partition_reports(parts);
  }

  // The timed 2×2 run, snapshotting on the ingest cadence for the
  // allocation ceiling (merged state_alloc_events sums the partitions).
  ServeConfig config;
  config.shards(2).partitions(2).route(ServeRoute::kByItemSet);
  report.batch_rows = config.batch_rows;
  report.ring_capacity = config.ring_capacity;
  const TimedServe timed =
      timed_serve(trace_path, config, model, eopts, requests);
  report.sharded_s = timed.seconds;
  report.partitioned_identical =
      reports_identical(timed.result.report, reference_report);
  report.total_cost = timed.result.report.total_cost;
  report.enqueue_blocked = timed.result.stats.enqueue_blocked;
  report.dequeue_blocked = timed.result.stats.dequeue_blocked;
  report.allocs_warm = timed.allocs_warm;
  report.allocs_final = timed.allocs_final;
  report.allocs_flat = timed.allocs_flat;

  report.serial_requests_per_s =
      static_cast<double>(requests) / std::max(report.serial_s, 1e-12);
  report.sharded_requests_per_s =
      static_cast<double>(requests) / std::max(report.sharded_s, 1e-12);
  report.speedup = report.serial_s / std::max(report.sharded_s, 1e-12);
  std::remove(trace_path.c_str());
  return report;
}

int run(const std::string& fragment_path, std::size_t requests) {
  std::printf("streaming ingest (%zu requests) ...\n", requests);
  const IngestReport ingest = run_ingest(requests);
  std::printf("ratio probe ...\n");
  const ProbeReport probe = run_probe(std::min<std::size_t>(requests, 200000));
  // Sampled before the CSV comparisons so the streaming section's RSS
  // gate keeps measuring the engine alone, not the CSV decode buffers.
  const std::uint64_t streaming_peak_rss = harness::peak_rss_bytes();
  std::printf("2x1 serve vs per-row (%zu requests via on-disk CSV) ...\n",
              requests);
  const PipelineReport pipeline =
      run_pipeline_compare(fragment_path + ".trace.csv", requests);
  std::printf("sharded 2x1/2x2 vs serial (%zu requests via on-disk CSV) ...\n",
              requests);
  const ShardedReport sharded =
      run_sharded_compare(fragment_path + ".sharded.csv", requests);

  std::ostringstream section;
  section.setf(std::ios::fixed);
  section.precision(3);
  section << "{\"requests\": " << ingest.requests
          << ", \"window\": " << ingest.window
          << ", \"ingest_s\": " << ingest.ingest_s
          << ", \"requests_per_s\": " << ingest.requests_per_s
          << ", \"epochs\": " << ingest.epochs
          << ", \"live_packages\": " << ingest.live_packages
          << ", \"total_cost\": " << ingest.total_cost
          << ", \"allocs_warm\": " << ingest.allocs_warm
          << ", \"allocs_final\": " << ingest.allocs_final
          << ", \"allocs_flat\": " << (ingest.allocs_flat ? "true" : "false")
          << ", \"snapshots\": " << ingest.snapshots
          << ", \"snapshot_mean_ms\": " << ingest.snapshot_mean_ms
          << ", \"snapshot_max_ms\": " << ingest.snapshot_max_ms
          << ", \"rss_before_bytes\": " << ingest.rss_before
          << ", \"rss_after_bytes\": " << ingest.rss_after
          << ", \"ratio_probe\": {\"requests\": " << probe.requests
          << ", \"probe_chunk\": " << probe.probe_chunk
          << ", \"probe_chunks\": " << probe.probe_chunks
          << ", \"epochs\": " << probe.epochs
          << ", \"cost_ratio\": " << probe.cost_ratio
          << ", \"ingest_s\": " << probe.ingest_s
          << "}, \"peak_rss_bytes\": " << streaming_peak_rss << "}";

  std::ostringstream pipe_section;
  pipe_section.setf(std::ios::fixed);
  pipe_section.precision(3);
  pipe_section << "{\"requests\": " << pipeline.requests
               << ", \"batch_rows\": " << pipeline.batch_rows
               << ", \"ring_capacity\": " << pipeline.ring_capacity
               << ", \"trace_bytes\": " << pipeline.trace_bytes
               << ", \"serial_s\": " << pipeline.serial_s
               << ", \"serial_requests_per_s\": "
               << pipeline.serial_requests_per_s
               << ", \"pipeline_s\": " << pipeline.pipeline_s
               << ", \"pipeline_requests_per_s\": "
               << pipeline.pipeline_requests_per_s
               << ", \"speedup\": " << pipeline.speedup << ", \"multicore\": "
               << (pipeline.multicore ? "true" : "false")
               << ", \"bit_identical\": "
               << (pipeline.bit_identical ? "true" : "false")
               << ", \"total_cost\": " << pipeline.total_cost
               << ", \"allocs_warm\": " << pipeline.allocs_warm
               << ", \"allocs_final\": " << pipeline.allocs_final
               << ", \"allocs_flat\": "
               << (pipeline.allocs_flat ? "true" : "false")
               << ", \"enqueue_blocked\": " << pipeline.enqueue_blocked
               << ", \"dequeue_blocked\": " << pipeline.dequeue_blocked
               << ", \"peak_rss_bytes\": " << harness::peak_rss_bytes() << "}";

  std::ostringstream shard_section;
  shard_section.setf(std::ios::fixed);
  shard_section.precision(3);
  shard_section << "{\"requests\": " << sharded.requests
                << ", \"shards\": " << sharded.shards
                << ", \"partitions\": " << sharded.partitions
                << ", \"batch_rows\": " << sharded.batch_rows
                << ", \"ring_capacity\": " << sharded.ring_capacity
                << ", \"serial_s\": " << sharded.serial_s
                << ", \"serial_requests_per_s\": "
                << sharded.serial_requests_per_s
                << ", \"sharded_s\": " << sharded.sharded_s
                << ", \"sharded_requests_per_s\": "
                << sharded.sharded_requests_per_s
                << ", \"speedup\": " << sharded.speedup << ", \"multicore\": "
                << (sharded.multicore ? "true" : "false")
                << ", \"bit_identical\": "
                << (sharded.bit_identical ? "true" : "false")
                << ", \"partitioned_identical\": "
                << (sharded.partitioned_identical ? "true" : "false")
                << ", \"total_cost\": " << sharded.total_cost
                << ", \"allocs_warm\": " << sharded.allocs_warm
                << ", \"allocs_final\": " << sharded.allocs_final
                << ", \"allocs_flat\": "
                << (sharded.allocs_flat ? "true" : "false")
                << ", \"enqueue_blocked\": " << sharded.enqueue_blocked
                << ", \"dequeue_blocked\": " << sharded.dequeue_blocked
                << ", \"peak_rss_bytes\": " << harness::peak_rss_bytes()
                << "}";

  const int status = bench::write_fragment(
      fragment_path, {{"streaming", section.str()},
                      {"streaming_pipeline", pipe_section.str()},
                      {"streaming_sharded", shard_section.str()}});
  if (status == 0) std::printf("wrote %s\n", fragment_path.c_str());

  std::printf(
      "ingest: %zu requests in %.2fs (%.2fM req/s)  %zu epochs  "
      "%zu packages live  cost %.2f\n",
      ingest.requests, ingest.ingest_s, ingest.requests_per_s / 1e6,
      ingest.epochs, ingest.live_packages, ingest.total_cost);
  std::printf(
      "memory ceiling: allocs warm %llu -> final %llu (%s)  rss %.1f -> "
      "%.1f MiB\n",
      static_cast<unsigned long long>(ingest.allocs_warm),
      static_cast<unsigned long long>(ingest.allocs_final),
      ingest.allocs_flat ? "FLAT" : "GREW",
      static_cast<double>(ingest.rss_before) / (1024.0 * 1024.0),
      static_cast<double>(ingest.rss_after) / (1024.0 * 1024.0));
  std::printf("snapshot latency: mean %.3f ms  max %.3f ms over %zu\n",
              ingest.snapshot_mean_ms, ingest.snapshot_max_ms,
              ingest.snapshots);
  std::printf(
      "ratio probe: %zu requests, %zu chunks of %zu -> ratio %.3f "
      "(%zu epochs, %.2fs with offline solves)\n",
      probe.requests, probe.probe_chunks, probe.probe_chunk, probe.cost_ratio,
      probe.epochs, probe.ingest_s);

  std::printf(
      "pipeline: serial %.2fs (%.2fM req/s) -> 2x1 %.2fs (%.2fM req/s) "
      " speedup %.2fx (%s)  reports %s  allocs %llu -> %llu (%s)  blocked "
      "enq %llu deq %llu\n",
      pipeline.serial_s, pipeline.serial_requests_per_s / 1e6,
      pipeline.pipeline_s, pipeline.pipeline_requests_per_s / 1e6,
      pipeline.speedup, pipeline.multicore ? "multicore" : "single core",
      pipeline.bit_identical ? "IDENTICAL" : "DIVERGED",
      static_cast<unsigned long long>(pipeline.allocs_warm),
      static_cast<unsigned long long>(pipeline.allocs_final),
      pipeline.allocs_flat ? "FLAT" : "GREW",
      static_cast<unsigned long long>(pipeline.enqueue_blocked),
      static_cast<unsigned long long>(pipeline.dequeue_blocked));

  std::printf(
      "sharded: serial %.2fs (%.2fM req/s) -> 2x2 %.2fs (%.2fM req/s)  "
      "speedup %.2fx (%s)  2x1 vs 1x1 %s  2x2 vs reference %s  allocs "
      "%llu -> %llu (%s)  blocked enq %llu deq %llu\n",
      sharded.serial_s, sharded.serial_requests_per_s / 1e6, sharded.sharded_s,
      sharded.sharded_requests_per_s / 1e6, sharded.speedup,
      sharded.multicore ? "multicore" : "single core",
      sharded.bit_identical ? "IDENTICAL" : "DIVERGED",
      sharded.partitioned_identical ? "IDENTICAL" : "DIVERGED",
      static_cast<unsigned long long>(sharded.allocs_warm),
      static_cast<unsigned long long>(sharded.allocs_final),
      sharded.allocs_flat ? "FLAT" : "GREW",
      static_cast<unsigned long long>(sharded.enqueue_blocked),
      static_cast<unsigned long long>(sharded.dequeue_blocked));

  // The acceptance gate: O(window) steady state — the engine's allocation
  // count is bit-flat from warm-up to the end of a 10M-request stream — the
  // probe produced a live ratio, the 2x1 serve reproduced the serial
  // report bit-exactly, and the 2x2 topology reproduced both of
  // its anchors (the 2x throughput floors are enforced by the registry
  // gates, armed only on multicore hosts).
  const bool pass = ingest.allocs_flat && probe.probe_chunks > 0 &&
                    probe.cost_ratio > 0.0 && pipeline.bit_identical &&
                    pipeline.allocs_flat && sharded.bit_identical &&
                    sharded.partitioned_identical && sharded.allocs_flat;
  std::printf("streaming acceptance: %s\n", pass ? "PASS" : "FAIL");
  return status != 0 ? status : (pass ? 0 : 2);
}

}  // namespace
}  // namespace dpg

int main(int argc, char** argv) {
  std::string fragment = "bm_stream.fragment.json";
  std::size_t requests = 10000000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--requests" && i + 1 < argc) {
      requests = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--fragment" && i + 1 < argc) {
      fragment = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bm_stream [--fragment FILE] [--requests N]\n");
      return 2;
    }
  }
  return dpg::run(fragment, requests);
}
