// The serve surface: ServeConfig (the builder every serve entry point
// parses into), serve_partition_of routing, the deterministic merge, and
// run_sharded_serve itself.
//
// The load-bearing guarantee mirrors the block suite one level up: for a
// fixed partition count M, the merged report and every cadence snapshot are
// bit-identical across every shard count, batch size and thread schedule —
// and at M = 1 they are bit-identical to the per-push engine (checked
// against the same full-precision goldens as streaming_pipeline_test.cpp).
// The reference implementation here routes rows serially through M
// engines with the same hash and snapshots at exact cadence multiples, so
// any divergence in the runtime (claim cuts, ordering, holdback, barriers,
// merge) is a test failure, not an FP tolerance.
//
// ShardedServe.* runs under TSan in CI alongside the ring suites.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dpgreedy.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

// Same fixture family as streaming_pipeline_test.cpp.
RequestSequence golden_trace() {
  Rng rng(77);
  ZipfTraceConfig config;
  config.server_count = 12;
  config.item_count = 20;
  config.request_count = 3000;
  return generate_zipf_trace(config, rng);
}

const CostModel kModel{/*mu=*/1.0, /*lambda=*/1.0, /*alpha=*/0.8};

OnlineDpGreedyOptions grid_options(std::size_t window, std::size_t repack) {
  OnlineDpGreedyOptions options;
  options.theta = 0.4;
  options.window = window;
  options.repack_interval = repack;
  return options;
}

// The per-push goldens of streaming_engine_test.cpp: at M = 1 the sharded
// merge must reproduce these exactly, whatever N does.
struct GoldenPoint {
  std::size_t window;
  std::size_t repack;
  double total_cost;
};
const GoldenPoint kGoldens[] = {
    {8, 1, 14958.483180793215},   {8, 10, 27063.124579415682},
    {8, 50, 31447.265805422317},  {50, 1, 20069.8921332885},
    {50, 10, 23070.892026151188}, {50, 50, 24267.762421796473},
    {200, 1, 24953.503597318482}, {200, 10, 25077.374114509668},
    {200, 50, 25376.592943394997},
};

void expect_reports_equal(const RunReport& a, const RunReport& b,
                          const std::string& label) {
  EXPECT_EQ(a.total_cost, b.total_cost) << label;
  EXPECT_EQ(a.raw_cost, b.raw_cost) << label;
  EXPECT_EQ(a.ave_cost, b.ave_cost) << label;
  EXPECT_EQ(a.cache_cost, b.cache_cost) << label;
  EXPECT_EQ(a.transfer_cost, b.transfer_cost) << label;
  EXPECT_EQ(a.total_item_accesses, b.total_item_accesses) << label;
  EXPECT_EQ(a.package_count, b.package_count) << label;
  EXPECT_EQ(a.unpack_events, b.unpack_events) << label;
  EXPECT_EQ(a.transfer_events, b.transfer_events) << label;
}

void expect_snapshots_equal(const StreamingSnapshot& a,
                            const StreamingSnapshot& b,
                            const std::string& label) {
  expect_reports_equal(a.report, b.report, label + " report");
  expect_reports_equal(a.delta, b.delta, label + " delta");
  EXPECT_EQ(a.requests, b.requests) << label;
  EXPECT_EQ(a.epoch, b.epoch) << label;
  EXPECT_EQ(a.live_packages, b.live_packages) << label;
  EXPECT_EQ(a.item_count, b.item_count) << label;
  EXPECT_EQ(a.online_probe_cost, b.online_probe_cost) << label;
  EXPECT_EQ(a.offline_probe_cost, b.offline_probe_cost) << label;
  EXPECT_EQ(a.cost_ratio, b.cost_ratio) << label;
  EXPECT_EQ(a.probe_chunks, b.probe_chunks) << label;
  EXPECT_EQ(a.state_alloc_events, b.state_alloc_events) << label;
}

/// The serial reference for the N×M runtime: route every row with the same
/// hash into M per-push engines in global trace order, snapshot all of them
/// (partition-index order) at every exact multiple of the snapshot cadence
/// and note the max epoch at every multiple of the stats cadence, then
/// finish + merge.  Matches ShardedServeResult field-for-field so tests
/// can diff the two directly.
struct ReferenceRun {
  ShardedServeResult result;
  std::vector<StreamingSnapshot> snapshots;
  std::vector<std::size_t> snapshot_rows;
  std::vector<std::size_t> stats_rows;
  std::vector<std::size_t> stats_epochs;
};

ReferenceRun reference_partitioned_run(const RequestSequence& trace,
                                       const ServeConfig& config,
                                       const StreamingOptions& options) {
  const std::size_t partitions = config.partition_count;
  std::vector<std::unique_ptr<StreamingEngine>> engines;
  for (std::size_t j = 0; j < partitions; ++j) {
    engines.push_back(std::make_unique<StreamingEngine>(kModel, options));
  }

  ReferenceRun run;
  for (std::size_t r = 0; r < trace.size(); ++r) {
    const std::size_t j = serve_partition_of(
        trace.server_of(r), trace.items_of(r), config.flow_route, partitions);
    engines[j]->push(trace.server_of(r), trace.time_of(r), trace.items_of(r));
    const std::size_t through = r + 1;
    if (config.snapshot_interval > 0 &&
        through % config.snapshot_interval == 0) {
      std::vector<StreamingSnapshot> parts;
      for (std::size_t p = 0; p < partitions; ++p) {
        parts.push_back(engines[p]->snapshot());
      }
      run.snapshots.push_back(merge_partition_snapshots(parts));
      run.snapshot_rows.push_back(through);
    }
    if (config.stats_interval > 0 && through % config.stats_interval == 0) {
      std::size_t epoch = 0;
      for (const auto& engine : engines) {
        epoch = std::max(epoch, engine->epoch());
      }
      run.stats_rows.push_back(through);
      run.stats_epochs.push_back(epoch);
    }
  }

  for (std::size_t j = 0; j < partitions; ++j) {
    run.result.partition_reports.push_back(engines[j]->finish());
    run.result.epoch = std::max(run.result.epoch, engines[j]->epoch());
    run.result.probe_chunks += engines[j]->probe_chunks();
  }
  run.result.report = merge_partition_reports(run.result.partition_reports);
  Cost online = 0.0;
  Cost offline = 0.0;
  for (std::size_t j = 0; j < partitions; ++j) {
    online += engines[j]->online_probe_cost();
    offline += engines[j]->offline_probe_cost();
  }
  run.result.cost_ratio = offline > 0.0 ? online / offline : 0.0;
  return run;
}

// ---------------------------------------------------------------------------
// ServeConfig

TEST(ServeConfig, DefaultsValidateAndFluentSettersChain) {
  ServeConfig config;
  EXPECT_NO_THROW(config.validate());
  config.batch(512)
      .ring(4)
      .shards(3)
      .partitions(2)
      .route(ServeRoute::kByItemSet)
      .snapshot_every(5000)
      .stats_every(100)
      .probe_chunk(256)
      .max_requests(9999)
      .listen("127.0.0.1:9100")
      .prom_out("metrics.prom");
  EXPECT_EQ(config.batch_rows, 512u);
  EXPECT_EQ(config.ring_capacity, 4u);
  EXPECT_EQ(config.shard_count, 3u);
  EXPECT_EQ(config.partition_count, 2u);
  EXPECT_EQ(config.flow_route, ServeRoute::kByItemSet);
  EXPECT_EQ(config.snapshot_interval, 5000u);
  EXPECT_EQ(config.stats_interval, 100u);
  EXPECT_EQ(config.probe_chunk_rows, 256u);
  EXPECT_EQ(config.max_request_rows, 9999u);
  EXPECT_EQ(config.listen_address, "127.0.0.1:9100");
  EXPECT_EQ(config.prom_path, "metrics.prom");
  EXPECT_NO_THROW(config.validate());
}

TEST(ServeConfig, WithParsesEveryField) {
  ServeConfig config;
  config.with("batch", "2048")
      .with("ring", "16")
      .with("shards", "4")
      .with("partitions", "8")
      .with("route", "itemset")
      .with("snapshot_every", "12345")
      .with("stats_every", "77")
      .with("probe_chunk", "500")
      .with("max_requests", "1000000")
      .with("listen", "0.0.0.0:9100")
      .with("prom_out", "/tmp/serve.prom");
  EXPECT_EQ(config.batch_rows, 2048u);
  EXPECT_EQ(config.ring_capacity, 16u);
  EXPECT_EQ(config.shard_count, 4u);
  EXPECT_EQ(config.partition_count, 8u);
  EXPECT_EQ(config.flow_route, ServeRoute::kByItemSet);
  EXPECT_EQ(config.snapshot_interval, 12345u);
  EXPECT_EQ(config.stats_interval, 77u);
  EXPECT_EQ(config.probe_chunk_rows, 500u);
  EXPECT_EQ(config.max_request_rows, 1000000u);
  EXPECT_EQ(config.listen_address, "0.0.0.0:9100");
  EXPECT_EQ(config.prom_path, "/tmp/serve.prom");

  // The archive field composes with the 1×1 restriction.
  ServeConfig archive;
  archive.with("archive", "feed.dpt");
  EXPECT_EQ(archive.archive_path, "feed.dpt");
}

TEST(ServeConfig, WithThrowsNamingTheOffense) {
  ServeConfig config;
  try {
    config.with("shardz", "2");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shardz"), std::string::npos) << what;
    EXPECT_NE(what.find("partitions"), std::string::npos)
        << "should list valid fields: " << what;
  }
  EXPECT_THROW(config.with("route", "round_robin"), InvalidArgument);
  EXPECT_THROW(config.with("batch", "not_a_number"), InvalidArgument);
  // Eager range validation at the .with call site.
  EXPECT_THROW(config.with("shards", "0"), InvalidArgument);
  EXPECT_THROW(config.with("partitions", "65"), InvalidArgument);
  // The failed calls left the config valid.
  EXPECT_NO_THROW(config.validate());
}

TEST(ServeConfig, ValidateNamesTheOffendingField) {
  const auto message_of = [](const ServeConfig& config) {
    try {
      config.validate();
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  ServeConfig config;
  config.batch_rows = 0;
  EXPECT_NE(message_of(config).find("batch"), std::string::npos);
  config = ServeConfig{};
  config.ring_capacity = 0;
  EXPECT_NE(message_of(config).find("ring"), std::string::npos);
  config = ServeConfig{};
  config.shard_count = 65;
  EXPECT_NE(message_of(config).find("shards"), std::string::npos);
  config = ServeConfig{};
  config.partition_count = 0;
  EXPECT_NE(message_of(config).find("partitions"), std::string::npos);
  config = ServeConfig{};
  config.archive_path = "feed.dpt";
  EXPECT_NO_THROW(config.validate());  // archive at 1×1 is fine
  config.shard_count = 2;
  EXPECT_NE(message_of(config).find("archive"), std::string::npos);
}

TEST(ServeConfig, RouteAndTopologyNamesRoundTrip) {
  EXPECT_EQ(parse_serve_route(serve_route_name(ServeRoute::kByServer)),
            ServeRoute::kByServer);
  EXPECT_EQ(parse_serve_route(serve_route_name(ServeRoute::kByItemSet)),
            ServeRoute::kByItemSet);
  // The transport is fixed (one SPSC ring per shard and partition), so a
  // topology is no longer a field at all.
  ServeConfig config;
  EXPECT_THROW(config.with("topology", "crossbar"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Routing

TEST(ServePartitionOf, IsStableInRangeAndRespectsTheRoute) {
  const std::vector<ItemId> items = {3, 9, 14};
  for (std::size_t m : {1u, 2u, 5u, 64u}) {
    for (ServerId server = 0; server < 50; ++server) {
      const std::size_t by_server = serve_partition_of(
          server, items, ServeRoute::kByServer, m);
      EXPECT_LT(by_server, m);
      // Stable: same inputs, same partition.
      EXPECT_EQ(by_server, serve_partition_of(server, items,
                                              ServeRoute::kByServer, m));
      // kByServer ignores the items entirely.
      EXPECT_EQ(by_server, serve_partition_of(server, std::span<const ItemId>(),
                                              ServeRoute::kByServer, m));
      EXPECT_EQ(by_server,
                serve_partition_of(server, std::vector<ItemId>{7},
                                   ServeRoute::kByServer, m));
    }
    // kByItemSet keys on the lowest item id: same front item, same
    // partition, whatever the server or the rest of the set.
    const std::size_t by_items =
        serve_partition_of(0, items, ServeRoute::kByItemSet, m);
    EXPECT_LT(by_items, m);
    EXPECT_EQ(by_items, serve_partition_of(41, std::vector<ItemId>{3, 200},
                                           ServeRoute::kByItemSet, m));
  }
  // M = 1 degenerates to partition 0 for every row and route.
  EXPECT_EQ(serve_partition_of(9, items, ServeRoute::kByItemSet, 1), 0u);
}

TEST(ServePartitionOf, ItemlessRowsFallBackToATaggedServerKey) {
  // Itemless rows under kByItemSet hash the server in a tagged universe:
  // in range and stable.  (The tag keeps server k and item k from always
  // colliding; the exact assignment is the hash's business.)
  for (ServerId server = 0; server < 20; ++server) {
    const std::size_t p = serve_partition_of(
        server, std::span<const ItemId>(), ServeRoute::kByItemSet, 8);
    EXPECT_LT(p, 8u);
    EXPECT_EQ(p, serve_partition_of(server, std::span<const ItemId>(),
                                    ServeRoute::kByItemSet, 8));
  }
}

// ---------------------------------------------------------------------------
// Merge

TEST(ShardedMerge, MergingOnePartitionIsTheBitwiseIdentity) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  StreamingEngine engine(kModel, options);
  for (std::size_t i = 0; i < 500; ++i) {
    engine.push(trace.server_of(i), trace.time_of(i), trace.items_of(i));
  }
  StreamingSnapshot snapshot = engine.snapshot();
  const StreamingSnapshot merged_snapshot =
      merge_partition_snapshots(std::span<const StreamingSnapshot>(
          &snapshot, 1));
  expect_snapshots_equal(merged_snapshot, snapshot, "single-snapshot merge");

  const RunReport report = engine.finish();
  const RunReport merged =
      merge_partition_reports(std::span<const RunReport>(&report, 1));
  expect_reports_equal(merged, report, "single-report merge");
}

TEST(ShardedMerge, SumsInPartitionIndexOrderAndRestoresIdentities) {
  RunReport a;
  a.solver = "online_dp_greedy";
  a.total_cost = 10.0;
  a.raw_cost = 10.0;
  a.transfer_cost = 4.0;
  a.total_item_accesses = 10;
  a.package_count = 2;
  a.unpack_events = 1;
  a.transfer_events = 3;
  a.phase1_seconds = 0.5;
  finalize_report(a);
  RunReport b = a;
  b.total_cost = 5.0;
  b.raw_cost = 5.0;
  b.transfer_cost = 1.0;
  b.total_item_accesses = 5;
  b.phase1_seconds = 0.25;
  finalize_report(b);

  const std::vector<RunReport> parts = {a, b};
  const RunReport merged = merge_partition_reports(parts);
  EXPECT_EQ(merged.total_cost, 15.0);
  EXPECT_EQ(merged.transfer_cost, 5.0);
  EXPECT_EQ(merged.total_item_accesses, 15u);
  EXPECT_EQ(merged.package_count, 4u);
  EXPECT_EQ(merged.transfer_events, 6u);
  EXPECT_EQ(merged.phase1_seconds, 0.5);  // max, not sum
  EXPECT_EQ(merged.ave_cost, merged.total_cost / 15.0);
  // The cache + transfer = total identity holds bit-exactly post-merge.
  EXPECT_EQ(merged.cache_cost + merged.transfer_cost, merged.total_cost);
}

// ---------------------------------------------------------------------------
// The N×M runtime: bit-identity grid

TEST(ShardedServe, GridMatchesSerialReferenceSnapshotBySnapshot) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);

  for (const std::size_t batch : {64u, 511u}) {
    for (const std::size_t partitions : {1u, 2u, 4u}) {
      ServeConfig base;
      base.batch(batch).partitions(partitions).snapshot_every(700).ring(4);
      const ReferenceRun ref =
          reference_partitioned_run(trace, base, options);
      for (const std::size_t shards : {1u, 2u, 4u}) {
        const std::string label =
            "N=" + std::to_string(shards) + " M=" +
            std::to_string(partitions) + " batch=" + std::to_string(batch);
        ServeConfig config = base;
        config.shards(shards);
        SequenceClaimSource source(trace, config.batch_rows);
        std::vector<StreamingSnapshot> snapshots;
        std::vector<std::size_t> snapshot_rows;
        ServeHooks hooks;
        hooks.on_snapshot = [&](const StreamingSnapshot& snap,
                                std::size_t rows) {
          snapshots.push_back(snap);
          snapshot_rows.push_back(rows);
        };
        const ShardedServeResult result =
            run_sharded_serve(source, kModel, config, options, hooks);

        EXPECT_TRUE(result.feed_error.empty()) << label;
        EXPECT_EQ(result.stats.requests, trace.size()) << label;
        expect_reports_equal(result.report, ref.result.report, label);
        EXPECT_EQ(result.epoch, ref.result.epoch) << label;
        ASSERT_EQ(result.partition_reports.size(), partitions) << label;
        for (std::size_t j = 0; j < partitions; ++j) {
          expect_reports_equal(result.partition_reports[j],
                               ref.result.partition_reports[j],
                               label + " partition " + std::to_string(j));
        }
        ASSERT_EQ(snapshots.size(), ref.snapshots.size()) << label;
        EXPECT_EQ(snapshot_rows, ref.snapshot_rows) << label;
        for (std::size_t s = 0; s < snapshots.size(); ++s) {
          expect_snapshots_equal(snapshots[s], ref.snapshots[s],
                                 label + " snapshot " + std::to_string(s));
        }
      }
    }
  }
}

TEST(ShardedServe, SinglePartitionReproducesThePerPushGoldens) {
  // M = 1: whatever N and the transport do, the one engine ingests the
  // exact global stream — the merged report must hit the per-push goldens
  // to the last bit.
  const RequestSequence trace = golden_trace();
  for (const GoldenPoint& golden : kGoldens) {
    StreamingOptions options;
    options.online = grid_options(golden.window, golden.repack);
    ServeConfig config;
    config.batch(64).shards(4).partitions(1);
    SequenceClaimSource source(trace, config.batch_rows);
    const ShardedServeResult result =
        run_sharded_serve(source, kModel, config, options);
    EXPECT_EQ(result.report.total_cost, golden.total_cost)
        << "w=" << golden.window << " r=" << golden.repack;
    EXPECT_EQ(result.stats.requests, trace.size());
  }
}

TEST(ShardedServe, GoldenGridMatchesReferenceAtMixedShapes) {
  // Every golden (window, repack) point at the two asymmetric shapes the
  // issue calls out, both routes.
  const RequestSequence trace = golden_trace();
  struct Shape {
    std::size_t shards;
    std::size_t partitions;
    ServeRoute route;
  };
  const Shape shapes[] = {
      {4, 2, ServeRoute::kByServer},
      {2, 4, ServeRoute::kByItemSet},
  };
  for (const Shape& shape : shapes) {
    for (const GoldenPoint& golden : kGoldens) {
      StreamingOptions options;
      options.online = grid_options(golden.window, golden.repack);
      ServeConfig config;
      config.batch(128)
          .shards(shape.shards)
          .partitions(shape.partitions)
          .route(shape.route)
          .snapshot_every(0);
      const std::string label =
          "N=" + std::to_string(shape.shards) + " M=" +
          std::to_string(shape.partitions) + " route=" +
          serve_route_name(shape.route) + " w=" +
          std::to_string(golden.window) + " r=" + std::to_string(golden.repack);
      const ReferenceRun ref =
          reference_partitioned_run(trace, config, options);
      SequenceClaimSource source(trace, config.batch_rows);
      const ShardedServeResult result =
          run_sharded_serve(source, kModel, config, options);
      expect_reports_equal(result.report, ref.result.report, label);
      EXPECT_EQ(result.epoch, ref.result.epoch) << label;
    }
  }
}

TEST(ShardedServe, ProbeAggregatesAcrossPartitions) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  options.probe_chunk = 256;
  ServeConfig config;
  config.batch(64).shards(2).partitions(2).snapshot_every(1024);
  const ReferenceRun ref = reference_partitioned_run(trace, config, options);
  SequenceClaimSource source(trace, config.batch_rows);
  std::vector<StreamingSnapshot> snapshots;
  ServeHooks hooks;
  hooks.on_snapshot = [&](const StreamingSnapshot& snap, std::size_t) {
    snapshots.push_back(snap);
  };
  const ShardedServeResult result =
      run_sharded_serve(source, kModel, config, options, hooks);
  // The probe degrades gracefully under partitioning: each partition probes
  // its own sub-stream and the aggregate is Σ online / Σ offline — equal to
  // the serial partitioned reference bit-for-bit.
  EXPECT_GT(result.probe_chunks, 0u);
  EXPECT_GT(result.cost_ratio, 0.0);
  EXPECT_EQ(result.probe_chunks, ref.result.probe_chunks);
  EXPECT_EQ(result.cost_ratio, ref.result.cost_ratio);
  ASSERT_EQ(snapshots.size(), ref.snapshots.size());
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    expect_snapshots_equal(snapshots[s], ref.snapshots[s],
                           "probe snapshot " + std::to_string(s));
  }
}

// ---------------------------------------------------------------------------
// CSV claims and the decode-error contract

TEST(ShardedServe, CsvSourceMatchesSequenceSourceBitForBit) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  ServeConfig config;
  config.batch(127).shards(4).partitions(2).snapshot_every(0);

  SequenceClaimSource seq_source(trace, config.batch_rows);
  const ShardedServeResult from_seq =
      run_sharded_serve(seq_source, kModel, config, options);

  CsvClaimSource csv_source(
      testing::write_temp_file("golden.csv", trace_to_csv(trace)),
      config.batch_rows);
  const ShardedServeResult from_csv =
      run_sharded_serve(csv_source, kModel, config, options);

  expect_reports_equal(from_csv.report, from_seq.report, "csv vs sequence");
  EXPECT_EQ(from_csv.stats.requests, trace.size());
}

TEST(ShardedServe, MalformedCsvRowServesTheValidPrefixAndReportsProvenance) {
  // 1000 good rows, then garbage mid-stream: every (N, M) must serve
  // exactly the 1000-row prefix (bit-identical to a clean run over the
  // prefix) and surface the provenance in feed_error, not an exception.
  std::string csv = "server,time,items\n";
  for (int i = 0; i < 1000; ++i) {
    csv += std::to_string(i % 5) + "," + std::to_string(i + 1) + ".0," +
           std::to_string(i % 7) + ";" + std::to_string(7 + i % 3) + "\n";
  }
  const std::size_t bad_offset = csv.size();
  csv += "this is not a row\n";
  for (int i = 0; i < 500; ++i) {
    csv += "0," + std::to_string(2000 + i) + ".0,1\n";
  }

  StreamingOptions options;
  options.online = grid_options(50, 10);

  // Clean-prefix reference per partition count: the canonical answer at a
  // given M is the M-partition run (M > 1 partitions the flows, which is a
  // different — but per-M deterministic — report than 1×1).
  const std::string path = testing::write_temp_file("bad.csv", csv);
  const auto prefix_report_at = [&](std::size_t partitions) {
    CsvClaimSource source(
        testing::write_temp_file("prefix.csv", std::string(csv, 0, bad_offset)),
        64);
    ServeConfig config;
    config.batch(64).partitions(partitions);
    return run_sharded_serve(source, kModel, config, options).report;
  };

  for (const std::size_t partitions : {1u, 2u}) {
    const RunReport prefix_report = prefix_report_at(partitions);
    for (const std::size_t shards : {1u, 4u}) {
      ServeConfig config;
      config.batch(64).shards(shards).partitions(partitions);
      CsvClaimSource source(path, config.batch_rows);
      const ShardedServeResult result =
          run_sharded_serve(source, kModel, config, options);
      const std::string label = "N=" + std::to_string(shards) + " M=" +
                                std::to_string(partitions);
      EXPECT_EQ(result.stats.requests, 1000u) << label;
      expect_reports_equal(result.report, prefix_report, label);
      EXPECT_NE(result.feed_error.find(path), std::string::npos)
          << label << ": " << result.feed_error;
      EXPECT_NE(result.feed_error.find("row 1001"), std::string::npos)
          << label << ": " << result.feed_error;
      EXPECT_NE(result.feed_error.find(
                    "byte offset " + std::to_string(bad_offset)),
                std::string::npos)
          << label << ": " << result.feed_error;
    }
  }
}

TEST(ShardedServe, RejectedRowStillFinishesEveryPartition) {
  // 600 good rows, one whose time goes backwards, then more good rows.  At
  // one partition the engine serves exactly the rows before the rejected
  // one, whatever the shard count or block size, and the result carries the
  // engine's message plus the merged report of that prefix.
  std::string csv = "server,time,items\n";
  for (int i = 0; i < 600; ++i) {
    csv += std::to_string(i % 5) + "," + std::to_string(i + 1) + ".0," +
           std::to_string(i % 7) + ";" + std::to_string(7 + i % 3) + "\n";
  }
  const std::size_t prefix_bytes = csv.size();
  csv += "2,1.5,3\n";
  for (int i = 0; i < 100; ++i) {
    csv += "0," + std::to_string(1000 + i) + ".0,1\n";
  }

  StreamingOptions options;
  options.online = grid_options(50, 10);
  const std::string path = testing::write_temp_file("ooo.csv", csv);
  CsvClaimSource prefix_source(
      testing::write_temp_file("prefix.csv", std::string(csv, 0, prefix_bytes)),
      64);
  const RunReport prefix_report =
      run_sharded_serve(prefix_source, kModel, ServeConfig{}.batch(64),
                        options)
          .report;

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t batch : {2u, 64u, 1024u}) {
      ServeConfig config;
      config.batch(batch).shards(shards);
      CsvClaimSource source(path, config.batch_rows);
      const ShardedServeResult result =
          run_sharded_serve(source, kModel, config, options);
      const std::string label =
          "N=" + std::to_string(shards) + " batch=" + std::to_string(batch);
      EXPECT_TRUE(result.feed_error.empty()) << label;
      EXPECT_NE(result.engine_error.find("strictly increasing"),
                std::string::npos)
          << label << ": " << result.engine_error;
      EXPECT_EQ(result.rejected_row, 601u) << label;
      EXPECT_EQ(result.stats.requests, 600u) << label;
      expect_reports_equal(result.report, prefix_report, label);
    }
  }

  // Across partitions a row out of time order is caught before routing and
  // named as at one partition; so is a row only an engine rejects (an
  // empty item set).
  ServeConfig config;
  config.batch(64).partitions(2);
  CsvClaimSource backwards(
      testing::write_temp_file("ooo2.csv",
                               "server,time,items\n0,2.0,1\n0,1.0,1\n"),
      config.batch_rows);
  const ShardedServeResult named =
      run_sharded_serve(backwards, kModel, config, options);
  EXPECT_EQ(named.engine_error.rfind("OnlineDpGreedyState::push: ", 0), 0u)
      << named.engine_error;
  EXPECT_EQ(named.rejected_row, 2u);
  EXPECT_EQ(named.stats.requests, 1u);

  CsvClaimSource empty_row(
      testing::write_temp_file("empty2.csv",
                               "server,time,items\n0,1.0,1\n0,2.0,\n"),
      config.batch_rows);
  const ShardedServeResult empty_named =
      run_sharded_serve(empty_row, kModel, config, options);
  EXPECT_EQ(empty_named.engine_error,
            "OnlineDpGreedyState::push: empty item set");
  EXPECT_EQ(empty_named.rejected_row, 2u);
  EXPECT_EQ(empty_named.stats.requests, 1u);
}

TEST(ShardedServe, RowsOnlyAnEngineRejectsEndEveryPartitionThere) {
  // 3000 good rows, a bad row 3001, then 3000 more good rows.  An empty
  // item set or the reserved item id passes the decoder and time order;
  // only an engine rejects it.  At every topology the run must serve
  // exactly the 3000 rows before it, as one engine would, and name it —
  // whether it sits mid-block (batch 64) or opens a block (batch 1000,
  // 3000), where no shard sees the row before it.  A row whose time also
  // goes back is named for its time, which push() checks first.
  struct BadRow {
    std::string row;
    std::string message;
  };
  const std::vector<BadRow> bad_rows = {
      {"2,3000.5,", "OnlineDpGreedyState::push: empty item set"},
      {"2,3000.5,4294967295",
       "OnlineDpGreedyState::push: item id 4294967295 is reserved"},
      {"2,1.5,",
       "OnlineDpGreedyState::push: request times must be strictly "
       "increasing, finite and > 0 (got 1.500000 after 3000.000000)"},
  };
  std::string prefix = "server,time,items\n";
  for (int i = 0; i < 3000; ++i) {
    prefix += std::to_string(i % 5) + "," + std::to_string(i + 1) + ".0," +
              std::to_string(i % 7) + ";" + std::to_string(7 + i % 3) + "\n";
  }
  std::string suffix;
  for (int i = 0; i < 3000; ++i) {
    suffix += std::to_string(i % 5) + "," + std::to_string(4000 + i) +
              ".0," + std::to_string(i % 7) + "\n";
  }
  const std::string prefix_path =
      testing::write_temp_file("engine_bad_prefix.csv", prefix);

  StreamingOptions options;
  options.online = grid_options(50, 10);
  for (std::size_t b = 0; b < bad_rows.size(); ++b) {
    const std::string path = testing::write_temp_file(
        "engine_bad_" + std::to_string(b) + ".csv",
        prefix + bad_rows[b].row + "\n" + suffix);
    for (const std::size_t partitions : {1u, 2u, 3u}) {
      CsvClaimSource prefix_source(prefix_path, 64);
      const RunReport prefix_report =
          run_sharded_serve(prefix_source, kModel,
                            ServeConfig{}.batch(64).partitions(partitions),
                            options)
              .report;
      for (const std::size_t shards : {1u, 2u, 4u}) {
        for (const std::size_t batch : {64u, 1000u, 3000u}) {
          ServeConfig config;
          config.batch(batch).shards(shards).partitions(partitions);
          CsvClaimSource source(path, config.batch_rows);
          const ShardedServeResult result =
              run_sharded_serve(source, kModel, config, options);
          const std::string label =
              "row '" + bad_rows[b].row + "' M=" + std::to_string(partitions) +
              " N=" + std::to_string(shards) +
              " batch=" + std::to_string(batch);
          EXPECT_TRUE(result.feed_error.empty()) << label;
          EXPECT_EQ(result.engine_error, bad_rows[b].message) << label;
          EXPECT_EQ(result.rejected_row, 3001u) << label;
          EXPECT_EQ(result.stats.requests, 3000u) << label;
          expect_reports_equal(result.report, prefix_report, label);
        }
      }
    }
  }
}

TEST(ShardedServe, OutOfOrderRowOpeningALaterBlockEndsEveryPartitionThere) {
  // Row 601 goes back in time and opens a block at every batch size below,
  // so no shard sees it next to the row before it: each partition checks
  // the block's first time against the previous block's last.  Every
  // partition then serves exactly the 600 rows before it, as one engine
  // would, and the run names the row.
  std::string csv = "server,time,items\n";
  for (int i = 0; i < 600; ++i) {
    csv += std::to_string(i % 5) + "," + std::to_string(i + 1) + ".0," +
           std::to_string(i % 7) + ";" + std::to_string(7 + i % 3) + "\n";
  }
  const std::size_t prefix_bytes = csv.size();
  csv += "2,1.5,3\n";
  for (int i = 0; i < 100; ++i) {
    csv += std::to_string(i % 5) + "," + std::to_string(1000 + i) + ".0,1\n";
  }
  const std::string path = testing::write_temp_file("ooo_block.csv", csv);
  const std::string prefix_path = testing::write_temp_file(
      "ooo_block_prefix.csv", std::string(csv, 0, prefix_bytes));

  StreamingOptions options;
  options.online = grid_options(50, 10);
  for (const std::size_t partitions : {2u, 3u}) {
    CsvClaimSource prefix_source(prefix_path, 64);
    const RunReport prefix_report =
        run_sharded_serve(prefix_source, kModel,
                          ServeConfig{}.batch(64).partitions(partitions),
                          options)
            .report;
    for (const std::size_t shards : {1u, 2u, 4u}) {
      for (const std::size_t batch : {2u, 100u, 600u}) {
        ServeConfig config;
        config.batch(batch).shards(shards).partitions(partitions);
        CsvClaimSource source(path, config.batch_rows);
        const ShardedServeResult result =
            run_sharded_serve(source, kModel, config, options);
        const std::string label = "M=" + std::to_string(partitions) +
                                  " N=" + std::to_string(shards) +
                                  " batch=" + std::to_string(batch);
        EXPECT_TRUE(result.feed_error.empty()) << label;
        EXPECT_EQ(result.engine_error,
                  "OnlineDpGreedyState::push: request times must be strictly "
                  "increasing, finite and > 0 (got 1.500000 after "
                  "600.000000)")
            << label;
        EXPECT_EQ(result.rejected_row, 601u) << label;
        EXPECT_EQ(result.stats.requests, 600u) << label;
        expect_reports_equal(result.report, prefix_report, label);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cadences and paced input

TEST(ShardedServe, StatsAndSnapshotsLandOnExactMultiples) {
  // Claims end at every cadence multiple, so at every N×M the hooks fire at
  // exactly the rows per-push serve prints — a snapshot, then stats, when
  // one row is a multiple of both — with the reference's epochs.
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  for (const std::size_t snapshot_every : {0u, 200u}) {
    for (const std::size_t partitions : {1u, 2u}) {
      ServeConfig base;
      base.batch(64).partitions(partitions).snapshot_every(snapshot_every)
          .stats_every(150);
      const ReferenceRun ref = reference_partitioned_run(trace, base, options);
      std::vector<std::string> expected;
      for (std::size_t s = 0, t = 0;
           s < ref.snapshot_rows.size() || t < ref.stats_rows.size();) {
        if (t == ref.stats_rows.size() ||
            (s < ref.snapshot_rows.size() &&
             ref.snapshot_rows[s] <= ref.stats_rows[t])) {
          expected.push_back("snapshot " +
                             std::to_string(ref.snapshot_rows[s++]));
        } else {
          expected.push_back("stats " + std::to_string(ref.stats_rows[t]) +
                             " epoch " + std::to_string(ref.stats_epochs[t]));
          ++t;
        }
      }
      ASSERT_EQ(ref.stats_rows.size(), trace.size() / 150);

      for (const std::size_t shards : {1u, 2u}) {
        const std::string label = "N=" + std::to_string(shards) +
                                  " M=" + std::to_string(partitions) +
                                  " every=" + std::to_string(snapshot_every);
        ServeConfig config = base;
        config.shards(shards);
        SequenceClaimSource source(trace, config.batch_rows);
        std::vector<std::string> events;
        ServeHooks hooks;
        hooks.on_snapshot = [&](const StreamingSnapshot& snap,
                                std::size_t rows) {
          EXPECT_EQ(snap.requests, rows) << label;
          events.push_back("snapshot " + std::to_string(rows));
        };
        hooks.on_stats = [&](std::size_t rows, std::size_t epoch) {
          events.push_back("stats " + std::to_string(rows) + " epoch " +
                           std::to_string(epoch));
        };
        (void)run_sharded_serve(source, kModel, config, options, hooks);
        EXPECT_EQ(events, expected) << label;
      }
    }
  }
}

TEST(ShardedServe, PausedPipeGetsTheSnapshotForTheRowsThatArrived) {
  // The header and 200 rows, then a pause with the pipe held open: the
  // snapshot for row 200 must reach the hook before the rest is written,
  // at one decode shard and at two.
  const RequestSequence trace = golden_trace();
  const std::string csv = trace_to_csv(trace);
  std::size_t cut = 0;
  for (int line = 0; line < 201; ++line) cut = csv.find('\n', cut) + 1;
  const std::string_view head = std::string_view(csv).substr(0, cut);
  const std::string_view rest = std::string_view(csv).substr(cut);

  StreamingOptions options;
  options.online = grid_options(50, 10);
  for (const std::size_t shards : {1u, 2u}) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const auto write_all = [fd = fds[1]](std::string_view bytes) {
      while (!bytes.empty()) {
        const ssize_t n = ::write(fd, bytes.data(), bytes.size());
        if (n <= 0) return;
        bytes.remove_prefix(static_cast<std::size_t>(n));
      }
    };
    std::atomic<bool> snapshot_200{false};
    bool arrived_during_pause = false;
    std::thread writer([&] {
      write_all(head);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!snapshot_200.load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      arrived_during_pause = snapshot_200.load();
      write_all(rest);
      ::close(fds[1]);
    });

    CsvClaimSource source(fds[0], "<pipe>", 1024);
    ServeConfig config;
    config.shards(shards).snapshot_every(200);
    ServeHooks hooks;
    hooks.on_snapshot = [&](const StreamingSnapshot&, std::size_t rows) {
      if (rows == 200) snapshot_200.store(true);
    };
    const ShardedServeResult result =
        run_sharded_serve(source, kModel, config, options, hooks);
    writer.join();
    ::close(fds[0]);
    EXPECT_TRUE(arrived_during_pause) << "N=" << shards;
    EXPECT_TRUE(result.feed_error.empty()) << result.feed_error;
    EXPECT_EQ(result.stats.requests, trace.size());
  }
}

// ---------------------------------------------------------------------------
// push_batch empty-block contract (the no-op the sharded topology relies on)

TEST(ShardedServe, EmptyPushBatchIsAStrictNoOp) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  StreamingEngine engine(kModel, options);
  for (std::size_t i = 0; i < 200; ++i) {
    engine.push(trace.server_of(i), trace.time_of(i), trace.items_of(i));
  }
  const StreamingSnapshot before = engine.snapshot();

  const RequestBlock empty;
  const StreamingDecision decision = engine.push_batch(empty);
  EXPECT_EQ(decision.cost_delta, 0.0);
  EXPECT_EQ(decision.transfers, 0u);
  EXPECT_EQ(decision.package_fetches, 0u);
  EXPECT_EQ(decision.pack_events, 0u);
  EXPECT_EQ(decision.unpack_events, 0u);
  EXPECT_FALSE(decision.repacked);
  EXPECT_EQ(decision.epoch, 0u);  // value-initialized, documented

  StreamingSnapshot after = engine.snapshot();
  EXPECT_EQ(after.requests, before.requests);
  EXPECT_EQ(after.report.total_cost, before.report.total_cost);
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.state_alloc_events, before.state_alloc_events);
  EXPECT_EQ(after.delta.total_cost, 0.0);  // the interval contributed nothing

  // And the engine still works afterwards.
  engine.push(trace.server_of(200), trace.time_of(200), trace.items_of(200));
  EXPECT_EQ(engine.requests_seen(), 201u);
}

}  // namespace
}  // namespace dpg
