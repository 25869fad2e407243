// The block ingest path: SpscRing, RequestBlock, the claim sources as block
// readers, push_batch, and the serve runtime at one shard and partition.
//
// The load-bearing guarantee is bit-identity: at every batch size, the
// engine state after push_batch — final report AND every intermediate
// snapshot, down to the steady-state allocation counter — equals the
// per-push engine exactly.  Blocks buy throughput by amortizing overhead,
// never by changing arithmetic.
//
// The concurrency suites (SpscRing.*, StreamingPipeline.*) run under TSan
// in CI alongside StreamingEngine.*.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dpgreedy.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

// Same fixture as streaming_engine_test.cpp: skewed Zipf popularity with
// correlated partner pulls, so epoch re-pairing actually fires.
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

// The same full-precision goldens streaming_engine_test.cpp locks the
// per-push path against.
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

const std::size_t kBatchSizes[] = {1, 7, 64, 4096};

void expect_snapshots_equal(const StreamingSnapshot& a,
                            const StreamingSnapshot& b,
                            const std::string& label) {
  EXPECT_EQ(a.report.total_cost, b.report.total_cost) << label;
  EXPECT_EQ(a.report.transfer_cost, b.report.transfer_cost) << label;
  EXPECT_EQ(a.report.ave_cost, b.report.ave_cost) << label;
  EXPECT_EQ(a.report.package_count, b.report.package_count) << label;
  EXPECT_EQ(a.report.unpack_events, b.report.unpack_events) << label;
  EXPECT_EQ(a.report.transfer_events, b.report.transfer_events) << label;
  EXPECT_EQ(a.delta.total_cost, b.delta.total_cost) << label;
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

// ---------------------------------------------------------------------------
// RequestBlock

TEST(RequestBlock, OwnedRowsCanonicalizeLikeSequenceBuilder) {
  RequestBlock block;
  block.append_row(3, 1.0, std::vector<ItemId>{5, 1, 5, 3, 1});
  block.append_row(0, 2.0, std::vector<ItemId>{9, 2});
  block.append_row(1, 3.0, std::vector<ItemId>{4, 4});
  block.append_row(2, 4.0, std::vector<ItemId>{});
  ASSERT_EQ(block.size(), 4u);
  EXPECT_EQ(block.total_items(), 6u);
  const std::vector<ItemId> row0(block.items_of(0).begin(),
                                 block.items_of(0).end());
  EXPECT_EQ(row0, (std::vector<ItemId>{1, 3, 5}));
  const std::vector<ItemId> row1(block.items_of(1).begin(),
                                 block.items_of(1).end());
  EXPECT_EQ(row1, (std::vector<ItemId>{2, 9}));
  EXPECT_EQ(block.items_of(2).size(), 1u);  // {4,4} dedups
  EXPECT_TRUE(block.items_of(3).empty());
  EXPECT_EQ(block.server_of(0), 3u);
  EXPECT_EQ(block.time_of(1), 2.0);

  block.clear();
  EXPECT_TRUE(block.empty());
  block.append_row(7, 9.0, std::vector<ItemId>{0});
  EXPECT_EQ(block.size(), 1u);
  EXPECT_EQ(block.server_of(0), 7u);
}

TEST(RequestBlock, AbortRowDiscardsTheHalfOpenRowOnly) {
  RequestBlock block;
  block.append_row(3, 1.0, std::vector<ItemId>{5, 1});
  block.begin_row(7, 2.0);
  block.push_item(9);
  block.abort_row();  // as if the rest of the item list failed to parse
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block.total_items(), 2u);
  EXPECT_EQ(block.server_of(0), 3u);
  const std::vector<ItemId> row0(block.items_of(0).begin(),
                                 block.items_of(0).end());
  EXPECT_EQ(row0, (std::vector<ItemId>{1, 5}));
  // The block stays appendable after the rollback.
  block.append_row(2, 3.0, std::vector<ItemId>{8});
  ASSERT_EQ(block.size(), 2u);
  EXPECT_EQ(block.items_of(1)[0], 8u);

  // Aborting the very first row of a fresh block is also clean.
  RequestBlock fresh;
  fresh.begin_row(0, 1.0);
  fresh.push_item(4);
  fresh.abort_row();
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(fresh.total_items(), 0u);
  fresh.abort_row();  // no row open: no-op
  EXPECT_TRUE(fresh.empty());
}

TEST(RequestBlock, AdoptViewsSequenceColumnsWithAbsoluteOffsets) {
  const RequestSequence trace = golden_trace();
  const SequenceColumns columns = trace.columns();
  const std::size_t pos = 100, n = 50;
  RequestBlock block;
  block.adopt(columns.servers.subspan(pos, n), columns.times.subspan(pos, n),
              columns.item_offsets.subspan(pos, n + 1), columns.items_pool);
  ASSERT_EQ(block.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const Request r = trace[pos + i];
    EXPECT_EQ(block.server_of(i), r.server);
    EXPECT_EQ(block.time_of(i), r.time);
    ASSERT_EQ(block.items_of(i).size(), r.items.size());
    for (std::size_t j = 0; j < r.items.size(); ++j) {
      EXPECT_EQ(block.items_of(i)[j], r.items[j]);
    }
  }
}

// ---------------------------------------------------------------------------
// Claim sources as block readers

/// Drains `source` claim by claim and checks every row against `trace`;
/// returns the last claim's rows_through.
std::size_t expect_blocks_replay_trace(ShardClaimSource& source,
                                       const RequestSequence& trace,
                                       std::size_t expected_rows) {
  RequestBlock block;
  std::uint64_t seq = 0;
  std::size_t rows_through = 0;
  std::size_t row = 0;
  while (source.claim(block, seq, rows_through)) {
    for (std::size_t i = 0; i < block.size(); ++i, ++row) {
      EXPECT_LT(row, expected_rows);
      if (row >= expected_rows) return rows_through;
      const Request r = trace[row];
      EXPECT_EQ(block.server_of(i), r.server) << "row " << row;
      EXPECT_EQ(block.time_of(i), r.time) << "row " << row;
      EXPECT_TRUE(std::equal(block.items_of(i).begin(),
                             block.items_of(i).end(), r.items.begin(),
                             r.items.end()))
          << "row " << row;
    }
    EXPECT_EQ(rows_through, row);
  }
  EXPECT_EQ(row, expected_rows);
  EXPECT_EQ(source.error_seq(), ShardClaimSource::kNoError);
  return rows_through;
}

/// A CSV of 10 good rows (`server i%3`, time i+1, items {0, 1}) followed by
/// `tail`; `bad_offset` receives the byte offset where the tail starts.
std::string ten_good_rows_then(const std::string& tail,
                               std::size_t* bad_offset = nullptr) {
  std::string csv = "server,time,items\n";
  for (int i = 0; i < 10; ++i) {
    csv += std::to_string(i % 3) + "," + std::to_string(i + 1) + ".0,0;1\n";
  }
  if (bad_offset != nullptr) *bad_offset = csv.size();
  return csv + tail;
}

TEST(BlockReader, SequenceReaderReplaysEveryRowAtEveryBatchSize) {
  const RequestSequence trace = golden_trace();
  for (const std::size_t batch : kBatchSizes) {
    SequenceClaimSource reader(trace, batch);
    expect_blocks_replay_trace(reader, trace, trace.size());
  }
}

TEST(BlockReader, CsvReaderReplaysEveryRowAtEveryBatchSize) {
  const RequestSequence trace = golden_trace();
  const std::string path =
      testing::write_temp_file("golden.csv", trace_to_csv(trace));
  for (const std::size_t batch : kBatchSizes) {
    CsvClaimSource reader(path, batch);
    EXPECT_EQ(expect_blocks_replay_trace(reader, trace, trace.size()),
              trace.size());
  }
}

TEST(BlockReader, LimitTruncatesTheStream) {
  const RequestSequence trace = golden_trace();
  SequenceClaimSource seq_reader(trace, 64, /*limit=*/100);
  expect_blocks_replay_trace(seq_reader, trace, 100);

  const std::string path =
      testing::write_temp_file("golden.csv", trace_to_csv(trace));
  CsvClaimSource csv_reader(path, 64, /*limit=*/100);
  expect_blocks_replay_trace(csv_reader, trace, 100);
}

TEST(BlockReader, MalformedRowDeliversValidPrefixThenThrowsWithProvenance) {
  // 10 good rows, then garbage: the reader must hand over the 10 decoded
  // rows first, then record the failure with path + row + byte offset and
  // end the stream.
  std::size_t bad_offset = 0;
  const std::string path = testing::write_temp_file(
      "bad.csv", ten_good_rows_then("this is not a row\n0,99.0,2\n",
                                    &bad_offset));
  CsvClaimSource reader(path, /*batch_rows=*/64);
  RequestBlock block;
  std::uint64_t seq = 0;
  std::size_t rows_through = 0;
  ASSERT_TRUE(reader.claim(block, seq, rows_through));
  EXPECT_EQ(block.size(), 10u);
  EXPECT_EQ(rows_through, 10u);
  EXPECT_EQ(reader.error_seq(), seq);
  const std::string what = reader.error_message();
  EXPECT_NE(what.find(path), std::string::npos) << what;
  EXPECT_NE(what.find("row 11"), std::string::npos) << what;
  EXPECT_NE(what.find("byte offset " + std::to_string(bad_offset)),
            std::string::npos)
      << what;
  EXPECT_FALSE(reader.claim(block, seq, rows_through));
}

TEST(BlockReader, MalformedFirstRowThrowsImmediately) {
  const std::string path =
      testing::write_temp_file("bad.csv", "server,time,items\nnot,a\n");
  CsvClaimSource reader(path, 64);
  RequestBlock block;
  std::uint64_t seq = 0;
  std::size_t rows_through = 0;
  ASSERT_TRUE(reader.claim(block, seq, rows_through));
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(reader.error_seq(), 0u);
  EXPECT_NE(reader.error_message().find("row 1"), std::string::npos);
}

TEST(BlockReader, MalformedItemListRollsBackTheHalfOpenRow) {
  // Row 11's server/time parse fine, so the decoder has already opened the
  // row (begin_row) when the item list fails.  The delivered block must
  // contain only the 10 complete rows — no trailing server/time without a
  // closing item offset — or items_of() on the last row reads out of
  // bounds downstream.
  const std::string path = testing::write_temp_file(
      "bad.csv", ten_good_rows_then("2,11.0,3;zzz\n0,99.0,2\n"));
  CsvClaimSource reader(path, /*batch_rows=*/64);
  RequestBlock block;
  std::uint64_t seq = 0;
  std::size_t rows_through = 0;
  ASSERT_TRUE(reader.claim(block, seq, rows_through));
  ASSERT_EQ(block.size(), 10u);
  EXPECT_EQ(block.total_items(), 20u);  // the bad row's items are gone too
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(block.server_of(i), static_cast<ServerId>(i % 3));
    ASSERT_EQ(block.items_of(i).size(), 2u) << "row " << i;
    EXPECT_EQ(block.items_of(i)[0], 0u);
    EXPECT_EQ(block.items_of(i)[1], 1u);
  }
  const std::string what = reader.error_message();
  EXPECT_NE(what.find(path), std::string::npos) << what;
  EXPECT_NE(what.find("row 11"), std::string::npos) << what;
}

TEST(BlockReader, MalformedItemListOnTheFirstRowOfABlockThrowsCleanly) {
  // Same failure shape, but as the block's first row: the block handed back
  // is empty, not half-open, and the failure is recorded at its seq.
  const std::string path =
      testing::write_temp_file("bad.csv", "server,time,items\n1,1.0,0;zzz\n");
  CsvClaimSource reader(path, 64);
  RequestBlock block;
  std::uint64_t seq = 0;
  std::size_t rows_through = 0;
  ASSERT_TRUE(reader.claim(block, seq, rows_through));
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.total_items(), 0u);
  EXPECT_EQ(reader.error_seq(), seq);
}

// ---------------------------------------------------------------------------
// SpscRing

TEST(SpscRing, RoundsCapacityUpToAPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
}

TEST(SpscRing, TryVariantsReportFullAndEmpty) {
  SpscRing<int> ring(2);
  int v = 1;
  EXPECT_TRUE(ring.try_push(v));
  v = 2;
  EXPECT_TRUE(ring.try_push(v));
  v = 3;
  EXPECT_FALSE(ring.try_push(v));  // full
  EXPECT_EQ(v, 3);                 // left intact
  int out = 0;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(ring.try_pop(out));  // empty
}

TEST(SpscRing, CloseDrainsPendingElementsThenEndsTheStream) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(v));
  }
  ring.close();
  int v = 99;
  EXPECT_FALSE(ring.try_push(v));  // no pushes after close
  int out = -1;
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.pop(out));
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(ring.pop(out));  // closed and drained
}

TEST(SpscRing, TransfersInOrderAcrossThreadsUnderBackpressure) {
  // Tiny ring + fast producer: both sides hit their blocking paths.  Run
  // under TSan in CI.
  constexpr int kCount = 20000;
  SpscRing<int> ring(4);
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      int v = i;
      ASSERT_TRUE(ring.push(v));
    }
    ring.close();
  });
  int expected = 0;
  int out = 0;
  while (ring.pop(out)) {
    ASSERT_EQ(out, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  // With a 4-slot ring and 20k elements, somebody must have waited.
  EXPECT_GT(ring.push_blocked() + ring.pop_blocked(), 0u);
}

// ---------------------------------------------------------------------------
// push_batch bit-identity

TEST(StreamingPipeline, PushBatchBitIdenticalAcrossGridAndBatchSizes) {
  const RequestSequence trace = golden_trace();
  for (const GoldenPoint& point : kGoldens) {
    for (const std::size_t batch : kBatchSizes) {
      StreamingOptions options;
      options.online = grid_options(point.window, point.repack);
      options.item_count_hint = trace.item_count();
      StreamingEngine batched(kModel, options);
      StreamingEngine reference(kModel, options);
      const std::string label = "window=" + std::to_string(point.window) +
                                " repack=" + std::to_string(point.repack) +
                                " batch=" + std::to_string(batch);

      SequenceClaimSource reader(trace, batch);
      RequestBlock block;
      std::uint64_t seq = 0;
      std::size_t rows_through = 0;
      std::size_t row = 0;
      while (reader.claim(block, seq, rows_through)) {
        batched.push_batch(block);
        for (std::size_t i = 0; i < block.size(); ++i, ++row) {
          const Request r = trace[row];
          reference.push(r.server, r.time, r.items);
        }
        // Every intermediate snapshot must agree, not just the final books.
        expect_snapshots_equal(batched.snapshot(), reference.snapshot(),
                               label + " @" + std::to_string(row));
      }
      const RunReport batched_final = batched.finish();
      const RunReport reference_final = reference.finish();
      EXPECT_EQ(batched_final.total_cost, point.total_cost) << label;
      EXPECT_EQ(batched_final.total_cost, reference_final.total_cost) << label;
      EXPECT_EQ(batched_final.transfer_cost, reference_final.transfer_cost)
          << label;
      EXPECT_EQ(batched_final.package_count, reference_final.package_count)
          << label;
      EXPECT_EQ(batched_final.unpack_events, reference_final.unpack_events)
          << label;
      EXPECT_EQ(batched_final.transfer_events, reference_final.transfer_events)
          << label;
    }
  }
}

TEST(StreamingPipeline, PushBatchInterleavesTheRatioProbeIdentically) {
  // With the probe armed, push_batch must buffer per row so offline solves
  // fire at the exact same request boundaries as per-push.
  const RequestSequence trace = golden_trace();
  for (const std::size_t batch : kBatchSizes) {
    StreamingOptions options;
    options.online = grid_options(50, 10);
    options.item_count_hint = trace.item_count();
    options.probe_chunk = 700;  // deliberately not a batch multiple
    StreamingEngine batched(kModel, options);
    StreamingEngine reference(kModel, options);

    SequenceClaimSource reader(trace, batch);
    RequestBlock block;
    std::uint64_t seq = 0;
    std::size_t rows_through = 0;
    while (reader.claim(block, seq, rows_through)) batched.push_batch(block);
    for (const Request& r : trace.requests()) {
      reference.push(r.server, r.time, r.items);
    }
    expect_snapshots_equal(batched.snapshot(), reference.snapshot(),
                           "probe batch=" + std::to_string(batch));
    EXPECT_EQ(batched.finish().total_cost, reference.finish().total_cost);
    EXPECT_EQ(batched.probe_chunks(), reference.probe_chunks());
    EXPECT_EQ(batched.cost_ratio(), reference.cost_ratio());
  }
}

TEST(StreamingPipeline, AdvanceBatchMatchesPerPointAdvance) {
  Rng rng(9);
  std::vector<ServicePoint> points;
  Time t = 0.0;
  for (int i = 0; i < 500; ++i) {
    points.push_back(
        ServicePoint{static_cast<ServerId>(rng.next_int(0, 7)),
                     t += 0.25 * static_cast<double>(rng.next_int(1, 5))});
  }
  OnlineOptions options;
  OnlineBreakEvenState batched(kModel, 8, 1, options);
  OnlineBreakEvenState reference(kModel, 8, 1, options);
  batched.advance_batch(points);
  for (const ServicePoint& p : points) reference.advance(p);
  EXPECT_EQ(batched.points_served(), reference.points_served());
  const OnlineResult a = batched.finish();
  const OnlineResult b = reference.finish();
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.transfer_count, b.transfer_count);
  EXPECT_EQ(a.cache_time, b.cache_time);
}

// ---------------------------------------------------------------------------
// The serve runtime at one shard and one partition (inline, no threads)

TEST(StreamingPipeline, RunServePipelineMatchesPerPushOverSequence) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  options.item_count_hint = trace.item_count();

  SequenceClaimSource source(trace, 64);
  ServeConfig config;
  config.batch(64).ring(4).snapshot_every(0);
  const ShardedServeResult result =
      run_sharded_serve(source, kModel, config, options);
  EXPECT_EQ(result.stats.requests, trace.size());
  EXPECT_EQ(result.stats.batches, (trace.size() + 63) / 64);
  EXPECT_EQ(result.report.total_cost, 23070.892026151188);
}

TEST(StreamingPipeline, RunServePipelineMatchesPerPushOverCsv) {
  const RequestSequence trace = golden_trace();
  const std::string path =
      testing::write_temp_file("golden.csv", trace_to_csv(trace));
  StreamingOptions options;
  options.online = grid_options(50, 10);

  CsvClaimSource source(path, 128);
  ServeConfig config;
  config.batch(128);
  std::size_t callback_rows = 0;
  // At one shard and one partition the runtime is inline: every hook runs
  // on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  ServeHooks hooks;
  hooks.on_served = [&](const RequestBlock& block, std::size_t rows) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(rows, block.size());
    callback_rows += rows;
  };
  hooks.on_snapshot = [&](const StreamingSnapshot& s, std::size_t rows) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(callback_rows, rows);
    EXPECT_EQ(s.requests, rows);
  };
  const ShardedServeResult result =
      run_sharded_serve(source, kModel, config, options, hooks);
  EXPECT_EQ(result.stats.requests, trace.size());
  EXPECT_EQ(callback_rows, trace.size());
  EXPECT_EQ(result.report.total_cost, 23070.892026151188);
}

TEST(StreamingPipeline, DecodeErrorSurfacesAfterTheValidPrefix) {
  // A malformed row mid-stream: every request before it is ingested and
  // finished, and the provenance reaches the caller.
  std::string csv = "server,time,items\n";
  for (int i = 0; i < 100; ++i) {
    csv += std::to_string(i % 3) + "," + std::to_string(i + 1) + ".0,0;1\n";
  }
  csv += "garbage row\n";
  csv += "0,999.0,2\n";

  StreamingOptions options;
  options.online = grid_options(8, 4);
  const std::string path = testing::write_temp_file("bad.csv", csv);
  CsvClaimSource source(path, 32);
  ServeConfig config;
  config.batch(32);
  const ShardedServeResult result =
      run_sharded_serve(source, kModel, config, options);
  EXPECT_NE(result.feed_error.find(path + ": row 101"), std::string::npos)
      << result.feed_error;
  EXPECT_EQ(result.stats.requests, 100u);
  EXPECT_GT(result.report.total_cost, 0.0);
}

TEST(StreamingPipeline, ConcurrentBoardReadersAndScrapesUnderLoad) {
  // The full observer stack under load: a two-shard serve publishes
  // snapshots to a ReportBoard from its partition thread every 30 rows
  // while (a) a reader thread copies the board and (b) HTTP scrapes hit a
  // live ScrapeListener whose /metrics body reads the same board.  Run
  // under TSan in CI.
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  options.item_count_hint = trace.item_count();

  ReportBoard board;
  obs::ScrapeListener listener("127.0.0.1", 0, [&board] {
    std::uint64_t version = 0;
    const StreamingSnapshot s = board.read(&version);
    return "requests " + std::to_string(s.requests) + "\n";
  });

  const auto scrape = [&listener](const std::string& target) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return std::string();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listener.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    std::string response;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const std::string request =
          "GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n";
      (void)!::send(fd, request.data(), request.size(), 0);
      char buffer[4096];
      for (;;) {
        const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
        if (got <= 0) break;
        response.append(buffer, static_cast<std::size_t>(got));
      }
    }
    ::close(fd);
    return response;
  };

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::uint64_t version = 0;
      const StreamingSnapshot s = board.read(&version);
      if (version > 0) {
        EXPECT_GE(s.report.total_cost, 0.0);
      }
      std::this_thread::yield();
    }
  });
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string healthz = scrape("/healthz");
      if (!healthz.empty()) {
        EXPECT_NE(healthz.find("200 OK"), std::string::npos);
      }
      const std::string metrics = scrape("/metrics");
      if (!metrics.empty()) {
        EXPECT_NE(metrics.find("requests "), std::string::npos);
      }
    }
  });

  SequenceClaimSource source(trace, 32);
  ServeConfig config;
  config.batch(32).ring(4).shards(2).snapshot_every(30);
  ServeHooks hooks;
  hooks.on_snapshot = [&board](const StreamingSnapshot& s, std::size_t) {
    board.publish(s);
  };
  const ShardedServeResult result =
      run_sharded_serve(source, kModel, config, options, hooks);
  done.store(true, std::memory_order_release);
  reader.join();
  scraper.join();
  listener.stop();

  EXPECT_EQ(board.read().requests, trace.size());
  EXPECT_EQ(result.report.total_cost, 23070.892026151188);
}

}  // namespace
}  // namespace dpg
