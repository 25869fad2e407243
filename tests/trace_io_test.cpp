#include <gtest/gtest.h>

#include "test_support.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "trace/generators.hpp"
#include "trace/io.hpp"
#include "trace/shard_source.hpp"
#include "util/error.hpp"

namespace dpg {
namespace {

TEST(TraceIo, CsvRoundTripPreservesEverything) {
  PairedTraceConfig config;
  config.pair_jaccard = {0.4, 0.7};
  config.requests_per_pair = 60;
  Rng rng(9);
  const RequestSequence original = generate_paired_trace(config, rng);
  const RequestSequence restored = trace_from_csv(trace_to_csv(original));
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(restored[i].server, original[i].server);
    ASSERT_DOUBLE_EQ(restored[i].time, original[i].time);
    ASSERT_EQ(testing::items_of(restored[i]), testing::items_of(original[i]));
  }
}

TEST(TraceIo, InfersDimensionsFromContent) {
  const RequestSequence seq =
      trace_from_csv("server,time,items\n3,1.5,0;2\n1,2.0,4\n");
  EXPECT_EQ(seq.server_count(), 4u);
  EXPECT_EQ(seq.item_count(), 5u);
}

TEST(TraceIo, HonorsMinimumDimensions) {
  const RequestSequence seq =
      trace_from_csv("server,time,items\n0,1.0,0\n", 50, 10);
  EXPECT_EQ(seq.server_count(), 50u);
  EXPECT_EQ(seq.item_count(), 10u);
}

TEST(TraceIo, RejectsMissingColumns) {
  EXPECT_THROW((void)trace_from_csv("server,time\n0,1.0\n"), IoError);
}

TEST(TraceIo, RejectsMalformedFields) {
  EXPECT_THROW((void)trace_from_csv("server,time,items\nx,1.0,0\n"), IoError);
  EXPECT_THROW((void)trace_from_csv("server,time,items\n0,zzz,0\n"), IoError);
}

TEST(TraceIo, InvalidSequencesStillValidated) {
  // Duplicate timestamps are a sequence-level invariant violation; the
  // parser rethrows it as an IoError tagged with the input's label so a
  // caller sees which file (or "CSV" for in-memory text) was bad.
  try {
    (void)trace_from_csv("server,time,items\n0,1.0,0\n1,1.0,1\n");
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind("CSV: ", 0), 0u) << what;
    EXPECT_NE(what.find("strictly increasing"), std::string::npos) << what;
  }
}

TEST(TraceIo, FileRoundTrip) {
  UniformTraceConfig config;
  config.request_count = 40;
  Rng rng(2);
  const RequestSequence original = generate_uniform_trace(config, rng);
  const std::string path = ::testing::TempDir() + "dpg_trace_roundtrip.csv";
  write_trace_file(path, original);
  const RequestSequence restored =
      read_trace_file(path, original.server_count(), original.item_count());
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.server_count(), original.server_count());
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileRaises) {
  EXPECT_THROW((void)read_trace_file("/nope/missing.csv"), IoError);
}

TEST(TraceIo, FileParseErrorsNameThePathRowAndByteOffset) {
  const std::string path = ::testing::TempDir() + "dpg_trace_bad.csv";
  {
    std::FILE* file = std::fopen(path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs("server,time,items\n0,1.0,0\n1,oops,1\n", file);
    std::fclose(file);
  }
  try {
    (void)read_trace_file(path);
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("row 2"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset 26"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(TraceIo, InMemoryParseErrorsUseTheCsvLabel) {
  try {
    (void)trace_from_csv("server,time,items\n0,1.0\n");
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind("CSV: row 1", 0), 0u) << what;
  }
}

TEST(TraceIo, ParseHintsDoNotChangeTheResult) {
  UniformTraceConfig config;
  config.request_count = 60;
  Rng rng(3);
  const RequestSequence original = generate_uniform_trace(config, rng);
  const std::string csv = trace_to_csv(original);

  // Exact hints (what the .dpt header supplies) and wild over-estimates
  // must both parse to the same sequence as no hints at all.
  TraceParseHints exact;
  exact.request_count = original.size();
  exact.item_access_count = original.total_item_accesses();
  TraceParseHints oversized;
  oversized.request_count = 10 * original.size();
  oversized.item_access_count = 10 * original.total_item_accesses();
  for (const TraceParseHints& hints : {exact, oversized}) {
    const RequestSequence parsed = trace_from_csv(csv, 0, 0, hints);
    EXPECT_EQ(parsed.size(), original.size());
    EXPECT_EQ(trace_to_csv(parsed), csv);
  }
}

// CsvClaimSource: the CSV reader behind `dpgreedy serve`.

/// One decoded row, as a claim hands it over.
struct ClaimedRow {
  ServerId server = 0;
  Time time = 0.0;
  std::vector<ItemId> items;
};

/// Claims blocks until the source ends; `rows_through` receives the last
/// claim's cumulative row count.
std::vector<ClaimedRow> claim_all(CsvClaimSource& source,
                                  std::size_t* rows_through) {
  std::vector<ClaimedRow> rows;
  RequestBlock block;
  std::uint64_t seq = 0;
  while (source.claim(block, seq, *rows_through)) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      rows.push_back(ClaimedRow{
          block.server_of(i), block.time_of(i),
          {block.items_of(i).begin(), block.items_of(i).end()}});
    }
  }
  return rows;
}

/// Opens `path` read-only (closed by the caller).
int open_fd(const std::string& path) { return ::open(path.c_str(), O_RDONLY); }

TEST(CsvClaimSource, ReadsAnyColumnOrderCrlfBlankLinesAndQuotes) {
  // Reordered, quoted header with an extra column; CRLF and LF endings;
  // blank lines; duplicate item ids; a last row without a newline.
  const std::string path = testing::write_temp_file(
      "dpg_any_order.csv",
      "\"items\",extra,time,server\r\n"
      "\r\n"
      "\"3;1;3\",x,1.5,2\r\n"
      "\n"
      "0,y,\"2.5\",1");
  CsvClaimSource reader(path, 64);
  std::size_t rows_through = 0;
  const std::vector<ClaimedRow> rows = claim_all(reader, &rows_through);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].server, 2u);
  EXPECT_EQ(rows[0].time, 1.5);
  EXPECT_EQ(rows[0].items, (std::vector<ItemId>{1, 3}));
  EXPECT_EQ(rows[1].server, 1u);
  EXPECT_EQ(rows[1].time, 2.5);
  EXPECT_EQ(rows[1].items, (std::vector<ItemId>{0}));
  EXPECT_EQ(rows_through, 2u);
  EXPECT_EQ(reader.error_seq(), ShardClaimSource::kNoError);
}

TEST(CsvClaimSource, ReadsWhatTraceToCsvWrites) {
  ZipfTraceConfig config;
  config.request_count = 300;
  Rng rng(8);
  const RequestSequence original = generate_zipf_trace(config, rng);
  CsvClaimSource reader(
      testing::write_temp_file("dpg_zipf.csv", trace_to_csv(original)), 64);
  std::size_t rows_through = 0;
  const std::vector<ClaimedRow> rows = claim_all(reader, &rows_through);
  ASSERT_EQ(rows.size(), original.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].server, original[i].server);
    EXPECT_EQ(rows[i].time, original[i].time);
    EXPECT_EQ(rows[i].items, testing::items_of(original[i]));
  }
}

TEST(CsvClaimSource, MalformedRowNamesTheSourceAndDataRow) {
  // The blank line is not a data row: the bad row is data row 2.
  const int fd = open_fd(testing::write_temp_file(
      "dpg_feed.csv", "server,time,items\n0,1.0,0\n\n1,zz,1\n2,3.0,2\n"));
  ASSERT_GE(fd, 0);
  CsvClaimSource reader(fd, "feed.csv", 64);
  std::size_t rows_through = 0;
  EXPECT_EQ(claim_all(reader, &rows_through).size(), 1u);
  const std::string what = reader.error_message();
  EXPECT_EQ(what.rfind("feed.csv: row 2 (byte offset 27): ", 0), 0u) << what;
  EXPECT_EQ(rows_through, 1u);
  ::close(fd);
}

TEST(CsvClaimSource, EmptyInputAndMissingFileRaise) {
  CsvClaimSource reader("/dev/null", 64);
  std::size_t rows_through = 0;
  EXPECT_TRUE(claim_all(reader, &rows_through).empty());
  EXPECT_EQ(reader.error_message(), "/dev/null: empty input (no CSV header)");
  EXPECT_THROW(CsvClaimSource("/nope/missing.csv", 64), IoError);
}

TEST(CsvClaimSource, OpensAPathAndLabelsErrorsWithIt) {
  const std::string path = testing::write_temp_file(
      "dpg_stream_reader.csv", "server,time,items\n0,1.0,0\n1,2.0\n");
  CsvClaimSource reader(path, 64);
  EXPECT_EQ(reader.source(), path);
  std::size_t rows_through = 0;
  EXPECT_EQ(claim_all(reader, &rows_through).size(), 1u);
  EXPECT_EQ(reader.error_message().rfind(path + ": row 2 (byte offset ", 0),
            0u)
      << reader.error_message();
  std::remove(path.c_str());
}

TEST(CsvClaimSource, RowSplitAcrossTwoPipeWritesIsDecodedOnceAndWhole) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const auto write_all = [fd = fds[1]](std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::write(fd, bytes.data(), bytes.size());
      if (n <= 0) return;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
  };
  // The first row arrives in two writes with a pause between them; the
  // reader must wait for its newline rather than decode the first half.
  std::thread writer([&] {
    write_all("server,time,items\n0,1.5,4;");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    write_all("2\n1,2.5,7\n");
    ::close(fds[1]);
  });
  CsvClaimSource reader(fds[0], "<pipe>", 64);
  std::size_t rows_through = 0;
  const std::vector<ClaimedRow> rows = claim_all(reader, &rows_through);
  writer.join();
  ::close(fds[0]);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].server, 0u);
  EXPECT_EQ(rows[0].time, 1.5);
  EXPECT_EQ(rows[0].items, (std::vector<ItemId>{2, 4}));
  EXPECT_EQ(rows[1].server, 1u);
  EXPECT_EQ(rows[1].items, (std::vector<ItemId>{7}));
  EXPECT_EQ(rows_through, 2u);
  EXPECT_EQ(reader.error_seq(), ShardClaimSource::kNoError);
}

}  // namespace
}  // namespace dpg
