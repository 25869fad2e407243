#include <gtest/gtest.h>

#include "test_support.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "trace/generators.hpp"
#include "trace/io.hpp"
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

// CsvStreamReader: the line-at-a-time reader behind `dpgreedy serve`.

/// An in-memory FILE* over `text` (closed by the caller).
std::FILE* memory_file(std::string& text) {
  return fmemopen(text.data(), text.size(), "r");
}

TEST(CsvStreamReader, ReadsAnyColumnOrderCrlfBlankLinesAndQuotes) {
  // Reordered, quoted header with an extra column; CRLF and LF endings;
  // blank lines; duplicate item ids; a last row without a newline.
  std::string text =
      "\"items\",extra,time,server\r\n"
      "\r\n"
      "\"3;1;3\",x,1.5,2\r\n"
      "\n"
      "0,y,\"2.5\",1";
  std::FILE* file = memory_file(text);
  ASSERT_NE(file, nullptr);
  CsvStreamReader reader(file, "mem");
  CsvStreamRow row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row.server, 2u);
  EXPECT_EQ(row.time, 1.5);
  EXPECT_EQ(row.items, (std::vector<ItemId>{1, 3}));
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row.server, 1u);
  EXPECT_EQ(row.time, 2.5);
  EXPECT_EQ(row.items, (std::vector<ItemId>{0}));
  EXPECT_FALSE(reader.next(row));
  EXPECT_EQ(reader.rows_read(), 2u);
  std::fclose(file);
}

TEST(CsvStreamReader, ReadsWhatTraceToCsvWrites) {
  ZipfTraceConfig config;
  config.request_count = 300;
  Rng rng(8);
  const RequestSequence original = generate_zipf_trace(config, rng);
  std::string text = trace_to_csv(original);
  std::FILE* file = memory_file(text);
  ASSERT_NE(file, nullptr);
  CsvStreamReader reader(file, "mem");
  CsvStreamRow row;
  for (const Request& r : original.requests()) {
    ASSERT_TRUE(reader.next(row));
    EXPECT_EQ(row.server, r.server);
    EXPECT_EQ(row.time, r.time);
    EXPECT_EQ(row.items, testing::items_of(r));
  }
  EXPECT_FALSE(reader.next(row));
  std::fclose(file);
}

TEST(CsvStreamReader, MalformedRowNamesTheSourceAndDataRow) {
  // The blank line is not a data row: the bad row is data row 2.
  std::string text = "server,time,items\n0,1.0,0\n\n1,zz,1\n2,3.0,2\n";
  std::FILE* file = memory_file(text);
  ASSERT_NE(file, nullptr);
  CsvStreamReader reader(file, "feed.csv");
  CsvStreamRow row;
  ASSERT_TRUE(reader.next(row));
  try {
    (void)reader.next(row);
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind("feed.csv: row 2: ", 0), 0u) << what;
  }
  EXPECT_EQ(reader.rows_read(), 1u);
  std::fclose(file);
}

TEST(CsvStreamReader, EmptyInputAndMissingFileRaise) {
  CsvStreamReader reader("/dev/null");
  CsvStreamRow row;
  try {
    (void)reader.next(row);
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    EXPECT_EQ(std::string(error.what()),
              "/dev/null: empty input (no CSV header)");
  }
  EXPECT_THROW(CsvStreamReader("/nope/missing.csv"), IoError);
}

TEST(CsvStreamReader, OpensAPathAndLabelsErrorsWithIt) {
  const std::string path = ::testing::TempDir() + "dpg_stream_reader.csv";
  {
    std::FILE* file = std::fopen(path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs("server,time,items\n0,1.0,0\n1,2.0\n", file);
    std::fclose(file);
  }
  CsvStreamReader reader(path);
  EXPECT_EQ(reader.source(), path);
  CsvStreamRow row;
  ASSERT_TRUE(reader.next(row));
  try {
    (void)reader.next(row);
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    EXPECT_EQ(std::string(error.what()).rfind(path + ": row 2: ", 0), 0u)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(CsvStreamReader, RowSplitAcrossTwoPipeWritesIsDecodedOnceAndWhole) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::FILE* in = ::fdopen(fds[0], "r");
  ASSERT_NE(in, nullptr);
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
  CsvStreamReader reader(in, "<pipe>");
  CsvStreamRow row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row.server, 0u);
  EXPECT_EQ(row.time, 1.5);
  EXPECT_EQ(row.items, (std::vector<ItemId>{2, 4}));
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row.server, 1u);
  EXPECT_EQ(row.items, (std::vector<ItemId>{7}));
  EXPECT_FALSE(reader.next(row));
  EXPECT_EQ(reader.rows_read(), 2u);
  writer.join();
  std::fclose(in);
}

}  // namespace
}  // namespace dpg
