// DptStreamWriter (trace/dpt_stream_writer.hpp): the archive-while-serving
// path must produce files byte-for-byte identical to write_trace_dpt of the
// same rows with counts of max id + 1 — what `dpgreedy convert` writes for
// the same feed — and reject the rows RequestSequence would reject, as they
// arrive.
#include <gtest/gtest.h>

#include "test_support.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/request_block.hpp"
#include "trace/dpt.hpp"
#include "trace/dpt_stream_writer.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

using testing::same_sequence;

std::string temp_path(const std::string& name) {
  // Distinct per test and per process: `ctest -j` runs every TEST in its
  // own process but all of them share TempDir().
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique;
  if (info != nullptr) {
    unique = std::string(info->test_suite_name()) + "_" + info->name() + "_";
    for (char& c : unique) {
      if (c == '/') c = '_';
    }
  }
  unique += std::to_string(::getpid()) + "_";
  return ::testing::TempDir() + unique + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

RequestSequence fixture_trace() {
  Rng rng(404);
  ZipfTraceConfig config;
  config.server_count = 9;
  config.item_count = 17;
  config.request_count = 500;
  return generate_zipf_trace(config, rng);
}

/// `sequence` as `dpgreedy convert` reads it back from its CSV: counts of
/// max id + 1, what an archive of its rows derives.
RequestSequence as_converted(const RequestSequence& sequence) {
  return trace_from_csv(trace_to_csv(sequence));
}

// ---------------------------------------------------------------------------
// DptStreamWriter byte identity

TEST(DptStreamWriter, PerRowAppendMatchesWriteTraceDptByteForByte) {
  const RequestSequence sequence = fixture_trace();
  const std::string batch_path = temp_path("batch.dpt");
  const std::string stream_path = temp_path("stream.dpt");
  write_trace_dpt(batch_path, as_converted(sequence));

  DptStreamWriter writer(stream_path);
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    writer.append(sequence.server_of(i), sequence.time_of(i),
                  sequence.items_of(i));
  }
  EXPECT_EQ(writer.rows(), sequence.size());
  writer.finish();

  EXPECT_EQ(read_bytes(stream_path), read_bytes(batch_path));
  std::remove(batch_path.c_str());
  std::remove(stream_path.c_str());
}

TEST(DptStreamWriter, BlockAppendMatchesWriteTraceDptByteForByte) {
  const RequestSequence sequence = fixture_trace();
  const std::string batch_path = temp_path("batch.dpt");
  const std::string stream_path = temp_path("stream.dpt");
  write_trace_dpt(batch_path, as_converted(sequence));

  // Rows taken from RequestBlocks of a ragged size (the last block is
  // partial), one append per served row, as `serve --archive` feeds them.
  DptStreamWriter writer(stream_path);
  RequestBlock block;
  for (std::size_t at = 0; at < sequence.size();) {
    block.clear();
    const std::size_t n = std::min<std::size_t>(37, sequence.size() - at);
    for (std::size_t i = 0; i < n; ++i, ++at) {
      block.append_row(sequence.server_of(at), sequence.time_of(at),
                       sequence.items_of(at));
    }
    for (std::size_t r = 0; r < block.size(); ++r) {
      writer.append(block.server_of(r), block.time_of(r), block.items_of(r));
    }
  }
  writer.finish();

  EXPECT_EQ(read_bytes(stream_path), read_bytes(batch_path));
  std::remove(batch_path.c_str());
  std::remove(stream_path.c_str());
}

TEST(DptStreamWriter, RoundTripsThroughBothOpenModes) {
  // The default open and the one that also cross-checks the stored
  // per-item events against a rebuild.
  const RequestSequence sequence = fixture_trace();
  const std::string path = temp_path("roundtrip.dpt");
  DptStreamWriter writer(path);
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    writer.append(sequence.server_of(i), sequence.time_of(i),
                  sequence.items_of(i));
  }
  writer.finish();

  const RequestSequence want = as_converted(sequence);
  EXPECT_TRUE(same_sequence(read_trace_dpt(path), want));
  DptReadOptions checked;
  checked.verify_columns = true;
  EXPECT_TRUE(same_sequence(read_trace_dpt(path, checked), want));
  std::remove(path.c_str());
}

TEST(DptStreamWriter, AppendCanonicalizesUnsortedDuplicateItems) {
  const std::string stream_path = temp_path("canon_stream.dpt");
  const std::string batch_path = temp_path("canon_batch.dpt");

  DptStreamWriter writer(stream_path);
  writer.append(2, 1.0, std::vector<ItemId>{5, 1, 5, 3, 1});
  writer.append(0, 1.5, std::vector<ItemId>{4, 4});
  writer.finish();

  SequenceBuilder builder(/*server_count=*/3, /*item_count=*/6);
  builder.add(2, 1.0, std::vector<ItemId>{1, 3, 5});
  builder.add(0, 1.5, std::vector<ItemId>{4});
  write_trace_dpt(batch_path, std::move(builder).build());

  EXPECT_EQ(read_bytes(stream_path), read_bytes(batch_path));
  std::remove(stream_path.c_str());
  std::remove(batch_path.c_str());
}

TEST(DptStreamWriter, RejectsInvalidRowsAndMisuse) {
  const std::string path = temp_path("invalid.dpt");
  DptStreamWriter writer(path);
  writer.append(0, 1.0, std::vector<ItemId>{3});
  // Times must be strictly increasing and positive.
  EXPECT_THROW(writer.append(0, 1.0, std::vector<ItemId>{3}),
               InvalidArgument);
  EXPECT_THROW(writer.append(0, 0.5, std::vector<ItemId>{3}),
               InvalidArgument);
  // Item sets must be non-empty.
  EXPECT_THROW(writer.append(0, 2.0, std::vector<ItemId>{}), InvalidArgument);
  EXPECT_EQ(writer.rows(), 1u);
  writer.finish();
  EXPECT_THROW(writer.append(0, 3.0, std::vector<ItemId>{1}),
               InvalidArgument);
  EXPECT_THROW(writer.finish(), InvalidArgument);
  // The rejected rows left the archive alone: it holds the one valid row.
  const DptInfo info = probe_trace_dpt(path);
  EXPECT_EQ(info.request_count, 1u);
  EXPECT_EQ(info.server_count, 1u);
  EXPECT_EQ(info.item_count, 4u);
  std::remove(path.c_str());

  // A first time of 0 or below is rejected too.
  DptStreamWriter first(temp_path("first.dpt"));
  EXPECT_THROW(first.append(0, 0.0, std::vector<ItemId>{1}), InvalidArgument);
  EXPECT_THROW(first.append(0, -1.0, std::vector<ItemId>{1}),
               InvalidArgument);

  // An empty feed has nothing to write, and leaves no file behind.
  const std::string empty_path = temp_path("empty.dpt");
  DptStreamWriter empty(empty_path);
  EXPECT_THROW(empty.finish(), InvalidArgument);
  EXPECT_FALSE(std::ifstream(empty_path).good());
}

}  // namespace
}  // namespace dpg
