// The binary columnar trace format (trace/dpt.hpp): exact round-trips for
// every generator family in both open modes (mmap zero-copy and untrusting
// read), CSV ↔ .dpt interchange byte-identity, the XXH64 checksum against
// its published vectors, and one test per corruption class — each must fail
// with a clean FormatError naming the file, never a crash or a garbage
// sequence.
#include <gtest/gtest.h>

#include "test_support.hpp"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "mobility/simulator.hpp"
#include "trace/dpt.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

using testing::same_sequence;

std::string temp_path(const std::string& name) {
  // gtest_discover_tests registers every TEST as its own ctest entry, so
  // under `ctest -j` several processes share TempDir() concurrently; a fixed
  // filename collides across them (and the DptCorruption fixture reuses its
  // path in every test).  Qualify with the running test's name and the pid
  // so each test in each process owns a distinct file.
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

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// One parsed 40-byte column-table row (layout per docs/FORMAT.md).
struct DescriptorView {
  std::size_t row = 0;  // byte offset of the descriptor within the file
  std::uint32_t element_size = 0;
  std::uint64_t element_count = 0;
  std::uint64_t byte_offset = 0;
  std::uint64_t byte_length = 0;
};

DescriptorView find_descriptor(const std::string& bytes, std::uint32_t want) {
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 56, sizeof count);
  for (std::uint32_t d = 0; d < count; ++d) {
    const std::size_t row = 64 + d * 40u;
    std::uint32_t id = 0;
    std::memcpy(&id, bytes.data() + row, sizeof id);
    if (id != want) continue;
    DescriptorView view;
    view.row = row;
    std::memcpy(&view.element_size, bytes.data() + row + 4, 4);
    std::memcpy(&view.element_count, bytes.data() + row + 8, 8);
    std::memcpy(&view.byte_offset, bytes.data() + row + 16, 8);
    std::memcpy(&view.byte_length, bytes.data() + row + 24, 8);
    return view;
  }
  ADD_FAILURE() << "descriptor with id " << want << " not found";
  return {};
}

/// Recomputes a column's stored checksum after its payload was edited —
/// what a hostile writer would do, so checksums alone must not be trusted.
void reseal_column(std::string& bytes, const DescriptorView& desc) {
  const std::uint64_t sum =
      dpt_checksum(bytes.data() + desc.byte_offset,
                   static_cast<std::size_t>(desc.byte_length));
  std::memcpy(bytes.data() + desc.row + 32, &sum, sizeof sum);
}

/// Round-trips `original` through a .dpt file in both open modes and checks
/// exact structural equality plus CSV byte-identity of the re-serialization.
void expect_dpt_roundtrip(const RequestSequence& original,
                          const std::string& stem) {
  const std::string path = temp_path(stem + ".dpt");
  write_trace_dpt(path, original);

  DptReadOptions mapped;
  mapped.mode = DptOpenMode::kMap;
  const RequestSequence via_map = read_trace_dpt(path, mapped);
  EXPECT_TRUE(via_map.borrows_storage());
  EXPECT_TRUE(same_sequence(original, via_map));
  EXPECT_EQ(trace_to_csv(original), trace_to_csv(via_map));

  DptReadOptions copied;
  copied.mode = DptOpenMode::kRead;
  const RequestSequence via_read = read_trace_dpt(path, copied);
  EXPECT_FALSE(via_read.borrows_storage());
  EXPECT_TRUE(same_sequence(original, via_read));
  EXPECT_EQ(trace_to_csv(original), trace_to_csv(via_read));

  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checksum.

TEST(DptChecksum, MatchesPublishedXxh64Vectors) {
  // XXH64 one-shot vectors (xxHash reference implementation, seed 0).
  EXPECT_EQ(dpt_checksum("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(dpt_checksum("a", 1), 0xD24EC4F1A98C6E5BULL);
}

TEST(DptChecksum, SeparatesNearbyInputs) {
  const std::string base(1000, 'x');
  std::string flipped = base;
  flipped[500] ^= 1;
  EXPECT_NE(dpt_checksum(base.data(), base.size()),
            dpt_checksum(flipped.data(), flipped.size()));
  EXPECT_NE(dpt_checksum(base.data(), base.size()),
            dpt_checksum(base.data(), base.size() - 1));
  EXPECT_NE(dpt_checksum(base.data(), base.size(), /*seed=*/0),
            dpt_checksum(base.data(), base.size(), /*seed=*/1));
  EXPECT_EQ(dpt_checksum(base.data(), base.size()),
            dpt_checksum(base.data(), base.size()));
}

// ---------------------------------------------------------------------------
// Round-trips, one per generator family.

TEST(DptRoundTrip, RunningExampleIsExact) {
  expect_dpt_roundtrip(testing::running_example_sequence(), "dpt_running");
}

TEST(DptRoundTrip, ZipfTraceIsExact) {
  ZipfTraceConfig config;
  config.request_count = 400;
  Rng rng(11);
  expect_dpt_roundtrip(generate_zipf_trace(config, rng), "dpt_zipf");
}

TEST(DptRoundTrip, PairedTraceIsExact) {
  PairedTraceConfig config;
  config.requests_per_pair = 80;
  Rng rng(12);
  expect_dpt_roundtrip(generate_paired_trace(config, rng), "dpt_paired");
}

TEST(DptRoundTrip, UniformTraceIsExact) {
  UniformTraceConfig config;
  config.request_count = 300;
  Rng rng(15);
  expect_dpt_roundtrip(generate_uniform_trace(config, rng), "dpt_uniform");
}

TEST(DptRoundTrip, BurstyTraceIsExact) {
  BurstyTraceConfig config;
  Rng rng(13);
  expect_dpt_roundtrip(generate_bursty_trace(config, rng), "dpt_bursty");
}

TEST(DptRoundTrip, MobilityTraceIsExact) {
  MobilityConfig config;
  config.duration = 50.0;
  Rng rng(14);
  expect_dpt_roundtrip(simulate_mobility(config, rng), "dpt_mobility");
}

TEST(DptRoundTrip, EmptySequenceIsExact) {
  SequenceBuilder builder(/*server_count=*/3, /*item_count=*/2);
  expect_dpt_roundtrip(std::move(builder).build(), "dpt_empty");
}

TEST(DptRoundTrip, CsvToDptToCsvIsByteIdentical) {
  ZipfTraceConfig config;
  config.request_count = 500;
  Rng rng(16);
  const RequestSequence original = generate_zipf_trace(config, rng);

  const std::string csv_path = temp_path("dpt_interchange.csv");
  const std::string dpt_path = temp_path("dpt_interchange.dpt");
  write_trace_file(csv_path, original);

  // CSV → .dpt → CSV must reproduce the CSV bytes exactly (doubles are
  // stored verbatim in the binary, so nothing can drift).
  write_trace_dpt(dpt_path, read_trace_file(csv_path));
  const std::string csv_before = read_bytes(csv_path);
  write_trace_file(csv_path, read_trace_dpt(dpt_path));
  EXPECT_EQ(csv_before, read_bytes(csv_path));

  std::remove(csv_path.c_str());
  std::remove(dpt_path.c_str());
}

TEST(DptRoundTrip, WriteIsDeterministic) {
  const RequestSequence seq = testing::running_example_sequence();
  const std::string a = temp_path("dpt_det_a.dpt");
  const std::string b = temp_path("dpt_det_b.dpt");
  write_trace_dpt(a, seq);
  write_trace_dpt(b, seq);
  EXPECT_EQ(read_bytes(a), read_bytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// ---------------------------------------------------------------------------
// The auto-dispatching entry points and dimension widening.

TEST(DptAuto, ExtensionPicksTheFormat) {
  EXPECT_TRUE(is_dpt_path("trace.dpt"));
  EXPECT_TRUE(is_dpt_path("TRACE.DPT"));
  EXPECT_FALSE(is_dpt_path("trace.csv"));
  EXPECT_FALSE(is_dpt_path("dpt"));

  const RequestSequence seq = testing::running_example_sequence();
  const std::string csv_path = temp_path("dpt_auto.csv");
  const std::string dpt_path = temp_path("dpt_auto.dpt");
  write_trace_auto(csv_path, seq);
  write_trace_auto(dpt_path, seq);
  EXPECT_TRUE(same_sequence(seq, read_trace_auto(csv_path)));
  EXPECT_TRUE(same_sequence(seq, read_trace_auto(dpt_path)));
  // The .csv really is text and the .dpt really is binary.
  EXPECT_EQ(read_bytes(csv_path).substr(0, 6), "server");
  EXPECT_EQ(read_bytes(dpt_path).substr(0, 8), "DPTRACE1");
  std::remove(csv_path.c_str());
  std::remove(dpt_path.c_str());
}

TEST(DptAuto, MinimumCountsWidenTheDimensions) {
  const RequestSequence seq = testing::running_example_sequence();
  const std::string path = temp_path("dpt_widen.dpt");
  write_trace_dpt(path, seq);
  const RequestSequence widened =
      read_trace_auto(path, /*min_server_count=*/10, /*min_item_count=*/5);
  EXPECT_EQ(widened.server_count(), 10u);
  EXPECT_EQ(widened.item_count(), 5u);
  ASSERT_EQ(widened.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(widened[i].server, seq[i].server);
    EXPECT_EQ(widened[i].time, seq[i].time);
  }
  std::remove(path.c_str());
}

TEST(DptAuto, ProbeReportsTheHeaderCounts) {
  const RequestSequence seq = testing::running_example_sequence();
  const std::string path = temp_path("dpt_probe.dpt");
  write_trace_dpt(path, seq);
  const DptInfo info = probe_trace_dpt(path);
  EXPECT_EQ(info.version, kDptVersion);
  EXPECT_EQ(info.request_count, seq.size());
  EXPECT_EQ(info.server_count, seq.server_count());
  EXPECT_EQ(info.item_count, seq.item_count());
  EXPECT_EQ(info.item_access_count, seq.total_item_accesses());
  EXPECT_EQ(info.file_bytes, read_bytes(path).size());
  std::remove(path.c_str());
}

TEST(DptAuto, ProbeAndReadHandleLargeColumnTables) {
  // Forward compat allows arbitrarily many appended (unknown) columns, so
  // the probe must size its header read from the header_bytes field — a
  // fixed prefix cap would reject a valid file whose table exceeds it.
  const RequestSequence seq = testing::running_example_sequence();
  const std::string path = temp_path("dpt_bigtable.dpt");
  write_trace_dpt(path, seq);
  const std::string bytes = read_bytes(path);

  constexpr std::size_t kKnown = 6;
  constexpr std::size_t kExtra = 1700;  // table of ~68 KiB, past 64 KiB
  std::uint64_t old_header_bytes = 0;
  std::memcpy(&old_header_bytes, bytes.data() + 16, 8);
  const auto align64 = [](std::uint64_t v) { return (v + 63) / 64 * 64; };
  const std::size_t old_payload = align64(old_header_bytes);
  const std::uint64_t new_header_bytes = 64 + (kKnown + kExtra) * 40;
  const std::size_t new_payload = align64(new_header_bytes);
  const std::uint64_t delta = new_payload - old_payload;

  std::string out = bytes.substr(0, 64 + kKnown * 40);
  std::memcpy(out.data() + 16, &new_header_bytes, 8);
  const std::uint32_t column_count = kKnown + kExtra;
  std::memcpy(out.data() + 56, &column_count, 4);
  for (std::size_t d = 0; d < kKnown; ++d) {  // shift the payload offsets
    std::uint64_t off = 0;
    std::memcpy(&off, out.data() + 64 + d * 40 + 16, 8);
    off += delta;
    std::memcpy(out.data() + 64 + d * 40 + 16, &off, 8);
  }
  for (std::size_t e = 0; e < kExtra; ++e) {  // unknown, empty columns
    char desc[40] = {};
    const std::uint32_t id = 1000 + static_cast<std::uint32_t>(e);
    const std::uint32_t element_size = 8;
    const std::uint64_t payload_start = new_payload;
    const std::uint64_t empty_sum = dpt_checksum("", 0);
    std::memcpy(desc + 0, &id, 4);
    std::memcpy(desc + 4, &element_size, 4);
    std::memcpy(desc + 16, &payload_start, 8);
    std::memcpy(desc + 32, &empty_sum, 8);
    out.append(desc, sizeof desc);
  }
  out.resize(new_payload, '\0');
  out += bytes.substr(old_payload);
  write_bytes(path, out);

  const DptInfo info = probe_trace_dpt(path);
  EXPECT_EQ(info.request_count, seq.size());
  EXPECT_EQ(info.column_count, kKnown + kExtra);
  EXPECT_TRUE(same_sequence(seq, read_trace_dpt(path)));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// A mapped sequence behaves like a value type.

TEST(DptBorrowed, CopyAndMoveStayUsable) {
  const RequestSequence seq = testing::running_example_sequence();
  const std::string path = temp_path("dpt_borrow.dpt");
  write_trace_dpt(path, seq);

  RequestSequence mapped = read_trace_dpt(path);
  ASSERT_TRUE(mapped.borrows_storage());

  const RequestSequence copy = mapped;           // shares the mapping keeper
  RequestSequence moved = std::move(mapped);     // steals it
  EXPECT_TRUE(same_sequence(seq, copy));
  EXPECT_TRUE(same_sequence(seq, moved));

  // The mapping outlives the file: the keeper pins the pages.
  std::remove(path.c_str());
  EXPECT_TRUE(same_sequence(seq, moved));
  EXPECT_EQ(moved.item_frequency(0), seq.item_frequency(0));
}

// ---------------------------------------------------------------------------
// Corruption: every damaged file fails with a FormatError naming the path.

class DptCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("dpt_corrupt.dpt");
    write_trace_dpt(path_, testing::running_example_sequence());
    bytes_ = read_bytes(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `bytes` to the file and expects both open modes to throw a
  /// FormatError whose message names the file.
  void expect_rejected(const std::string& bytes) {
    write_bytes(path_, bytes);
    for (const DptOpenMode mode : {DptOpenMode::kMap, DptOpenMode::kRead}) {
      DptReadOptions options;
      options.mode = mode;
      try {
        (void)read_trace_dpt(path_, options);
        FAIL() << "expected FormatError";
      } catch (const FormatError& error) {
        EXPECT_NE(std::string(error.what()).find(path_), std::string::npos)
            << error.what();
      }
    }
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(DptCorruption, EmptyFile) { expect_rejected(""); }

TEST_F(DptCorruption, TruncatedHeader) {
  expect_rejected(bytes_.substr(0, 32));
}

TEST_F(DptCorruption, TruncatedColumns) {
  expect_rejected(bytes_.substr(0, bytes_.size() / 2));
  expect_rejected(bytes_.substr(0, bytes_.size() - 1));
}

TEST_F(DptCorruption, WrongMagic) {
  std::string bytes = bytes_;
  bytes[0] = 'X';
  expect_rejected(bytes);
}

TEST_F(DptCorruption, FutureVersion) {
  std::string bytes = bytes_;
  bytes[12] = static_cast<char>(0x7F);  // u32 version field little-endian
  expect_rejected(bytes);
}

TEST_F(DptCorruption, FlippedColumnByte) {
  // Damage a payload byte near the end (inside the last column) — only the
  // checksum can catch this, which is the point of having one.
  std::string bytes = bytes_;
  bytes[bytes.size() - 5] = static_cast<char>(bytes[bytes.size() - 5] ^ 0x40);
  expect_rejected(bytes);
}

TEST_F(DptCorruption, FlippedChecksumByte) {
  // Damage a stored checksum in the column table instead of the payload.
  std::string bytes = bytes_;
  bytes[64 + 32] = static_cast<char>(bytes[64 + 32] ^ 0x01);
  expect_rejected(bytes);
}

TEST_F(DptCorruption, DescriptorOffsetOverflowIsRejected) {
  // byte_offset + byte_length wrapping past 2^64 must not pass the bounds
  // check and hand verify_checksums a wild pointer.
  std::string bytes = bytes_;
  const DescriptorView servers = find_descriptor(bytes, /*id=*/1);
  const std::uint64_t wild = 0xFFFFFFFFFFFFFFC0ULL;  // 64-byte aligned
  std::memcpy(bytes.data() + servers.row + 16, &wild, sizeof wild);
  expect_rejected(bytes);
}

TEST_F(DptCorruption, DescriptorLengthWrapIsRejected) {
  // element_count × element_size wraps to 0 (mod 2^64), "matching" a zero
  // byte_length; the divide-based shape check must reject it.
  std::string bytes = bytes_;
  const DescriptorView servers = find_descriptor(bytes, /*id=*/1);
  const std::uint64_t huge = 0x4000000000000000ULL;  // 2^62 × 4 ≡ 0
  const std::uint64_t zero = 0;
  std::memcpy(bytes.data() + servers.row + 8, &huge, sizeof huge);
  std::memcpy(bytes.data() + servers.row + 24, &zero, sizeof zero);
  expect_rejected(bytes);
}

TEST_F(DptCorruption, ResealedOffsetsPastThePoolAreRejected) {
  // A hostile writer can recompute checksums, so checksum validity must
  // not imply content validity: an item_offsets entry pointing past the
  // items pool must be caught structurally in both open modes.
  std::string bytes = bytes_;
  const DescriptorView offsets = find_descriptor(bytes, /*id=*/3);
  ASSERT_GT(offsets.element_count, 0u);
  const std::uint64_t past = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + offsets.byte_offset +
                  (offsets.element_count - 1) * 8,
              &past, sizeof past);
  reseal_column(bytes, offsets);
  expect_rejected(bytes);
}

TEST_F(DptCorruption, ResealedServerIdOutOfRangeIsRejected) {
  // Server ids index per-server solver state downstream, so even the
  // trusting adopt_columns path must range-check them.
  std::string bytes = bytes_;
  const DescriptorView servers = find_descriptor(bytes, /*id=*/1);
  ASSERT_GT(servers.element_count, 0u);
  const std::uint32_t bogus = 0xFFFFu;
  std::memcpy(bytes.data() + servers.byte_offset, &bogus, sizeof bogus);
  reseal_column(bytes, servers);
  expect_rejected(bytes);
}

TEST_F(DptCorruption, ResealedUnsortedItemRowListIsRejected) {
  // Phase 2 merges the items' stored row lists and reads their order as
  // time order, so the trusting map open must check that each list is
  // strictly ascending.  Swap the first two rows of item 0's list (rows 0
  // and 1 of the running example) and recompute the checksum.
  std::string bytes = bytes_;
  const DescriptorView pool = find_descriptor(bytes, /*id=*/6);
  ASSERT_GE(pool.element_count, 2u);
  std::uint64_t rows[2];
  std::memcpy(rows, bytes.data() + pool.byte_offset, sizeof rows);
  ASSERT_LT(rows[0], rows[1]);
  std::swap(rows[0], rows[1]);
  std::memcpy(bytes.data() + pool.byte_offset, rows, sizeof rows);
  reseal_column(bytes, pool);
  write_bytes(path_, bytes);

  DptReadOptions mapped;
  mapped.mode = DptOpenMode::kMap;
  try {
    (void)read_trace_dpt(path_, mapped);
    FAIL() << "expected FormatError";
  } catch (const FormatError& error) {
    EXPECT_NE(std::string(error.what()).find(path_), std::string::npos)
        << error.what();
  }
  // The read open rebuilds the index from the rows and never trusts it.
  DptReadOptions copied;
  copied.mode = DptOpenMode::kRead;
  EXPECT_TRUE(same_sequence(read_trace_dpt(path_, copied),
                            testing::running_example_sequence()));
}

TEST_F(DptCorruption, ChecksumVerificationCanBeDisabledForValidStructure) {
  // With verify_checksums off a payload flip in the times column goes
  // through (the structural checks still hold); this documents that the
  // flag only skips integrity, never structure.  The times column offset
  // comes from the descriptor table: 40-byte rows from byte 64, layout
  // {u32 id, u32 element_size, u64 count, u64 offset, u64 length, u64 sum}.
  std::uint64_t times_offset = 0;
  for (std::size_t d = 0; d < 6; ++d) {
    const std::size_t row = 64 + d * 40;
    std::uint32_t id = 0;
    std::memcpy(&id, bytes_.data() + row, sizeof(id));
    if (id == 2) {
      std::memcpy(&times_offset, bytes_.data() + row + 16,
                  sizeof(times_offset));
    }
  }
  ASSERT_GT(times_offset, 0u);
  std::string bytes = bytes_;
  // Flip a low mantissa bit of times[0]: logically wrong, structurally fine.
  bytes[times_offset] = static_cast<char>(bytes[times_offset] ^ 0x01);
  write_bytes(path_, bytes);
  DptReadOptions options;
  options.verify_checksums = false;
  const RequestSequence seq = read_trace_dpt(path_, options);
  EXPECT_EQ(seq.size(), testing::running_example_sequence().size());
}

}  // namespace
}  // namespace dpg
