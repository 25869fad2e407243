// The binary columnar trace format (trace/dpt.hpp): exact round-trips for
// every generator family through the one open (mmap zero-copy), CSV ↔ .dpt
// interchange byte-identity, the XXH64 checksum against its published
// vectors, and one test per corruption class — each must fail with a clean
// FormatError naming the file, never a crash or a garbage sequence.  The
// corruption classes run on both versions: the version-2 files the writer
// makes, and the committed version-1 fixtures under tests/data (written by
// the version-1 writer, with their CSV sources).
#include <gtest/gtest.h>

#include "test_support.hpp"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "mobility/simulator.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/dp_greedy.hpp"
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

/// A committed fixture under tests/data.
std::string fixture_path(const std::string& name) {
  return std::string(DPG_TEST_DATA_DIR) + "/" + name;
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

/// Round-trips `original` through a .dpt file and checks exact structural
/// equality plus CSV byte-identity of the re-serialization.
void expect_dpt_roundtrip(const RequestSequence& original,
                          const std::string& stem) {
  const std::string path = temp_path(stem + ".dpt");
  write_trace_dpt(path, original);

  const RequestSequence via_map = read_trace_dpt(path);
  EXPECT_TRUE(via_map.borrows_storage());
  EXPECT_TRUE(same_sequence(original, via_map));
  EXPECT_EQ(trace_to_csv(original), trace_to_csv(via_map));

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
// The auto-dispatching entry points and the header probe.

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

  constexpr std::size_t kKnown = 7;
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
// The writers replace their target by rename: a sequence still mapped from
// the target keeps its pages, and a failed write leaves the target alone.

TEST(DptReplace, WritingOntoTheMappedSourceKeepsItReadable) {
  const RequestSequence original = testing::running_example_sequence();
  const std::string path = temp_path("dpt_self.dpt");
  write_trace_dpt(path, original);
  const std::string dpt_bytes = read_bytes(path);

  const RequestSequence mapped = read_trace_dpt(path);
  write_trace_dpt(path, mapped);  // .dpt onto itself
  EXPECT_EQ(read_bytes(path), dpt_bytes);
  EXPECT_TRUE(same_sequence(mapped, original));

  const RequestSequence remapped = read_trace_dpt(path);
  write_trace_file(path, remapped);  // CSV onto the mapped .dpt
  EXPECT_EQ(read_bytes(path), trace_to_csv(original));
  EXPECT_TRUE(same_sequence(remapped, original));
  std::remove(path.c_str());
}

TEST(DptReplace, AFailedWriteLeavesTheTargetAndNoTemporary) {
  namespace fs = std::filesystem;
  const fs::path dir = temp_path("dpt_replace_dir");
  fs::remove_all(dir);
  fs::create_directory(dir);
  const std::string path = (dir / "trace.dpt").string();
  write_trace_dpt(path, testing::running_example_sequence());
  const std::string before = read_bytes(path);
  const auto entries = [&dir] {
    return std::distance(fs::directory_iterator(dir), fs::directory_iterator());
  };

  // The writer throws midway, then the stream fails.
  EXPECT_THROW(replace_trace_file(path,
                                  [](std::ostream& out) {
                                    out << "partial";
                                    throw IoError("disk on fire");
                                  }),
               IoError);
  EXPECT_EQ(read_bytes(path), before);
  EXPECT_EQ(entries(), 1);
  EXPECT_THROW(replace_trace_file(path,
                                  [](std::ostream& out) {
                                    out << "partial";
                                    out.setstate(std::ios::badbit);
                                  }),
               IoError);
  EXPECT_EQ(read_bytes(path), before);
  EXPECT_EQ(entries(), 1);

  // A symlink is written through, in place: it stays a link.
  const fs::path link = dir / "link.dpt";
  fs::create_symlink(dir / "trace.dpt", link);
  SequenceBuilder builder(/*server_count=*/1, /*item_count=*/1);
  builder.add(0, 1.0, {0});
  const RequestSequence one_row = std::move(builder).build();
  write_trace_dpt(link.string(), one_row);
  EXPECT_TRUE(fs::is_symlink(link));
  EXPECT_TRUE(same_sequence(read_trace_dpt(path), one_row));
  EXPECT_EQ(entries(), 2);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Corruption: every damaged file fails with a FormatError naming the path.

/// The opens every corruption case runs: no pool, then pools of 1, 2 and 4
/// workers.  The message must not depend on which column task finished
/// first.
class VerifyPools {
 public:
  VerifyPools() : one_(1), two_(2), four_(4) {}
  [[nodiscard]] std::vector<ThreadPool*> all() {
    return {nullptr, &one_, &two_, &four_};
  }

 private:
  ThreadPool one_, two_, four_;
};

std::string width_of(const ThreadPool* pool) {
  return pool == nullptr ? "no pool"
                         : std::to_string(pool->worker_count()) + " workers";
}

/// The message `read_trace_dpt(path, options)` fails with ("" when it
/// opens).  A failure that is not a FormatError fails the test.
std::string open_error(const std::string& path, const DptReadOptions& options) {
  try {
    (void)read_trace_dpt(path, options);
  } catch (const FormatError& error) {
    return error.what();
  }
  return "";
}

/// Expects every open of `path` — with no pool and on every pool width,
/// without and with verify_columns — to fail with exactly `want` ("" to
/// open).  verify_columns adds only the cross-check against the rows, which
/// runs after the pass, so a file the pass rejects gets the pass's message.
void expect_open_error(const std::string& path, VerifyPools& pools,
                       const std::string& want, const std::string& where) {
  for (const bool verify_columns : {false, true}) {
    for (ThreadPool* pool : pools.all()) {
      DptReadOptions options;
      options.verify_columns = verify_columns;
      options.pool = pool;
      EXPECT_EQ(open_error(path, options), want)
          << where << width_of(pool)
          << (verify_columns ? ", verify_columns" : "");
    }
  }
}

template <typename T>
T peek(const std::string& bytes, const DescriptorView& column,
       std::size_t index) {
  T value;
  std::memcpy(&value, bytes.data() + column.byte_offset + index * sizeof(T),
              sizeof value);
  return value;
}

template <typename T>
void poke(std::string& bytes, const DescriptorView& column, std::size_t index,
          T value) {
  std::memcpy(bytes.data() + column.byte_offset + index * sizeof(T), &value,
              sizeof value);
}

/// Writes `value` into entry `index` of an offsets column at the column's
/// own width: u32 item_offsets in version 2, u64 in version 1.
void poke_offset(std::string& bytes, const DescriptorView& column,
                 std::size_t index, std::uint64_t value) {
  if (column.element_size == 4) {
    poke<std::uint32_t>(bytes, column, index,
                        static_cast<std::uint32_t>(value));
  } else {
    poke<std::uint64_t>(bytes, column, index, value);
  }
}

/// The running example as each version stores it, with the names its
/// messages use.
struct Layout {
  std::string name;  // prefixes each failure's context
  std::string bytes;
  std::uint32_t last_column;  // the column at the end of the file
  const char* last_column_name;
  /// A per-item column of 8-byte entries, the largest verification task:
  /// per_item_times in version 2, per_item_pool in version 1.
  std::uint32_t per_item_column;
};

class DptCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("dpt_corrupt.dpt");
    write_trace_dpt(path_, testing::running_example_sequence());
    bytes_ = read_bytes(path_);
    v1_bytes_ = read_bytes(fixture_path("running_example.v1.dpt"));
    ASSERT_GT(bytes_.size(), 64u);
    ASSERT_GT(v1_bytes_.size(), 64u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Both versions of the running example: the version-2 file the writer
  /// makes and the committed version-1 fixture.
  [[nodiscard]] std::vector<Layout> layouts() const {
    return {{"version 2, ", bytes_, 8, "per_item_servers", 7},
            {"version 1, ", v1_bytes_, 6, "per_item_pool", 6}};
  }

  /// Writes `bytes` to the file and expects every open of it to fail with
  /// exactly "<path>: <message>".
  void expect_rejected(const std::string& bytes, const std::string& message,
                       const std::string& where = "") {
    write_bytes(path_, bytes);
    expect_open_error(path_, pools_, path_ + ": " + message, where);
  }

  VerifyPools pools_;
  std::string path_;
  std::string bytes_;     // version 2
  std::string v1_bytes_;  // version 1
};

TEST_F(DptCorruption, EmptyFile) {
  expect_rejected("", "truncated header (0 bytes, need 64)");
}

TEST_F(DptCorruption, TruncatedHeader) {
  for (const Layout& file : layouts()) {
    expect_rejected(file.bytes.substr(0, 32),
                    "truncated header (32 bytes, need 64)", file.name);
  }
}

TEST_F(DptCorruption, TruncatedColumns) {
  for (const Layout& file : layouts()) {
    expect_rejected(file.bytes.substr(0, file.bytes.size() / 2),
                    "column 'times': data out of file bounds (truncated file?)",
                    file.name);
    expect_rejected(file.bytes.substr(0, file.bytes.size() - 1),
                    std::string("column '") + file.last_column_name +
                        "': data out of file bounds (truncated file?)",
                    file.name);
  }
}

TEST_F(DptCorruption, WrongMagic) {
  for (const Layout& file : layouts()) {
    std::string bytes = file.bytes;
    bytes[0] = 'X';
    expect_rejected(bytes, "not a .dpt trace (bad magic)", file.name);
  }
}

TEST_F(DptCorruption, FutureVersion) {
  for (const Layout& file : layouts()) {
    std::string bytes = file.bytes;
    bytes[12] = static_cast<char>(0x7F);  // u32 version field little-endian
    expect_rejected(bytes, "unsupported version 127 (this build reads up to 2)",
                    file.name);
    bytes[12] = 3;
    expect_rejected(bytes, "unsupported version 3 (this build reads up to 2)",
                    file.name);
  }
}

TEST_F(DptCorruption, FlippedColumnByte) {
  // Damage a payload byte near the end (inside the last column) — only the
  // checksum can catch this, which is the point of having one.
  for (const Layout& file : layouts()) {
    std::string bytes = file.bytes;
    bytes[bytes.size() - 5] =
        static_cast<char>(bytes[bytes.size() - 5] ^ 0x40);
    expect_rejected(bytes,
                    std::string("checksum mismatch in column '") +
                        file.last_column_name + "'",
                    file.name);
  }
}

TEST_F(DptCorruption, FlippedChecksumByte) {
  // Damage a stored checksum in the column table instead of the payload.
  for (const Layout& file : layouts()) {
    std::string bytes = file.bytes;
    bytes[64 + 32] = static_cast<char>(bytes[64 + 32] ^ 0x01);
    expect_rejected(bytes, "checksum mismatch in column 'servers'", file.name);
  }
}

TEST_F(DptCorruption, DescriptorOffsetOverflowIsRejected) {
  // byte_offset + byte_length wrapping past 2^64 must not pass the bounds
  // check and hand the verification pass a wild pointer.
  for (const Layout& file : layouts()) {
    std::string bytes = file.bytes;
    const DescriptorView servers = find_descriptor(bytes, /*id=*/1);
    const std::uint64_t wild = 0xFFFFFFFFFFFFFFC0ULL;  // 64-byte aligned
    std::memcpy(bytes.data() + servers.row + 16, &wild, sizeof wild);
    expect_rejected(
        bytes, "column 'servers': data out of file bounds (truncated file?)",
        file.name);
  }
}

TEST_F(DptCorruption, DescriptorLengthWrapIsRejected) {
  // element_count × element_size wraps to 0 (mod 2^64), "matching" a zero
  // byte_length; the divide-based shape check must reject it.
  for (const Layout& file : layouts()) {
    std::string bytes = file.bytes;
    const DescriptorView servers = find_descriptor(bytes, /*id=*/1);
    const std::uint64_t huge = 0x4000000000000000ULL;  // 2^62 × 4 ≡ 0
    const std::uint64_t zero = 0;
    std::memcpy(bytes.data() + servers.row + 8, &huge, sizeof huge);
    std::memcpy(bytes.data() + servers.row + 24, &zero, sizeof zero);
    expect_rejected(bytes, "column 'servers': descriptor length mismatch",
                    file.name);
  }
}

TEST_F(DptCorruption, HeaderWithTooManyItemAccessesIsRejected) {
  // The item offsets are 32 bits wide, so a sequence holds at most 2^32 - 1
  // item accesses.  The header's A is checked before any column is sized
  // by it.
  for (const Layout& file : layouts()) {
    for (const std::uint64_t accesses :
         {std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
      std::string bytes = file.bytes;
      std::memcpy(bytes.data() + 48, &accesses, sizeof accesses);
      expect_rejected(bytes,
                      "item access count " + std::to_string(accesses) +
                          " exceeds the limit of 2^32 - 1",
                      file.name + "A " + std::to_string(accesses) + ", ");
    }
  }
}

TEST_F(DptCorruption, ResealedOffsetsPastThePoolAreRejected) {
  // A hostile writer can recompute checksums, so checksum validity must
  // not imply content validity: an item_offsets entry pointing past the
  // items pool must be caught structurally in both open modes.
  for (const Layout& file : layouts()) {
    std::string bytes = file.bytes;
    const DescriptorView offsets = find_descriptor(bytes, /*id=*/3);
    ASSERT_GT(offsets.element_count, 0u);
    const std::uint64_t past = std::uint64_t{1}
                               << (8 * offsets.element_size - 4);
    poke_offset(bytes, offsets, offsets.element_count - 1, past);
    reseal_column(bytes, offsets);
    expect_rejected(bytes,
                    "adopt_columns: item_offsets must end at the pool size",
                    file.name);
  }
}

TEST_F(DptCorruption, ResealedOffsetsThatLeapAndFallBackAreRejected) {
  // The running example's offsets are {0, 1, 3, 4, 6, 7, 8, 10}.  Raise
  // offsets[1] by half the offset range or more (2^31 at u32, 2^63 at u64)
  // and drop offsets[2] to 0: the start and the end still hold, and every
  // step is below half the range in two's complement, so only a compare of
  // the entries themselves finds the order broken.
  for (const Layout& file : layouts()) {
    const DescriptorView offsets = find_descriptor(file.bytes, /*id=*/3);
    ASSERT_EQ(offsets.element_count, 8u);
    const unsigned bits = 8 * offsets.element_size;
    const std::uint64_t half = std::uint64_t{1} << (bits - 1);
    const std::uint64_t top = half + (half - 1);
    for (const std::uint64_t leap : {half, half + 5, top}) {
      std::string bytes = file.bytes;
      poke_offset(bytes, offsets, 1, leap);
      poke_offset(bytes, offsets, 2, 0);
      reseal_column(bytes, offsets);
      expect_rejected(bytes,
                      "adopt_columns: item_offsets must be non-decreasing",
                      file.name + "leap " + std::to_string(leap) + ", ");
    }
  }
}

TEST_F(DptCorruption, ResealedServerIdOutOfRangeIsRejected) {
  // Server ids index per-server solver state downstream, so even the
  // trusting map open must range-check them.
  for (const Layout& file : layouts()) {
    std::string bytes = file.bytes;
    const DescriptorView servers = find_descriptor(bytes, /*id=*/1);
    ASSERT_GT(servers.element_count, 0u);
    poke<std::uint32_t>(bytes, servers, 0, 0xFFFFu);
    reseal_column(bytes, servers);
    expect_rejected(bytes, "adopt_columns: server id out of range", file.name);
  }
}

TEST_F(DptCorruption, ResealedUnsortedItemRowListIsRejected) {
  // Version 1 stores each item's rows, and Phase 2 read their order as time
  // order, so the open checks that each list is strictly ascending.  Swap
  // the first two rows of item 0's list (rows 0 and 1 of the running
  // example) and recompute the checksum.
  std::string bytes = v1_bytes_;
  const DescriptorView pool = find_descriptor(bytes, /*id=*/6);
  ASSERT_GE(pool.element_count, 2u);
  const auto first = peek<std::uint64_t>(bytes, pool, 0);
  const auto second = peek<std::uint64_t>(bytes, pool, 1);
  ASSERT_LT(first, second);
  poke<std::uint64_t>(bytes, pool, 0, second);
  poke<std::uint64_t>(bytes, pool, 1, first);
  reseal_column(bytes, pool);
  expect_rejected(bytes,
                  "adopt_columns: an item's inverted index rows are not "
                  "strictly ascending");
}

TEST_F(DptCorruption, ResealedItemRowPastTheLastRequestIsRejected) {
  // Version 1: item 1's list, the last in per_item_pool, ends at row 6 of
  // the running example's 7; row 7 keeps the list ascending but names no
  // request.
  std::string bytes = v1_bytes_;
  const DescriptorView pool = find_descriptor(bytes, /*id=*/6);
  const std::size_t last = pool.element_count - 1;
  ASSERT_EQ(peek<std::uint64_t>(bytes, pool, last), 6u);
  poke<std::uint64_t>(bytes, pool, last, 7);
  reseal_column(bytes, pool);
  expect_rejected(bytes, "adopt_columns: inverted index row out of range");
}

// Version 2 stores each item's events: its requests' times (column 7) and
// servers (column 8), cut by per_item_offsets.  The running example's are
// item 0: times 0.5 0.8 1.4 2.6 4.0, servers 2 1 0 2 1 (entries 0-4);
// item 1: times 0.8 1.1 1.4 3.2 4.0, servers 1 3 0 2 1 (entries 5-9).

std::string event_times_message() {
  return "adopt_columns: an item's event times are not strictly ascending, "
         "finite and > 0";
}

TEST_F(DptCorruption, ResealedEventTimesOutOfOrderAreRejected) {
  // Phase 2 walks an item's events in the stored order and merges two
  // items' events by time, so each item's times must be strictly
  // ascending, finite and > 0.  The last time of item 0 above item 1's
  // first is no fault: the order holds per item.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const DescriptorView times = find_descriptor(bytes_, /*id=*/7);
  ASSERT_EQ(times.element_count, 10u);
  struct Case {
    const char* what;
    std::size_t entry;
    double time;
  };
  const Case cases[] = {
      {"step back", 2, 0.6},
      {"repeated time", 1, 0.5},
      {"NaN", 3, kNan},
      {"+inf in the middle", 2, kInf},
      {"+inf last", 9, kInf},
      {"first time 0", 5, 0.0},
      {"first time -1", 0, -1.0},
  };
  for (const Case& c : cases) {
    std::string bytes = bytes_;
    poke<double>(bytes, times, c.entry, c.time);
    reseal_column(bytes, times);
    expect_rejected(bytes, event_times_message(), std::string(c.what) + ", ");
  }
}

TEST_F(DptCorruption, ResealedEventServerOutOfRangeIsRejected) {
  // The walks index per-server state by an event's server, as by a row's.
  const DescriptorView servers = find_descriptor(bytes_, /*id=*/8);
  for (const std::uint32_t bogus : {4u, 0xFFFFu}) {
    std::string bytes = bytes_;
    poke<std::uint32_t>(bytes, servers, 7, bogus);
    reseal_column(bytes, servers);
    expect_rejected(bytes,
                    "adopt_columns: per-item event server id out of range",
                    "server " + std::to_string(bogus) + ", ");
  }
}

TEST_F(DptCorruption, ResealedEventCountThatDiffersFromTheRowsIsRejected) {
  // Each item holds as many events as rows that hold it, so each event
  // time finds one of the item's rows (RequestSequence::row_of_event).  Move
  // the boundary between the two items' events: item 0 keeps 4 events
  // (rows say 5), item 1 gets 6.  Item 1's first event is item 0's last,
  // time 4.0, so its times break too; the count is reported first.  Then
  // the same boundary with item 1's new first time lowered to 0.7, where
  // every run stays ascending and only the count finds the fault.
  const DescriptorView starts = find_descriptor(bytes_, /*id=*/5);
  const DescriptorView times = find_descriptor(bytes_, /*id=*/7);
  ASSERT_EQ(peek<std::uint64_t>(bytes_, starts, 1), 5u);
  std::string bytes = bytes_;
  poke<std::uint64_t>(bytes, starts, 1, 4);
  reseal_column(bytes, starts);
  const std::string message =
      "adopt_columns: an item's event count differs from the rows that hold "
      "it";
  expect_rejected(bytes, message, "times broken too, ");
  poke<double>(bytes, times, 4, 0.7);
  reseal_column(bytes, times);
  expect_rejected(bytes, message, "times ascending, ");

  bytes = bytes_;
  poke<std::uint64_t>(bytes, starts, 1, 6);
  reseal_column(bytes, starts);
  expect_rejected(bytes, message, "item 0 one longer, ");
}

TEST_F(DptCorruption, VerifyColumnsRejectsAMovedEvent) {
  // An event whose time moved but stays ascending (item 0's 0.8 to 0.9), or
  // whose server moved but stays in range (item 0's 1 to 3 at 0.8), passes
  // the structural pass: only the cross-check against the rows finds it.
  const DescriptorView times = find_descriptor(bytes_, /*id=*/7);
  const DescriptorView servers = find_descriptor(bytes_, /*id=*/8);
  std::string moved_time = bytes_;
  poke<double>(moved_time, times, 1, 0.9);
  reseal_column(moved_time, times);
  std::string moved_server = bytes_;
  poke<std::uint32_t>(moved_server, servers, 1, 3);
  reseal_column(moved_server, servers);
  for (const std::string* bytes : {&moved_time, &moved_server}) {
    write_bytes(path_, *bytes);
    for (ThreadPool* pool : pools_.all()) {
      DptReadOptions options;
      options.pool = pool;
      EXPECT_EQ(open_error(path_, options), "") << width_of(pool);
      options.verify_columns = true;
      EXPECT_EQ(open_error(path_, options),
                path_ +
                    ": adopt_columns: stored per-item events do not match the "
                    "items")
          << width_of(pool);
    }
  }

  // Opened without the cross-check, the `--no-kernels` reference still
  // reads each request from the row its event's time finds, where the
  // kernels read the events alone.  θ = 0.3 packs {0, 1} (J = 3/7).
  const CostModel model = testing::running_example_model();
  DpGreedyOptions kernel;
  DpGreedyOptions reference;
  reference.dp.use_kernels = false;
  write_bytes(path_, moved_time);
  {
    // No request at 0.9: the reference throws, the kernels solve.
    const RequestSequence sequence = read_trace_dpt(path_);
    EXPECT_NO_THROW((void)solve_dp_greedy(sequence, model, kernel));
    try {
      (void)solve_dp_greedy(sequence, model, reference);
      ADD_FAILURE() << "the reference solved a moved event time";
    } catch (const InvalidArgument& error) {
      EXPECT_EQ(std::string(error.what()),
                "row_of_event: no request at time 0.9 holds item 0");
    }
  }
  write_bytes(path_, moved_server);
  {
    // The package's first co-request: the kernels' kept plan has the
    // moved event's server, the reference's the row's.
    const RequestSequence sequence = read_trace_dpt(path_);
    const DpGreedyResult got = solve_dp_greedy(sequence, model, kernel);
    const DpGreedyResult want = solve_dp_greedy(sequence, model, reference);
    ASSERT_EQ(got.packages.size(), 1u);
    ASSERT_EQ(want.packages.size(), 1u);
    const Flow& got_flow = got.packages.front().package_flow;
    const Flow& want_flow = want.packages.front().package_flow;
    ASSERT_EQ(got_flow.size(), 3u);
    ASSERT_EQ(want_flow.size(), 3u);
    EXPECT_EQ(got_flow.points[0].time, 0.8);
    EXPECT_EQ(want_flow.points[0].time, 0.8);
    EXPECT_EQ(got_flow.points[0].server, 3u);
    EXPECT_EQ(want_flow.points[0].server, 1u);
  }
}

// The rows of a `.dpt` must be non-empty with strictly ascending items:
// Phase 1 indexes its pair counts by a row's items, and a repeated item
// wrote past the dense pair-count array.  The running example's rows are
// {0} {0,1} {1} {0,1} {0} {1} {0,1}.

TEST_F(DptCorruption, ResealedRepeatedItemInARowIsRejected) {
  // Version 2's event counts no longer match the rows either (item 0 is in
  // six rows, item 1 in four), but the row fault is reported first.
  for (const Layout& file : layouts()) {
    std::string bytes = file.bytes;
    const DescriptorView items = find_descriptor(bytes, /*id=*/4);
    poke<std::uint32_t>(bytes, items, 2, 0);  // row 1 {0,1} becomes {0,0}
    reseal_column(bytes, items);
    expect_rejected(bytes,
                    "RequestSequence: item set must be sorted and "
                    "duplicate-free at request 1",
                    file.name);
  }
}

TEST_F(DptCorruption, ResealedSwappedPairInARowIsRejected) {
  // Row 3 {0,1} at pool entries 4 and 5, and the last row, row 6, at 8 and 9.
  for (const Layout& file : layouts()) {
    for (const std::size_t row : {3u, 6u}) {
      const std::size_t entry = row == 3 ? 4 : 8;
      std::string bytes = file.bytes;
      const DescriptorView items = find_descriptor(bytes, /*id=*/4);
      const auto first = peek<std::uint32_t>(bytes, items, entry);
      const auto second = peek<std::uint32_t>(bytes, items, entry + 1);
      ASSERT_LT(first, second);
      poke<std::uint32_t>(bytes, items, entry, second);
      poke<std::uint32_t>(bytes, items, entry + 1, first);
      reseal_column(bytes, items);
      expect_rejected(bytes,
                      "RequestSequence: item set must be sorted and "
                      "duplicate-free at request " + std::to_string(row),
                      file.name);
    }
  }
}

TEST_F(DptCorruption, ResealedEmptyRowIsRejected) {
  // offsets[1] = 0 empties row 0 and hands its item to row 1, which then
  // repeats item 0: the empty row is reported first.
  for (const Layout& file : layouts()) {
    std::string bytes = file.bytes;
    const DescriptorView offsets = find_descriptor(bytes, /*id=*/3);
    poke_offset(bytes, offsets, 1, 0);
    reseal_column(bytes, offsets);
    expect_rejected(bytes, "RequestSequence: empty item set at request 0",
                    file.name);
  }
}

TEST_F(DptCorruption, ChecksumMismatchOutranksAStructuralFault) {
  for (const Layout& file : layouts()) {
    // A server id out of range in column 1 (resealed) and a flipped times
    // byte in column 2: the checksum is reported, in every mode and at
    // every pool width, although the servers task may finish first.
    std::string bytes = file.bytes;
    const DescriptorView servers = find_descriptor(bytes, /*id=*/1);
    poke<std::uint32_t>(bytes, servers, 0, 0xFFFFu);
    reseal_column(bytes, servers);
    const DescriptorView times = find_descriptor(bytes, /*id=*/2);
    bytes[times.byte_offset + 3] =
        static_cast<char>(bytes[times.byte_offset + 3] ^ 0x10);
    expect_rejected(bytes, "checksum mismatch in column 'times'", file.name);

    // Two swapped entries of the largest task's per-item column (resealed:
    // item 0's first two rows or event times) and a flipped server byte:
    // the checksum still wins.
    bytes = file.bytes;
    const DescriptorView per_item =
        find_descriptor(bytes, file.per_item_column);
    const auto first = peek<std::uint64_t>(bytes, per_item, 0);
    poke<std::uint64_t>(bytes, per_item, 0,
                        peek<std::uint64_t>(bytes, per_item, 1));
    poke<std::uint64_t>(bytes, per_item, 1, first);
    reseal_column(bytes, per_item);
    bytes[servers.byte_offset] =
        static_cast<char>(bytes[servers.byte_offset] ^ 1);
    expect_rejected(bytes, "checksum mismatch in column 'servers'", file.name);
  }
}

// The times must be strictly increasing, finite and > 0, as RequestSequence
// requires: the DP reads them as the order of service.  The running
// example's times are 0.5 0.8 1.1 1.4 2.6 3.2 4.0.  Each fault names the
// first row RequestSequence's own validation names.

std::string times_message(std::size_t row) {
  return "RequestSequence: times must be strictly increasing, finite and > 0 "
         "(violated at request " + std::to_string(row) + ")";
}

TEST_F(DptCorruption, ResealedTimesOutOfOrderAreRejected) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    std::size_t row;
    double time;
    std::size_t reported;
  };
  const Case cases[] = {
      {"NaN", 3, kNan, 3},
      {"repeated time", 4, 1.4, 4},
      {"step back", 4, 1.0, 4},
      {"+inf in the middle", 3, kInf, 3},
      {"+inf last", 6, kInf, 6},
      {"first time 0", 0, 0.0, 0},
      {"first time -1", 0, -1.0, 0},
  };
  for (const Layout& file : layouts()) {
    const DescriptorView times = find_descriptor(file.bytes, /*id=*/2);
    ASSERT_EQ(times.element_count, 7u);
    for (const Case& c : cases) {
      std::string bytes = file.bytes;
      poke<double>(bytes, times, c.row, c.time);
      reseal_column(bytes, times);
      expect_rejected(bytes, times_message(c.reported),
                      file.name + c.what + ", ");
    }
  }
}

TEST_F(DptCorruption, StructuralFaultOutranksATimesFault) {
  for (const Layout& file : layouts()) {
    // A NaN time (resealed) with a server id out of range, then with a
    // repeated item in a row — the last structural check before the times —
    // in another column: the structural fault is reported, at every pool
    // width.
    std::string times_fault = file.bytes;
    const DescriptorView times = find_descriptor(times_fault, /*id=*/2);
    poke<double>(times_fault, times, 1,
                 std::numeric_limits<double>::quiet_NaN());
    reseal_column(times_fault, times);

    std::string bytes = times_fault;
    const DescriptorView servers = find_descriptor(bytes, /*id=*/1);
    poke<std::uint32_t>(bytes, servers, 0, 0xFFFFu);
    reseal_column(bytes, servers);
    expect_rejected(bytes, "adopt_columns: server id out of range", file.name);

    bytes = times_fault;
    const DescriptorView items = find_descriptor(bytes, /*id=*/4);
    poke<std::uint32_t>(bytes, items, 2, 0);  // row 1 {0,1} becomes {0,0}
    reseal_column(bytes, items);
    expect_rejected(bytes,
                    "RequestSequence: item set must be sorted and "
                    "duplicate-free at request 1",
                    file.name);

    // A flipped byte in another column's payload outranks both.
    bytes[bytes.size() - 5] =
        static_cast<char>(bytes[bytes.size() - 5] ^ 0x40);
    expect_rejected(bytes,
                    std::string("checksum mismatch in column '") +
                        file.last_column_name + "'",
                    file.name);
  }
}

TEST_F(DptCorruption, RowFaultsOutrankEventFaults) {
  // The events are checked against the rows, so the rows' own faults come
  // first: a NaN row time with an event time out of order reports the row.
  std::string bytes = bytes_;
  const DescriptorView times = find_descriptor(bytes, /*id=*/2);
  poke<double>(bytes, times, 1, std::numeric_limits<double>::quiet_NaN());
  reseal_column(bytes, times);
  const DescriptorView events = find_descriptor(bytes, /*id=*/7);
  poke<double>(bytes, events, 2, 0.6);
  reseal_column(bytes, events);
  expect_rejected(bytes, times_message(1));
}

// ---------------------------------------------------------------------------
// Version 1: the committed fixtures open as their CSV sources do, upgrade
// to the version-2 file of the same rows, and keep every message.

/// The committed version-1 fixtures and their CSV sources.
const char* const kVersion1Fixtures[] = {"running_example", "taxi416"};

TEST(DptVersion1, FixturesOpenAsTheirCsvDoes) {
  VerifyPools pools;
  for (const std::string stem : kVersion1Fixtures) {
    const std::string v1 = fixture_path(stem + ".v1.dpt");
    EXPECT_EQ(probe_trace_dpt(v1).version, 1u) << stem;
    const RequestSequence csv = read_trace_file(fixture_path(stem + ".csv"));
    for (const bool verify_columns : {false, true}) {
      for (ThreadPool* pool : pools.all()) {
        DptReadOptions options;
        options.verify_columns = verify_columns;
        options.pool = pool;
        const RequestSequence opened = read_trace_dpt(v1, options);
        EXPECT_FALSE(opened.borrows_storage()) << stem;
        EXPECT_TRUE(same_sequence(csv, opened)) << stem;
        for (ItemId item = 0; item < csv.item_count(); ++item) {
          const ItemEvents want = csv.events_for_item(item);
          const ItemEvents got = opened.events_for_item(item);
          EXPECT_TRUE(std::equal(want.times.begin(), want.times.end(),
                                 got.times.begin(), got.times.end()))
              << stem << " item " << item;
          EXPECT_TRUE(std::equal(want.servers.begin(), want.servers.end(),
                                 got.servers.begin(), got.servers.end()))
              << stem << " item " << item;
        }
      }
    }
  }
}

TEST(DptVersion1, ConvertUpgradesToTheFileOfTheSameRows) {
  for (const std::string stem : kVersion1Fixtures) {
    const std::string from_v1 = temp_path(stem + "_from_v1.dpt");
    const std::string from_csv = temp_path(stem + "_from_csv.dpt");
    write_trace_dpt(from_v1, read_trace_dpt(fixture_path(stem + ".v1.dpt")));
    write_trace_dpt(from_csv, read_trace_file(fixture_path(stem + ".csv")));
    EXPECT_EQ(read_bytes(from_v1), read_bytes(from_csv)) << stem;
    EXPECT_EQ(probe_trace_dpt(from_v1).version, 2u) << stem;
    std::remove(from_v1.c_str());
    std::remove(from_csv.c_str());
  }
}

TEST(DptVersion1, VerifyColumnsChecksTheStoredRowLists) {
  // Item 0's rows {0, 1, 3, 4, 6} become {0, 1, 2, 4, 6}: still ascending
  // and in range, so the pass accepts them; only the cross-check against
  // the rows finds that row 2 does not hold item 0.
  const std::string path = temp_path("v1_rows.dpt");
  std::string bytes = read_bytes(fixture_path("running_example.v1.dpt"));
  const DescriptorView pool = find_descriptor(bytes, /*id=*/6);
  ASSERT_EQ(peek<std::uint64_t>(bytes, pool, 2), 3u);
  poke<std::uint64_t>(bytes, pool, 2, 2);
  reseal_column(bytes, pool);
  write_bytes(path, bytes);
  VerifyPools pools;
  for (ThreadPool* pool_ptr : pools.all()) {
    DptReadOptions options;
    options.pool = pool_ptr;
    EXPECT_EQ(open_error(path, options), "") << width_of(pool_ptr);
    options.verify_columns = true;
    EXPECT_EQ(open_error(path, options),
              path + ": adopt_columns: stored inverted index does not match "
                     "the items")
        << width_of(pool_ptr);
  }
  std::remove(path.c_str());
}

TEST(DptVersion1, TaxiFixtureFaultsKeepTheirMessages) {
  // Faults in the middle of the 416-row fixture, one per version-1 check
  // that cuts or scans a whole column.
  const std::string path = temp_path("v1_taxi.dpt");
  const std::string original = read_bytes(fixture_path("taxi416.v1.dpt"));
  const DescriptorView servers = find_descriptor(original, /*id=*/1);
  const DescriptorView times = find_descriptor(original, /*id=*/2);
  const DescriptorView offsets = find_descriptor(original, /*id=*/3);
  const DescriptorView items = find_descriptor(original, /*id=*/4);
  const DescriptorView starts = find_descriptor(original, /*id=*/5);
  const DescriptorView pool = find_descriptor(original, /*id=*/6);
  ASSERT_EQ(offsets.element_size, 8u);
  ASSERT_EQ(times.element_count, 416u);
  VerifyPools pools;
  const auto expect_fault = [&](std::string bytes, const DescriptorView& column,
                                const std::string& message,
                                const std::string& where) {
    reseal_column(bytes, column);
    write_bytes(path, bytes);
    expect_open_error(path, pools, path + ": " + message, where + ", ");
  };

  std::string bytes = original;
  poke<std::uint32_t>(bytes, servers, 200, 50);
  expect_fault(bytes, servers, "adopt_columns: server id out of range",
               "server");

  bytes = original;
  poke<double>(bytes, times, 300, peek<double>(bytes, times, 299));
  expect_fault(bytes, times, times_message(300), "repeated time");

  bytes = original;
  poke<std::uint64_t>(bytes, offsets, 208,
                      peek<std::uint64_t>(bytes, offsets, 207) - 1);
  expect_fault(bytes, offsets,
               "adopt_columns: item_offsets must be non-decreasing",
               "decreasing offset");

  bytes = original;
  poke<std::uint64_t>(bytes, offsets, 208,
                      peek<std::uint64_t>(bytes, offsets, 207));
  expect_fault(bytes, offsets, "RequestSequence: empty item set at request 207",
               "empty row");

  bytes = original;
  poke<std::uint32_t>(bytes, items, 250, 10);
  expect_fault(bytes, items, "adopt_columns: item id out of range", "item");

  // Item 3's rows: swap its two middle entries.
  const auto begin = peek<std::uint64_t>(original, starts, 3);
  const auto end = peek<std::uint64_t>(original, starts, 4);
  ASSERT_GE(end - begin, 4u);
  const std::size_t mid = static_cast<std::size_t>(begin + (end - begin) / 2);
  bytes = original;
  const auto row = peek<std::uint64_t>(bytes, pool, mid);
  poke<std::uint64_t>(bytes, pool, mid,
                      peek<std::uint64_t>(bytes, pool, mid + 1));
  poke<std::uint64_t>(bytes, pool, mid + 1, row);
  expect_fault(bytes, pool,
               "adopt_columns: an item's inverted index rows are not strictly "
               "ascending",
               "row list");

  bytes = original;
  poke<std::uint64_t>(bytes, pool, pool.element_count - 1, 416);
  expect_fault(bytes, pool, "adopt_columns: inverted index row out of range",
               "row past the end");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Faults deep in a 20,000-row file, where servers, times, item_offsets,
// items_pool and the per-item event columns each hold more than 64 KiB:
// every check must find its fault wherever it sits and name the right row.
// Each fault goes just before, at and after 64 KiB into its column.

class DptDeepFaults : public ::testing::Test {
 protected:
  static constexpr std::size_t kRows = 20000;
  static constexpr std::size_t kItems = 8;
  static constexpr std::size_t kServers = 4;
  // 64 KiB into a column, in entries: of u32 and of u64 or f64 entries.
  static constexpr std::size_t kMark32 = 16384;
  static constexpr std::size_t kMark64 = 8192;
  // The one four-item row, on items_pool entries [kMark32 - 2, kMark32 + 2).
  static constexpr std::size_t kWideRow = (kMark32 - 2) / 2;

  void SetUp() override {
    // Two-item rows {r % 4, 4 + r % 4}, except one four-item row across the
    // items_pool mark.
    SequenceBuilder builder(kServers, kItems);
    for (std::size_t r = 0; r < kRows; ++r) {
      const auto low = static_cast<ItemId>(r % 4);
      const auto server = static_cast<ServerId>(r % kServers);
      const Time time = static_cast<Time>(r + 1);
      if (r == kWideRow) {
        builder.add(server, time, {0, 2, 4, 6});
      } else {
        builder.add(server, time, {low, static_cast<ItemId>(4 + low)});
      }
    }
    path_ = temp_path("dpt_deep.dpt");
    write_trace_dpt(path_, std::move(builder).build());
    bytes_ = read_bytes(path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Reseals `column` in `bytes` and expects every open of it to fail with
  /// exactly "<path>: <message>".
  void expect_fault(std::string bytes, const DescriptorView& column,
                    const std::string& message, const std::string& where) {
    reseal_column(bytes, column);
    write_bytes(path_, bytes);
    expect_open_error(path_, pools_, path_ + ": " + message, where + ", ");
  }

  VerifyPools pools_;
  std::string path_;
  std::string bytes_;
};

TEST_F(DptDeepFaults, TheUntouchedFileOpens) {
  expect_open_error(path_, pools_, "", "");
  const DescriptorView items = find_descriptor(bytes_, /*id=*/4);
  ASSERT_GT(items.element_count, 2 * kMark32);
  const DescriptorView offsets = find_descriptor(bytes_, /*id=*/3);
  ASSERT_GT(offsets.element_count, kMark32 + 1);
  const DescriptorView events = find_descriptor(bytes_, /*id=*/7);
  ASSERT_GT(events.element_count, 2 * kMark64);
}

TEST_F(DptDeepFaults, ServerIdOutOfRange) {
  const DescriptorView servers = find_descriptor(bytes_, /*id=*/1);
  for (const std::size_t at : {kMark32 - 1, kMark32, kMark32 + 1}) {
    std::string bytes = bytes_;
    poke<std::uint32_t>(bytes, servers, at, kServers);
    expect_fault(bytes, servers, "adopt_columns: server id out of range",
                 "server " + std::to_string(at));
  }
}

TEST_F(DptDeepFaults, TimesOutOfOrder) {
  // A step back (the time before repeated) and a NaN, on each side of the
  // mark: both name the row that holds them.
  const DescriptorView times = find_descriptor(bytes_, /*id=*/2);
  ASSERT_GT(times.element_count, 2 * kMark64);
  for (const std::size_t at : {kMark64 - 1, kMark64, kMark64 + 1}) {
    const std::string message = times_message(at);
    std::string bytes = bytes_;
    poke<double>(bytes, times, at, peek<double>(bytes, times, at - 1));
    expect_fault(bytes, times, message, "repeat at " + std::to_string(at));
    bytes = bytes_;
    poke<double>(bytes, times, at, std::numeric_limits<double>::quiet_NaN());
    expect_fault(bytes, times, message, "NaN at " + std::to_string(at));
  }
}

TEST_F(DptDeepFaults, DecreasingItemOffset) {
  const DescriptorView offsets = find_descriptor(bytes_, /*id=*/3);
  ASSERT_EQ(offsets.element_size, 4u);
  for (const std::size_t at : {kMark32 - 1, kMark32, kMark32 + 1}) {
    std::string bytes = bytes_;
    poke<std::uint32_t>(bytes, offsets, at,
                        peek<std::uint32_t>(bytes, offsets, at - 1) - 1);
    expect_fault(bytes, offsets,
                 "adopt_columns: item_offsets must be non-decreasing",
                 "offset " + std::to_string(at));
  }
}

TEST_F(DptDeepFaults, EmptyRow) {
  const DescriptorView offsets = find_descriptor(bytes_, /*id=*/3);
  for (const std::size_t at : {kMark32 - 1, kMark32, kMark32 + 1}) {
    // offsets[at] = offsets[at - 1] empties row at - 1.
    std::string bytes = bytes_;
    poke<std::uint32_t>(bytes, offsets, at,
                        peek<std::uint32_t>(bytes, offsets, at - 1));
    expect_fault(bytes, offsets,
                 "RequestSequence: empty item set at request " +
                     std::to_string(at - 1),
                 "offset " + std::to_string(at));
  }
}

TEST_F(DptDeepFaults, ItemIdOutOfRange) {
  const DescriptorView items = find_descriptor(bytes_, /*id=*/4);
  for (const std::size_t at : {kMark32 - 1, kMark32, kMark32 + 1}) {
    std::string bytes = bytes_;
    poke<std::uint32_t>(bytes, items, at, kItems);
    expect_fault(bytes, items, "adopt_columns: item id out of range",
                 "item " + std::to_string(at));
  }
}

TEST_F(DptDeepFaults, UnsortedRowAcrossTheMark) {
  // Swap a pair of the four-item row before, across and after the mark.
  const DescriptorView items = find_descriptor(bytes_, /*id=*/4);
  const DescriptorView offsets = find_descriptor(bytes_, /*id=*/3);
  ASSERT_EQ(peek<std::uint32_t>(bytes_, offsets, kWideRow), kMark32 - 2);
  ASSERT_EQ(peek<std::uint32_t>(bytes_, offsets, kWideRow + 1), kMark32 + 2);
  for (const std::size_t at : {kMark32 - 2, kMark32 - 1, kMark32}) {
    std::string bytes = bytes_;
    const auto first = peek<std::uint32_t>(bytes, items, at);
    poke<std::uint32_t>(bytes, items, at,
                        peek<std::uint32_t>(bytes, items, at + 1));
    poke<std::uint32_t>(bytes, items, at + 1, first);
    expect_fault(bytes, items,
                 "RequestSequence: item set must be sorted and duplicate-free "
                 "at request " + std::to_string(kWideRow),
                 "pair at " + std::to_string(at));
  }
}

TEST_F(DptDeepFaults, UnsortedItemEventsAcrossTheMark) {
  // Item 1's events cover per_item_times entries around the mark: swap a
  // pair of its times before, across and after it.
  const DescriptorView starts = find_descriptor(bytes_, /*id=*/5);
  const DescriptorView times = find_descriptor(bytes_, /*id=*/7);
  ASSERT_LT(peek<std::uint64_t>(bytes_, starts, 1), kMark64 - 2);
  ASSERT_GT(peek<std::uint64_t>(bytes_, starts, 2), kMark64 + 1);
  for (const std::size_t at : {kMark64 - 2, kMark64 - 1, kMark64}) {
    std::string bytes = bytes_;
    const auto first = peek<double>(bytes, times, at);
    poke<double>(bytes, times, at, peek<double>(bytes, times, at + 1));
    poke<double>(bytes, times, at + 1, first);
    expect_fault(bytes, times, event_times_message(),
                 "pair at " + std::to_string(at));
  }
}

TEST_F(DptDeepFaults, EventServerOutOfRange) {
  const DescriptorView servers = find_descriptor(bytes_, /*id=*/8);
  for (const std::size_t at : {kMark32 - 1, kMark32, kMark32 + 1}) {
    std::string bytes = bytes_;
    poke<std::uint32_t>(bytes, servers, at, kServers);
    expect_fault(bytes, servers,
                 "adopt_columns: per-item event server id out of range",
                 "event server " + std::to_string(at));
  }
}

}  // namespace
}  // namespace dpg
