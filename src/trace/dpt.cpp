#include "trace/dpt.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"

namespace dpg {

namespace {

const obs::Counter g_dpt_rows_written = obs::counter("trace.dpt_rows_written");
const obs::Counter g_dpt_bytes_written =
    obs::counter("trace.dpt_bytes_written");
const obs::Counter g_dpt_opens = obs::counter("trace.dpt_opens");
const obs::Counter g_dpt_bytes_mapped = obs::counter("trace.dpt_bytes_mapped");

// ---------------------------------------------------------------------------
// XXH64 (Yann Collet's xxHash, 64-bit variant) implemented from the public
// spec — the repo takes no third-party dependencies.  Verified against the
// published test vectors in tests/dpt_format_test.cpp.

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t rotl64(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

inline std::uint64_t read_u64(const unsigned char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;  // little-endian host (enforced by the endian marker on read)
}

inline std::uint64_t read_u32_wide(const unsigned char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t xxh64_round(std::uint64_t acc,
                                 std::uint64_t lane) noexcept {
  return rotl64(acc + lane * kPrime2, 31) * kPrime1;
}

inline std::uint64_t xxh64_merge(std::uint64_t hash,
                                 std::uint64_t acc) noexcept {
  return (hash ^ xxh64_round(0, acc)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t dpt_checksum(const void* data, std::size_t size,
                           std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  std::uint64_t hash;
  if (size >= 32) {
    std::uint64_t acc1 = seed + kPrime1 + kPrime2;
    std::uint64_t acc2 = seed + kPrime2;
    std::uint64_t acc3 = seed;
    std::uint64_t acc4 = seed - kPrime1;
    const unsigned char* const limit = end - 32;
    do {
      acc1 = xxh64_round(acc1, read_u64(p));
      acc2 = xxh64_round(acc2, read_u64(p + 8));
      acc3 = xxh64_round(acc3, read_u64(p + 16));
      acc4 = xxh64_round(acc4, read_u64(p + 24));
      p += 32;
    } while (p <= limit);
    hash = rotl64(acc1, 1) + rotl64(acc2, 7) + rotl64(acc3, 12) +
           rotl64(acc4, 18);
    hash = xxh64_merge(hash, acc1);
    hash = xxh64_merge(hash, acc2);
    hash = xxh64_merge(hash, acc3);
    hash = xxh64_merge(hash, acc4);
  } else {
    hash = seed + kPrime5;
  }
  hash += static_cast<std::uint64_t>(size);
  while (p + 8 <= end) {
    hash = rotl64(hash ^ xxh64_round(0, read_u64(p)), 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    hash = rotl64(hash ^ (read_u32_wide(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    hash = rotl64(hash ^ (*p * kPrime5), 11) * kPrime1;
    ++p;
  }
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

namespace {

// ---------------------------------------------------------------------------
// On-disk layout (docs/FORMAT.md).  Serialization is field-by-field through
// little-endian put/get helpers, never a struct memcpy, so the format does
// not depend on host padding rules.

constexpr std::uint32_t kEndianMarker = 0x0A0B0C0Du;
constexpr std::size_t kFixedHeaderBytes = 64;
constexpr std::size_t kDescriptorBytes = 40;
constexpr std::size_t kColumnAlignment = 64;

// Column identifiers.  Readers skip descriptors with ids they do not know —
// the forward-compat rule that lets future versions append columns.
enum ColumnId : std::uint32_t {
  kColServers = 1,         // u32 × n
  kColTimes = 2,           // f64 × n
  kColItemOffsets = 3,     // u32 × (n + 1); u64 in version 1
  kColItemsPool = 4,       // u32 × A
  kColPerItemOffsets = 5,  // u64 × (k + 1)
  kColPerItemPool = 6,     // u64 × A, version 1 only: each item's rows
  kColPerItemTimes = 7,    // f64 × A, version 2
  kColPerItemServers = 8,  // u32 × A, version 2
};
constexpr std::uint32_t kMaxColumnId = kColPerItemServers;

/// The columns a version stores, in file (and descriptor) order.
constexpr std::uint32_t kVersion1Columns[] = {
    kColServers,   kColTimes,          kColItemOffsets,
    kColItemsPool, kColPerItemOffsets, kColPerItemPool};
constexpr std::uint32_t kVersion2Columns[] = {
    kColServers,        kColTimes,        kColItemOffsets,
    kColItemsPool,      kColPerItemOffsets, kColPerItemTimes,
    kColPerItemServers};
constexpr std::uint32_t kVersion2ColumnCount = std::size(kVersion2Columns);

std::span<const std::uint32_t> columns_of(std::uint32_t version) {
  if (version == 1) return kVersion1Columns;
  return kVersion2Columns;
}

const char* column_name(std::uint32_t id) {
  switch (id) {
    case kColServers: return "servers";
    case kColTimes: return "times";
    case kColItemOffsets: return "item_offsets";
    case kColItemsPool: return "items_pool";
    case kColPerItemOffsets: return "per_item_offsets";
    case kColPerItemPool: return "per_item_pool";
    case kColPerItemTimes: return "per_item_times";
    case kColPerItemServers: return "per_item_servers";
    default: return "unknown";
  }
}

struct ColumnDesc {
  std::uint32_t id = 0;
  std::uint32_t element_size = 0;
  std::uint64_t element_count = 0;
  std::uint64_t byte_offset = 0;
  std::uint64_t byte_length = 0;
  std::uint64_t checksum = 0;
};

struct Header {
  std::uint32_t version = kDptVersion;
  std::uint64_t header_bytes = 0;
  std::uint64_t request_count = 0;
  std::uint64_t server_count = 0;
  std::uint64_t item_count = 0;
  std::uint64_t item_access_count = 0;
  std::vector<ColumnDesc> columns;
};

inline void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}
inline void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}
inline std::uint32_t get_u32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
inline std::uint64_t get_u64(const unsigned char* p) noexcept {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

inline std::size_t align_up(std::size_t v, std::size_t a) noexcept {
  return (v + a - 1) / a * a;
}

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw FormatError(path + ": " + what);
}

/// Owns one mmap'ed read-only file; the keeper of borrowed sequences.
/// The mapping is sized from an fstat of the opened descriptor (no
/// stat-then-open race).  The repo's writers replace a file by rename, which
/// leaves the mapped pages alone, but a file truncated in place *while
/// mapped* still raises SIGBUS on access — an mmap fact of life, documented
/// in docs/FORMAT.md.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw IoError("cannot open trace file: " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throw IoError("cannot stat trace file: " + path);
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      data_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (data_ == MAP_FAILED) {
        ::close(fd);
        throw IoError("mmap failed for trace file: " + path + " (" +
                      std::strerror(errno) + ")");
      }
    }
    ::close(fd);  // the mapping outlives the descriptor
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (data_ != nullptr && data_ != MAP_FAILED) ::munmap(data_, size_);
  }

  [[nodiscard]] const unsigned char* data() const noexcept {
    return static_cast<const unsigned char*>(data_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

std::size_t file_size_of(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    throw IoError("cannot stat trace file: " + path);
  }
  return static_cast<std::size_t>(st.st_size);
}

/// Parses and sanity-checks the header + column table against `file_bytes`.
Header parse_header(const std::string& path, const unsigned char* bytes,
                    std::size_t file_bytes) {
  if (file_bytes < kFixedHeaderBytes) {
    corrupt(path, "truncated header (" + std::to_string(file_bytes) +
                      " bytes, need " + std::to_string(kFixedHeaderBytes) +
                      ")");
  }
  if (std::memcmp(bytes, kDptMagic, sizeof kDptMagic) != 0) {
    corrupt(path, "not a .dpt trace (bad magic)");
  }
  if (get_u32(bytes + 8) != kEndianMarker) {
    corrupt(path, "byte order mismatch (file is not little-endian)");
  }
  Header h;
  h.version = get_u32(bytes + 12);
  if (h.version == 0 || h.version > kDptVersion) {
    corrupt(path, "unsupported version " + std::to_string(h.version) +
                      " (this build reads up to " +
                      std::to_string(kDptVersion) + ")");
  }
  h.header_bytes = get_u64(bytes + 16);
  h.request_count = get_u64(bytes + 24);
  h.server_count = get_u64(bytes + 32);
  h.item_count = get_u64(bytes + 40);
  h.item_access_count = get_u64(bytes + 48);
  if (h.item_access_count > kMaxItemAccesses) {
    // item_offsets holds u32 offsets into the items pool.
    corrupt(path, "item access count " + std::to_string(h.item_access_count) +
                      " exceeds the limit of 2^32 - 1");
  }
  const std::uint32_t column_count = get_u32(bytes + 56);
  const std::uint64_t table_bytes =
      kFixedHeaderBytes +
      static_cast<std::uint64_t>(column_count) * kDescriptorBytes;
  if (h.header_bytes < table_bytes || h.header_bytes > file_bytes) {
    corrupt(path, "truncated column table");
  }
  h.columns.reserve(column_count);
  for (std::uint32_t c = 0; c < column_count; ++c) {
    const unsigned char* d = bytes + kFixedHeaderBytes + c * kDescriptorBytes;
    ColumnDesc desc;
    desc.id = get_u32(d);
    desc.element_size = get_u32(d + 4);
    desc.element_count = get_u64(d + 8);
    desc.byte_offset = get_u64(d + 16);
    desc.byte_length = get_u64(d + 24);
    desc.checksum = get_u64(d + 32);
    // Overflow-safe shape check: a multiply here could wrap so that a huge
    // element_count "matches" a tiny byte_length; divide instead.
    if (desc.element_size == 0 ||
        desc.byte_length % desc.element_size != 0 ||
        desc.element_count != desc.byte_length / desc.element_size) {
      corrupt(path, std::string("column '") + column_name(desc.id) +
                        "': descriptor length mismatch");
    }
    // Overflow-safe bounds check: byte_offset + byte_length could wrap past
    // 2^64 and land back inside [0, file_bytes); subtract instead.
    if (desc.byte_offset < h.header_bytes ||
        desc.byte_length > file_bytes ||
        desc.byte_offset > file_bytes - desc.byte_length ||
        desc.byte_offset % alignof(std::max_align_t) != 0) {
      corrupt(path, std::string("column '") + column_name(desc.id) +
                        "': data out of file bounds (truncated file?)");
    }
    h.columns.push_back(desc);
  }
  return h;
}

/// The version's known columns out of the table, by id; unknown ids are
/// ignored (forward compatibility), missing or duplicated known ids are
/// corruption.
struct ColumnSet {
  const ColumnDesc* by_id[kMaxColumnId + 1] = {};
};

ColumnSet resolve_columns(const std::string& path, const Header& h) {
  const std::span<const std::uint32_t> known = columns_of(h.version);
  ColumnSet set;
  for (const ColumnDesc& desc : h.columns) {
    if (std::find(known.begin(), known.end(), desc.id) == known.end()) {
      continue;
    }
    if (set.by_id[desc.id] != nullptr) {
      corrupt(path, std::string("duplicate column '") +
                        column_name(desc.id) + "'");
    }
    set.by_id[desc.id] = &desc;
  }
  const std::uint32_t offset_bytes = h.version == 1 ? 8 : 4;
  const std::uint32_t expected_size[kMaxColumnId + 1] = {
      0, 4, 8, offset_bytes, 4, 8, 8, 8, 4};
  const std::uint64_t expected_count[kMaxColumnId + 1] = {
      0,
      h.request_count,
      h.request_count,
      h.request_count + 1,
      h.item_access_count,
      h.item_count + 1,
      h.item_access_count,
      h.item_access_count,
      h.item_access_count};
  for (const std::uint32_t id : known) {
    const ColumnDesc* desc = set.by_id[id];
    if (desc == nullptr) {
      corrupt(path, std::string("missing column '") + column_name(id) + "'");
    }
    if (desc->element_size != expected_size[id] ||
        desc->element_count != expected_count[id]) {
      corrupt(path, std::string("column '") + column_name(id) +
                        "': shape disagrees with header counts");
    }
  }
  return set;
}

// ---------------------------------------------------------------------------
// The verification pass, the only validator of a file's contents.  Each
// column task hashes its column whole, then runs the column's checks over
// it.  The tasks are spread over the caller's pool, largest first; each CSR
// pair whose second column is cut by the first (item_offsets with
// items_pool; in version 1, per_item_offsets with per_item_pool) is one
// task, since the pool checks cut their column by the verified offsets.
// No task throws: each records whether its checksums matched and its first
// fault, and the open raises them after the join in a fixed order, so the
// error does not depend on the pool width or on which task finished first.

/// The structural checks in the order the open reports them: a file with
/// several faults gets the message of the first.  The two row checks come
/// after the others, then the row times; the per-item events of version 2
/// are checked against the rows, so their faults come last of all.
enum class Check : std::uint8_t {
  kItemOffsetsStart,
  kItemOffsetsEnd,
  kItemOffsetsOrder,
  kPerItemOffsetsStart,
  kPerItemOffsetsEnd,
  kPerItemOffsetsOrder,
  kServerRange,
  kItemRange,
  kPerItemRows,  // version 1, per item in id order: rows ascending, last < n
  kEmptyRow,
  kRowOrder,
  kTimes,
  kEventCounts,  // version 2: each item has one event per row holding it
  kEventServerRange,
  kEventTimes,   // version 2, per item: ascending, finite and > 0
  kPassed,
};

/// What the pass found in one column.
struct ColumnVerdict {
  bool checksum_ok = true;
  Check fault = Check::kPassed;
  std::string message;

  /// Records a fault unless one ordered before it is already held.
  void note(Check check, std::string text) {
    if (check >= fault) return;
    fault = check;
    message = std::move(text);
  }
  [[nodiscard]] bool passed() const noexcept { return fault == Check::kPassed; }
};

struct VerifyPlan {
  const unsigned char* bytes = nullptr;
  const ColumnSet* set = nullptr;
  const Header* header = nullptr;
};

template <typename T>
std::span<const T> column_span(const unsigned char* bytes,
                               const ColumnDesc& desc) {
  // Columns are kColumnAlignment-aligned in the file and the mapping is
  // page-aligned, so the cast target is aligned.
  return {reinterpret_cast<const T*>(bytes + desc.byte_offset),
          static_cast<std::size_t>(desc.element_count)};
}

/// Column `id` of the plan's file, unhashed.
template <typename T>
std::span<const T> plan_column(const VerifyPlan& plan, std::uint32_t id) {
  return column_span<T>(plan.bytes, *plan.set->by_id[id]);
}

/// Column `id`, its checksum compared into `verdict` first.
template <typename T>
std::span<const T> hashed_column(const VerifyPlan& plan, std::uint32_t id,
                                 ColumnVerdict& verdict) {
  const ColumnDesc& desc = *plan.set->by_id[id];
  verdict.checksum_ok =
      dpt_checksum(plan.bytes + desc.byte_offset, desc.byte_length) ==
      desc.checksum;
  return column_span<T>(plan.bytes, desc);
}

/// True when some id is `count` or more (a max fold, which vectorizes).
template <typename T>
bool any_out_of_range(std::span<const T> ids, std::uint64_t count) {
  T top = 0;
  for (const T id : ids) top = std::max(top, id);
  return !ids.empty() && top >= count;
}

/// The first per_item_offsets fault, if any: the column must start at 0,
/// end at the pool size A and never decrease.  Every task that cuts a
/// per-item pool by the offsets asks first; only the offsets' own task
/// reports the fault.
Check item_starts_fault(std::span<const std::uint64_t> starts,
                        std::uint64_t pool_size) {
  // Empty only when the header's item count is 2^64 - 1 and k + 1 wrapped.
  if (starts.empty() || starts.front() != 0) {
    return Check::kPerItemOffsetsStart;
  }
  if (starts.back() != pool_size) return Check::kPerItemOffsetsEnd;
  if (!std::is_sorted(starts.begin(), starts.end())) {
    return Check::kPerItemOffsetsOrder;
  }
  return Check::kPassed;
}

/// Hashes per_item_offsets into its verdict and notes its fault; returns
/// the column.
std::span<const std::uint64_t> verify_item_starts(const VerifyPlan& plan,
                                                  ColumnVerdict* verdicts) {
  ColumnVerdict& verdict = verdicts[kColPerItemOffsets];
  const auto starts =
      hashed_column<std::uint64_t>(plan, kColPerItemOffsets, verdict);
  switch (item_starts_fault(starts, plan.header->item_access_count)) {
    case Check::kPerItemOffsetsStart:
      verdict.note(Check::kPerItemOffsetsStart,
                   "adopt_columns: per_item_offsets must start at 0");
      break;
    case Check::kPerItemOffsetsEnd:
      verdict.note(Check::kPerItemOffsetsEnd,
                   "adopt_columns: per_item_offsets must end at its pool size");
      break;
    case Check::kPerItemOffsetsOrder:
      verdict.note(Check::kPerItemOffsetsOrder,
                   "adopt_columns: per_item_offsets must be non-decreasing");
      break;
    default:
      break;
  }
  return starts;
}

void verify_servers(const VerifyPlan& plan, ColumnVerdict* verdicts) {
  ColumnVerdict& verdict = verdicts[kColServers];
  const auto servers = hashed_column<ServerId>(plan, kColServers, verdict);
  if (any_out_of_range(servers, plan.header->server_count)) {
    verdict.note(Check::kServerRange, "adopt_columns: server id out of range");
  }
}

/// Strictly increasing, finite and > 0, as RequestSequence requires: a
/// positive first time, each time above the one before (`!(a < b)` fails a
/// NaN on either side) and a finite last time (+inf can sit nowhere else in
/// an increasing column).  The message names validate_columns' row.
void verify_times(const VerifyPlan& plan, ColumnVerdict* verdicts) {
  ColumnVerdict& verdict = verdicts[kColTimes];
  const auto times = hashed_column<Time>(plan, kColTimes, verdict);
  if (times.empty()) return;
  const auto step = std::adjacent_find(
      times.begin(), times.end(), [](Time a, Time b) { return !(a < b); });
  std::size_t row = times.size();
  if (!(times.front() > 0.0)) {
    row = 0;
  } else if (step != times.end()) {
    // A +inf before the last row is the fault itself, not the row after it.
    row = static_cast<std::size_t>(step - times.begin()) +
          (std::isinf(*step) ? 0u : 1u);
  } else if (!std::isfinite(times.back())) {
    row = times.size() - 1;
  }
  if (row < times.size()) {
    verdict.note(Check::kTimes,
                 "RequestSequence: times must be strictly increasing, finite "
                 "and > 0 (violated at request " + std::to_string(row) + ")");
  }
}

/// item_offsets, then items_pool: the row checks read the verified offsets.
/// `Offset` is the version's offset width.
template <typename Offset>
void verify_rows(const VerifyPlan& plan, ColumnVerdict* verdicts) {
  ColumnVerdict& offsets_verdict = verdicts[kColItemOffsets];
  const auto offsets =
      hashed_column<Offset>(plan, kColItemOffsets, offsets_verdict);
  if (offsets.front() != 0) {
    offsets_verdict.note(Check::kItemOffsetsStart,
                         "adopt_columns: item_offsets must start at 0");
  } else if (offsets.back() != plan.header->item_access_count) {
    offsets_verdict.note(
        Check::kItemOffsetsEnd,
        "adopt_columns: item_offsets must end at the pool size");
  } else if (const auto step =
                 std::adjacent_find(offsets.begin(), offsets.end(),
                                    std::greater_equal<>());
             step != offsets.end()) {
    // Each entry must exceed the one before: a smaller one anywhere breaks
    // the order, else the first equal one ends an empty row.  The entries
    // themselves are compared, never their differences, so an entry that
    // leaps by half the offset range and falls back is out of order too.
    if (!std::is_sorted(step, offsets.end())) {
      offsets_verdict.note(
          Check::kItemOffsetsOrder,
          "adopt_columns: item_offsets must be non-decreasing");
    } else {
      offsets_verdict.note(Check::kEmptyRow,
                           "RequestSequence: empty item set at request " +
                               std::to_string(step - offsets.begin()));
    }
  }

  ColumnVerdict& items_verdict = verdicts[kColItemsPool];
  const auto items =
      hashed_column<ItemId>(plan, kColItemsPool, items_verdict);
  if (any_out_of_range(items, plan.header->item_count)) {
    items_verdict.note(Check::kItemRange,
                       "adopt_columns: item id out of range");
  }
  // The row check cuts the pool by the offsets, so it runs only when every
  // offset passed: each row is then non-empty and inside the pool.  A row's
  // first pair is compared without a branch on the row's width (one or two
  // items, unpredictably, in a taxi trace): a one-item row compares its
  // item with the next row's first and drops the result, so only the last
  // row's second read needs a clamp.
  if (!offsets_verdict.passed() || !items_verdict.passed()) return;
  const std::size_t last = items.size() - 1;
  for (std::size_t row = 0; row + 1 < offsets.size(); ++row) {
    const std::size_t lo = offsets[row];
    const std::size_t hi = offsets[row + 1];
    bool unsorted =
        (hi - lo >= 2) & (items[lo] >= items[std::min(lo + 1, last)]);
    for (std::size_t p = lo + 2; p < hi; ++p) {
      unsorted |= items[p - 1] >= items[p];
    }
    if (unsorted) {
      items_verdict.note(
          Check::kRowOrder,
          "RequestSequence: item set must be sorted and duplicate-free at "
          "request " + std::to_string(row));
      return;
    }
  }
}

/// Version 1: per_item_offsets, then per_item_pool: each item's rows must be
/// strictly ascending, and its last row below n.
void verify_row_lists(const VerifyPlan& plan, ColumnVerdict* verdicts) {
  const auto starts = verify_item_starts(plan, verdicts);
  ColumnVerdict& verdict = verdicts[kColPerItemPool];
  const auto pool =
      hashed_column<std::uint64_t>(plan, kColPerItemPool, verdict);
  if (!verdicts[kColPerItemOffsets].passed()) return;
  // Strictly ascending, a list's last row bounds all of its rows.
  for (std::size_t item = 0; item + 1 < starts.size(); ++item) {
    const auto rows =
        pool.subspan(starts[item], starts[item + 1] - starts[item]);
    if (std::adjacent_find(rows.begin(), rows.end(),
                           std::greater_equal<>()) != rows.end()) {
      verdict.note(Check::kPerItemRows,
                   "adopt_columns: an item's inverted index rows are not "
                   "strictly ascending");
      return;
    }
    if (!rows.empty() && rows.back() >= plan.header->request_count) {
      verdict.note(Check::kPerItemRows,
                   "adopt_columns: inverted index row out of range");
      return;
    }
  }
}

/// Version 2: per_item_offsets, then each item's event count against the
/// rows that hold it, from a histogram of items_pool.  With the ascending
/// event times, equal counts map each item's events one to one onto its
/// rows wherever each event's time finds a row holding the item
/// (RequestSequence::row_of_event, the `--no-kernels` reference's walk).
/// An item id out of range lands in an overflow bucket: items_pool's own
/// task reports it, ahead of this check.
void verify_event_counts(const VerifyPlan& plan, ColumnVerdict* verdicts) {
  const auto starts = verify_item_starts(plan, verdicts);
  ColumnVerdict& verdict = verdicts[kColPerItemOffsets];
  if (!verdict.passed()) return;
  const std::size_t k = starts.size() - 1;
  std::vector<std::uint32_t> held(k + 1, 0);
  for (const ItemId item : plan_column<ItemId>(plan, kColItemsPool)) {
    ++held[std::min<std::size_t>(item, k)];
  }
  for (std::size_t item = 0; item < k; ++item) {
    if (held[item] != starts[item + 1] - starts[item]) {
      verdict.note(Check::kEventCounts,
                   "adopt_columns: an item's event count differs from the "
                   "rows that hold it");
      return;
    }
  }
}

void verify_event_servers(const VerifyPlan& plan, ColumnVerdict* verdicts) {
  ColumnVerdict& verdict = verdicts[kColPerItemServers];
  const auto servers =
      hashed_column<ServerId>(plan, kColPerItemServers, verdict);
  if (any_out_of_range(servers, plan.header->server_count)) {
    verdict.note(Check::kEventServerRange,
                 "adopt_columns: per-item event server id out of range");
  }
}

/// Version 2: each item's event times are strictly ascending, finite and
/// > 0, the order Phase 2 walks them in and merges two items' events by.
/// Each run is folded without an early exit, so the compares vectorize.
void verify_event_times(const VerifyPlan& plan, ColumnVerdict* verdicts) {
  ColumnVerdict& verdict = verdicts[kColPerItemTimes];
  const auto times = hashed_column<Time>(plan, kColPerItemTimes, verdict);
  const auto starts = plan_column<std::uint64_t>(plan, kColPerItemOffsets);
  if (item_starts_fault(starts, plan.header->item_access_count) !=
      Check::kPassed) {
    return;
  }
  for (std::size_t item = 0; item + 1 < starts.size(); ++item) {
    const auto run =
        times.subspan(starts[item], starts[item + 1] - starts[item]);
    if (run.empty()) continue;
    bool bad = !(run.front() > 0.0) || !std::isfinite(run.back());
    for (std::size_t j = 1; j < run.size(); ++j) {
      bad |= !(run[j - 1] < run[j]);
    }
    if (bad) {
      verdict.note(Check::kEventTimes,
                   "adopt_columns: an item's event times are not strictly "
                   "ascending, finite and > 0");
      return;
    }
  }
}

/// Runs the pass over the version's columns, on `pool` when set, then
/// raises the first checksum mismatch in column-id order, else the first
/// structural fault in Check order.
void verify_pass(const std::string& path, const VerifyPlan& plan,
                 ThreadPool* pool) {
  ColumnVerdict verdicts[kMaxColumnId + 1];
  struct Task {
    std::uint64_t bytes;
    void (*run)(const VerifyPlan&, ColumnVerdict*);
  };
  const auto bytes_of = [&plan](std::uint32_t id) {
    return plan.set->by_id[id]->byte_length;
  };
  std::vector<Task> tasks = {
      {bytes_of(kColServers), verify_servers},
      {bytes_of(kColTimes), verify_times},
  };
  if (plan.header->version == 1) {
    tasks.push_back({bytes_of(kColItemOffsets) + bytes_of(kColItemsPool),
                     verify_rows<std::uint64_t>});
    tasks.push_back({bytes_of(kColPerItemOffsets) + bytes_of(kColPerItemPool),
                     verify_row_lists});
  } else {
    tasks.push_back({bytes_of(kColItemOffsets) + bytes_of(kColItemsPool),
                     verify_rows<ItemOffset>});
    // The histogram reads items_pool.
    tasks.push_back({bytes_of(kColPerItemOffsets) + bytes_of(kColItemsPool),
                     verify_event_counts});
    tasks.push_back({bytes_of(kColPerItemTimes), verify_event_times});
    tasks.push_back({bytes_of(kColPerItemServers), verify_event_servers});
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Task& x, const Task& y) {
                     return x.bytes > y.bytes;
                   });
  const auto run = [&](std::size_t t) {
    const obs::TraceSpan span("trace/dpt_verify");
    tasks[t].run(plan, verdicts);
  };
  if (pool != nullptr) {
    parallel_for(*pool, tasks.size(), run);
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) run(t);
  }

  for (std::uint32_t id = 1; id <= kMaxColumnId; ++id) {
    if (!verdicts[id].checksum_ok) {
      corrupt(path, std::string("checksum mismatch in column '") +
                        column_name(id) + "'");
    }
  }
  const ColumnVerdict& first = *std::min_element(
      std::begin(verdicts), std::end(verdicts),
      [](const ColumnVerdict& x, const ColumnVerdict& y) {
        return x.fault < y.fault;
      });
  if (!first.passed()) corrupt(path, first.message);
}

/// The sequence of a version-1 file whose pass succeeded: its rows copied
/// into an owned sequence, which builds the per-item events.  With
/// `verify_columns` the stored row lists are cross-checked against a walk
/// of the rows, one cursor per item, as version 1 always did.
RequestSequence sequence_of_version1(const std::string& path,
                                     const VerifyPlan& plan,
                                     bool verify_columns) {
  const Header& h = *plan.header;
  const auto servers = plan_column<ServerId>(plan, kColServers);
  const auto times = plan_column<Time>(plan, kColTimes);
  const auto offsets = plan_column<std::uint64_t>(plan, kColItemOffsets);
  const auto items = plan_column<ItemId>(plan, kColItemsPool);
  SequenceBuilder builder(h.server_count, h.item_count);
  builder.reserve(servers.size(), items.size());
  for (std::size_t row = 0; row < servers.size(); ++row) {
    builder.begin_request(servers[row], times[row]);
    for (std::uint64_t p = offsets[row]; p < offsets[row + 1]; ++p) {
      builder.push_item(items[p]);
    }
    builder.end_request();
  }
  RequestSequence sequence = std::move(builder).build();
  if (verify_columns) {
    // Each row must be the next entry of every item it holds.  The lists'
    // lengths and the rows' item counts both sum to A, so when no list
    // runs out, every list ends where its item's rows do.
    const auto starts = plan_column<std::uint64_t>(plan, kColPerItemOffsets);
    const auto stored = plan_column<std::uint64_t>(plan, kColPerItemPool);
    std::vector<std::uint64_t> cursor(starts.begin(), starts.end() - 1);
    for (std::size_t row = 0; row < sequence.size(); ++row) {
      for (const ItemId item : sequence.items_of(row)) {
        const std::uint64_t at = cursor[item]++;
        if (at >= starts[item + 1] || stored[at] != row) {
          corrupt(path,
                  "adopt_columns: stored inverted index does not match the "
                  "items");
        }
      }
    }
  }
  return sequence;
}

}  // namespace

void write_trace_dpt(const std::string& path,
                     const RequestSequence& sequence) {
  // Columns are memcpy'd verbatim, so a big-endian host would stamp the
  // little-endian marker onto byte-swapped data.  Readers would reject
  // their own marker anyway; fail the build instead of writing bad files.
  static_assert(std::endian::native == std::endian::little,
                "write_trace_dpt stores columns verbatim little-endian");
  const obs::TraceSpan span("trace/dpt_write");
  const SequenceColumns cols = sequence.columns();
  require(cols.items_pool.size() <= kMaxItemAccesses,
          "write_trace_dpt: a .dpt holds at most 2^32 - 1 item accesses");

  Header h;
  h.request_count = sequence.size();
  h.server_count = sequence.server_count();
  h.item_count = sequence.item_count();
  h.item_access_count = sequence.total_item_accesses();
  h.header_bytes = kFixedHeaderBytes + kVersion2ColumnCount * kDescriptorBytes;

  struct Plan {
    std::uint32_t id;
    const void* data;
    std::uint32_t element_size;
    std::uint64_t element_count;
  };
  const Plan plans[kVersion2ColumnCount] = {
      {kColServers, cols.servers.data(), 4, cols.servers.size()},
      {kColTimes, cols.times.data(), 8, cols.times.size()},
      {kColItemOffsets, cols.item_offsets.data(), 4, cols.item_offsets.size()},
      {kColItemsPool, cols.items_pool.data(), 4, cols.items_pool.size()},
      {kColPerItemOffsets, cols.per_item_offsets.data(), 8,
       cols.per_item_offsets.size()},
      {kColPerItemTimes, cols.per_item_times.data(), 8,
       cols.per_item_times.size()},
      {kColPerItemServers, cols.per_item_servers.data(), 4,
       cols.per_item_servers.size()},
  };

  std::size_t cursor = align_up(h.header_bytes, kColumnAlignment);
  for (const Plan& plan : plans) {
    ColumnDesc desc;
    desc.id = plan.id;
    desc.element_size = plan.element_size;
    desc.element_count = plan.element_count;
    desc.byte_offset = cursor;
    desc.byte_length = plan.element_count * plan.element_size;
    desc.checksum = dpt_checksum(plan.data, desc.byte_length);
    h.columns.push_back(desc);
    cursor = align_up(cursor + desc.byte_length, kColumnAlignment);
  }

  std::vector<unsigned char> header;
  header.reserve(align_up(h.header_bytes, kColumnAlignment));
  // Byte by byte, as the put_* helpers write: GCC 12's -Wstringop-overflow
  // misreads a range insert into the reserved buffer under -fsanitize=thread.
  for (const char c : kDptMagic) header.push_back(static_cast<unsigned char>(c));
  put_u32(header, kEndianMarker);
  put_u32(header, h.version);
  put_u64(header, h.header_bytes);
  put_u64(header, h.request_count);
  put_u64(header, h.server_count);
  put_u64(header, h.item_count);
  put_u64(header, h.item_access_count);
  put_u32(header, kVersion2ColumnCount);
  put_u32(header, 0);  // reserved
  for (const ColumnDesc& desc : h.columns) {
    put_u32(header, desc.id);
    put_u32(header, desc.element_size);
    put_u64(header, desc.element_count);
    put_u64(header, desc.byte_offset);
    put_u64(header, desc.byte_length);
    put_u64(header, desc.checksum);
  }
  header.resize(align_up(header.size(), kColumnAlignment), 0);

  std::size_t written = 0;
  replace_trace_file(path, [&](std::ostream& out) {
    out.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
    written = header.size();
    const char zeros[kColumnAlignment] = {};
    for (std::size_t i = 0; i < kVersion2ColumnCount; ++i) {
      const ColumnDesc& desc = h.columns[i];
      if (written < desc.byte_offset) {
        out.write(zeros,
                  static_cast<std::streamsize>(desc.byte_offset - written));
        written = desc.byte_offset;
      }
      out.write(static_cast<const char*>(plans[i].data),
                static_cast<std::streamsize>(desc.byte_length));
      written += desc.byte_length;
    }
  });
  g_dpt_rows_written.add(sequence.size());
  g_dpt_bytes_written.add(written);
}

RequestSequence read_trace_dpt(const std::string& path,
                               const DptReadOptions& options) {
  const obs::TraceSpan span("trace/dpt_open");
  g_dpt_opens.add();

  // Borrowing views into the file verbatim requires the in-memory element
  // shapes to match the on-disk ones.
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "the .dpt zero-copy path assumes 64-bit size_t");
  static_assert(sizeof(Time) == 8 && sizeof(ServerId) == 4 &&
                    sizeof(ItemId) == 4 && sizeof(ItemOffset) == 4,
                "the .dpt column shapes mirror core/request.hpp");

  auto mapped = std::make_shared<MappedFile>(path);
  const std::size_t file_bytes = mapped->size();
  g_dpt_bytes_mapped.add(file_bytes);
  const unsigned char* bytes = mapped->data();
  const Header h = parse_header(path, bytes, file_bytes);
  const ColumnSet set = resolve_columns(path, h);
  const VerifyPlan plan{bytes, &set, &h};
  verify_pass(path, plan, options.pool);
  if (h.version == 1) {
    return sequence_of_version1(path, plan, options.verify_columns);
  }

  SequenceColumns columns;
  columns.servers = plan_column<ServerId>(plan, kColServers);
  columns.times = plan_column<Time>(plan, kColTimes);
  columns.items_pool = plan_column<ItemId>(plan, kColItemsPool);
  columns.item_offsets = plan_column<ItemOffset>(plan, kColItemOffsets);
  columns.per_item_offsets =
      plan_column<std::size_t>(plan, kColPerItemOffsets);
  columns.per_item_times = plan_column<Time>(plan, kColPerItemTimes);
  columns.per_item_servers = plan_column<ServerId>(plan, kColPerItemServers);
  try {
    return RequestSequence::adopt_columns(h.server_count, h.item_count,
                                          columns, std::move(mapped),
                                          options.verify_columns);
  } catch (const InvalidArgument& e) {
    // Events that do not match the rows (verify_columns) are file
    // corruption from the caller's point of view.
    corrupt(path, e.what());
  }
}

DptInfo probe_trace_dpt(const std::string& path) {
  const std::size_t file_bytes = file_size_of(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path);
  // Read the fixed header first, then size the buffer from its header_bytes
  // field — the column table has no fixed cap (future versions may append
  // columns), so a fixed prefix could truncate a valid table.
  std::vector<unsigned char> head(
      std::min<std::size_t>(file_bytes, kFixedHeaderBytes));
  in.read(reinterpret_cast<char*>(head.data()),
          static_cast<std::streamsize>(head.size()));
  if (!in && !head.empty()) {
    throw IoError("error while reading trace file: " + path);
  }
  if (head.size() < kFixedHeaderBytes) {
    corrupt(path, "truncated header (" + std::to_string(head.size()) +
                      " bytes, need " + std::to_string(kFixedHeaderBytes) +
                      ")");
  }
  const std::uint64_t header_bytes = get_u64(head.data() + 16);
  if (header_bytes > file_bytes) {
    corrupt(path, "truncated column table");
  }
  if (header_bytes > head.size()) {
    head.resize(static_cast<std::size_t>(header_bytes));
    in.read(reinterpret_cast<char*>(head.data() + kFixedHeaderBytes),
            static_cast<std::streamsize>(head.size() - kFixedHeaderBytes));
    if (!in) throw IoError("error while reading trace file: " + path);
  }
  const Header h = parse_header(path, head.data(), file_bytes);
  resolve_columns(path, h);
  DptInfo info;
  info.version = h.version;
  info.request_count = h.request_count;
  info.server_count = h.server_count;
  info.item_count = h.item_count;
  info.item_access_count = h.item_access_count;
  info.column_count = h.columns.size();
  info.file_bytes = file_bytes;
  return info;
}

bool is_dpt_path(std::string_view path) noexcept {
  if (path.size() < 4) return false;
  const std::string_view ext = path.substr(path.size() - 4);
  return ext[0] == '.' && (ext[1] == 'd' || ext[1] == 'D') &&
         (ext[2] == 'p' || ext[2] == 'P') && (ext[3] == 't' || ext[3] == 'T');
}

RequestSequence read_trace_auto(const std::string& path, ThreadPool* pool) {
  if (path == "-") {
    // stdin is always CSV: the .dpt reader needs a seekable/mappable file.
    return read_trace_stream(std::cin);
  }
  if (is_dpt_path(path)) {
    DptReadOptions options;
    options.pool = pool;
    return read_trace_dpt(path, options);
  }
  return read_trace_file(path);
}

void write_trace_auto(const std::string& path,
                      const RequestSequence& sequence) {
  if (is_dpt_path(path)) {
    write_trace_dpt(path, sequence);
    return;
  }
  write_trace_file(path, sequence);
}

}  // namespace dpg
