#include "trace/dpt.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
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

DptChecksumStream::DptChecksumStream(std::uint64_t seed) noexcept
    : seed_(seed) {
  acc_[0] = seed + kPrime1 + kPrime2;
  acc_[1] = seed + kPrime2;
  acc_[2] = seed;
  acc_[3] = seed - kPrime1;
}

void DptChecksumStream::update(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  total_ += size;
  // Top up a carried partial stripe first.  Consuming eagerly at exactly 32
  // buffered bytes matches the one-shot loop, which also folds a stripe
  // when exactly 32 bytes remain (its tail is total % 32 bytes).
  if (buffered_ > 0) {
    const std::size_t take = std::min(size, sizeof buffer_ - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    size -= take;
    if (buffered_ < sizeof buffer_) return;
    acc_[0] = xxh64_round(acc_[0], read_u64(buffer_));
    acc_[1] = xxh64_round(acc_[1], read_u64(buffer_ + 8));
    acc_[2] = xxh64_round(acc_[2], read_u64(buffer_ + 16));
    acc_[3] = xxh64_round(acc_[3], read_u64(buffer_ + 24));
    buffered_ = 0;
  }
  // Whole stripes straight from the caller's buffer, no copy.
  while (size >= 32) {
    acc_[0] = xxh64_round(acc_[0], read_u64(p));
    acc_[1] = xxh64_round(acc_[1], read_u64(p + 8));
    acc_[2] = xxh64_round(acc_[2], read_u64(p + 16));
    acc_[3] = xxh64_round(acc_[3], read_u64(p + 24));
    p += 32;
    size -= 32;
  }
  if (size > 0) {
    std::memcpy(buffer_, p, size);
    buffered_ = size;
  }
}

std::uint64_t DptChecksumStream::digest() const noexcept {
  // Finalize from a copy: the accumulators already hold every full stripe
  // (floor(total / 32) of them), the carry buffer holds the total % 32
  // tail — exactly the split the one-shot function reaches before its own
  // finalization.
  std::uint64_t hash;
  if (total_ >= 32) {
    hash = rotl64(acc_[0], 1) + rotl64(acc_[1], 7) + rotl64(acc_[2], 12) +
           rotl64(acc_[3], 18);
    hash = xxh64_merge(hash, acc_[0]);
    hash = xxh64_merge(hash, acc_[1]);
    hash = xxh64_merge(hash, acc_[2]);
    hash = xxh64_merge(hash, acc_[3]);
  } else {
    hash = seed_ + kPrime5;
  }
  hash += total_;
  const unsigned char* p = buffer_;
  const unsigned char* const end = buffer_ + buffered_;
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
constexpr std::uint32_t kColumnCount = 6;

// Column identifiers.  Readers skip descriptors with ids they do not know —
// the forward-compat rule that lets future versions append columns.
enum ColumnId : std::uint32_t {
  kColServers = 1,        // u32 × n
  kColTimes = 2,          // f64 × n
  kColItemOffsets = 3,    // u64 × (n + 1)
  kColItemsPool = 4,      // u32 × A
  kColPerItemOffsets = 5, // u64 × (k + 1)
  kColPerItemPool = 6,    // u64 × A
};

const char* column_name(std::uint32_t id) {
  switch (id) {
    case kColServers: return "servers";
    case kColTimes: return "times";
    case kColItemOffsets: return "item_offsets";
    case kColItemsPool: return "items_pool";
    case kColPerItemOffsets: return "per_item_offsets";
    case kColPerItemPool: return "per_item_pool";
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
/// stat-then-open race), but a file truncated *while mapped* still raises
/// SIGBUS on access — an mmap fact of life, documented in docs/FORMAT.md.
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

/// The six known columns out of the table, by id; unknown ids are ignored
/// (forward compatibility), missing or duplicated known ids are corruption.
struct ColumnSet {
  const ColumnDesc* by_id[kColumnCount + 1] = {};
};

ColumnSet resolve_columns(const std::string& path, const Header& h) {
  ColumnSet set;
  for (const ColumnDesc& desc : h.columns) {
    if (desc.id < 1 || desc.id > kColumnCount) continue;
    if (set.by_id[desc.id] != nullptr) {
      corrupt(path, std::string("duplicate column '") +
                        column_name(desc.id) + "'");
    }
    set.by_id[desc.id] = &desc;
  }
  const std::uint32_t expected_size[kColumnCount + 1] = {0, 4, 8, 8, 4, 8, 8};
  const std::uint64_t expected_count[kColumnCount + 1] = {
      0,
      h.request_count,
      h.request_count,
      h.request_count + 1,
      h.item_access_count,
      h.item_count + 1,
      h.item_access_count};
  for (std::uint32_t id = 1; id <= kColumnCount; ++id) {
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
// The verification pass.  Each column task hashes its column whole, then
// runs the column's structural checks over it.  The tasks are spread over
// the caller's pool, largest first; each CSR pair (item_offsets with
// items_pool, per_item_offsets with per_item_pool) is one task, since the
// pool checks cut their column by the verified offsets.  No task throws:
// each records whether its checksums matched and its first structural
// fault, and the open raises them after the join in a fixed order, so the
// error does not depend on the pool width or on which task finished first.

/// The structural checks in the order the open reports them: a file with
/// several faults gets the message of the first.  The two row checks come
/// last.
enum class Check : std::uint8_t {
  kItemOffsetsStart,
  kItemOffsetsEnd,
  kItemOffsetsOrder,
  kPerItemOffsetsStart,
  kPerItemOffsetsEnd,
  kPerItemOffsetsOrder,
  kServerRange,
  kItemRange,
  kPerItemRows,  // per item in id order: rows ascending, then last row < n
  kEmptyRow,
  kRowOrder,
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
  bool hash = true;           // compare every column's XXH64
  bool check_offsets = true;  // both offsets columns
  bool check_content = true;  // id ranges, per-item rows, the row checks
};

template <typename T>
std::span<const T> column_span(const unsigned char* bytes,
                               const ColumnDesc& desc) {
  // Columns are kColumnAlignment-aligned in the file and the base is page-
  // (mmap) or allocator- (read) aligned, so the cast target is aligned.
  return {reinterpret_cast<const T*>(bytes + desc.byte_offset),
          static_cast<std::size_t>(desc.element_count)};
}

/// Column `id`, its checksum compared into `verdict` first when the plan
/// hashes.
template <typename T>
std::span<const T> hashed_column(const VerifyPlan& plan, std::uint32_t id,
                                 ColumnVerdict& verdict) {
  const ColumnDesc& desc = *plan.set->by_id[id];
  if (plan.hash) {
    verdict.checksum_ok =
        dpt_checksum(plan.bytes + desc.byte_offset, desc.byte_length) ==
        desc.checksum;
  }
  return column_span<T>(plan.bytes, desc);
}

/// True when some id is `count` or more (a max fold, which vectorizes).
template <typename T>
bool any_out_of_range(std::span<const T> ids, std::uint64_t count) {
  T top = 0;
  for (const T id : ids) top = std::max(top, id);
  return !ids.empty() && top >= count;
}

void verify_servers(const VerifyPlan& plan, ColumnVerdict* verdicts) {
  ColumnVerdict& verdict = verdicts[kColServers];
  const auto servers = hashed_column<ServerId>(plan, kColServers, verdict);
  if (plan.check_content &&
      any_out_of_range(servers, plan.header->server_count)) {
    verdict.note(Check::kServerRange, "adopt_columns: server id out of range");
  }
}

void verify_times(const VerifyPlan& plan, ColumnVerdict* verdicts) {
  // The trusting open takes the times as they are: only the checksum
  // covers them (verify_columns checks their order).
  (void)hashed_column<Time>(plan, kColTimes, verdicts[kColTimes]);
}

/// item_offsets, then items_pool: the row checks read the verified offsets.
void verify_rows(const VerifyPlan& plan, ColumnVerdict* verdicts) {
  ColumnVerdict& offsets_verdict = verdicts[kColItemOffsets];
  const auto offsets =
      hashed_column<std::uint64_t>(plan, kColItemOffsets, offsets_verdict);
  if (plan.check_offsets) {
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
      // Each entry must exceed the one before: a smaller one anywhere
      // breaks the order, else the first equal one ends an empty row.
      if (!std::is_sorted(step, offsets.end())) {
        offsets_verdict.note(
            Check::kItemOffsetsOrder,
            "adopt_columns: item_offsets must be non-decreasing");
      } else if (plan.check_content) {
        offsets_verdict.note(
            Check::kEmptyRow,
            "RequestSequence: empty item set at request " +
                std::to_string(step - offsets.begin()));
      }
    }
  }

  ColumnVerdict& items_verdict = verdicts[kColItemsPool];
  const auto items =
      hashed_column<ItemId>(plan, kColItemsPool, items_verdict);
  if (!plan.check_content) return;
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

/// per_item_offsets, then per_item_pool: each item's rows must be strictly
/// ascending, and its last row below n.
void verify_item_index(const VerifyPlan& plan, ColumnVerdict* verdicts) {
  ColumnVerdict& starts_verdict = verdicts[kColPerItemOffsets];
  const auto starts =
      hashed_column<std::uint64_t>(plan, kColPerItemOffsets, starts_verdict);
  if (plan.check_offsets) {
    // Empty only when the header's item count is 2^64 - 1 and k + 1 wrapped.
    if (starts.empty() || starts.front() != 0) {
      starts_verdict.note(Check::kPerItemOffsetsStart,
                          "adopt_columns: per_item_offsets must start at 0");
    } else if (starts.back() != plan.header->item_access_count) {
      starts_verdict.note(
          Check::kPerItemOffsetsEnd,
          "adopt_columns: per_item_offsets must end at its pool size");
    } else if (!std::is_sorted(starts.begin(), starts.end())) {
      starts_verdict.note(
          Check::kPerItemOffsetsOrder,
          "adopt_columns: per_item_offsets must be non-decreasing");
    }
  }

  ColumnVerdict& verdict = verdicts[kColPerItemPool];
  const auto pool =
      hashed_column<std::uint64_t>(plan, kColPerItemPool, verdict);
  if (!plan.check_content || !starts_verdict.passed()) return;
  // Phase 2 merges these lists and reads their order as time order.
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

/// Runs the pass over all six columns, on `pool` when set, then raises the
/// first checksum mismatch in column-id order, else the first structural
/// fault in Check order.
void verify_pass(const std::string& path, const VerifyPlan& plan,
                 ThreadPool* pool) {
  if (!plan.hash && !plan.check_offsets && !plan.check_content) return;
  ColumnVerdict verdicts[kColumnCount + 1];
  struct Task {
    std::uint64_t bytes;
    void (*run)(const VerifyPlan&, ColumnVerdict*);
  };
  const auto bytes_of = [&plan](std::uint32_t id) {
    return plan.set->by_id[id]->byte_length;
  };
  Task tasks[] = {
      {bytes_of(kColServers), verify_servers},
      {bytes_of(kColTimes), verify_times},
      {bytes_of(kColItemOffsets) + bytes_of(kColItemsPool), verify_rows},
      {bytes_of(kColPerItemOffsets) + bytes_of(kColPerItemPool),
       verify_item_index},
  };
  std::stable_sort(std::begin(tasks), std::end(tasks),
                   [](const Task& x, const Task& y) {
                     return x.bytes > y.bytes;
                   });
  const auto run = [&](std::size_t t) {
    const obs::TraceSpan span("trace/dpt_verify");
    tasks[t].run(plan, verdicts);
  };
  if (pool != nullptr) {
    parallel_for(*pool, std::size(tasks), run);
  } else {
    for (std::size_t t = 0; t < std::size(tasks); ++t) run(t);
  }

  for (std::uint32_t id = 1; id <= kColumnCount; ++id) {
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

RequestSequence build_copy(const std::string& path, const Header& h,
                           const ColumnSet& set, const unsigned char* bytes,
                           std::size_t min_server_count,
                           std::size_t min_item_count) {
  // The untrusting path: stream every row through SequenceBuilder, which
  // re-validates and rebuilds the inverted index.  The header counts give
  // the builder an exact reserve hint, so the rebuild is allocation-flat.
  const auto servers = column_span<ServerId>(bytes, *set.by_id[kColServers]);
  const auto times = column_span<Time>(bytes, *set.by_id[kColTimes]);
  const auto offsets =
      column_span<std::uint64_t>(bytes, *set.by_id[kColItemOffsets]);
  const auto pool = column_span<ItemId>(bytes, *set.by_id[kColItemsPool]);
  // resolve_columns fixed the column *shapes*, not their contents: the
  // offsets drive pool indexing below, so a corrupt-but-rechecksummed file
  // must not walk past the pool (mirrors adopt_columns' structural checks).
  if (offsets.front() != 0 || offsets.back() != pool.size() ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    corrupt(path, "column 'item_offsets': not a valid CSR offsets column");
  }
  SequenceBuilder builder(1, 1);
  builder.reserve(h.request_count, h.item_access_count);
  try {
    for (std::size_t i = 0; i < h.request_count; ++i) {
      builder.begin_request(servers[i], times[i]);
      for (std::uint64_t j = offsets[i]; j < offsets[i + 1]; ++j) {
        builder.push_item(pool[j]);
      }
      builder.end_request();
    }
    return std::move(builder).build_with_counts(
        std::max<std::size_t>(h.server_count, min_server_count),
        std::max<std::size_t>(h.item_count, min_item_count));
  } catch (const InvalidArgument& e) {
    // Rows that fail sequence validation in a well-checksummed file are
    // file corruption from the caller's point of view (mirrors the kMap
    // adopt_columns wrapping).
    corrupt(path, e.what());
  }
}

RequestSequence read_dpt_impl(const std::string& path,
                              const DptReadOptions& options,
                              std::size_t min_server_count,
                              std::size_t min_item_count) {
  const obs::TraceSpan span("trace/dpt_open");
  g_dpt_opens.add();

  // Borrowing views into the file verbatim requires the in-memory element
  // shapes to match the on-disk ones.
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "the .dpt zero-copy path assumes 64-bit size_t");
  static_assert(sizeof(Time) == 8 && sizeof(ServerId) == 4 &&
                    sizeof(ItemId) == 4,
                "the .dpt column shapes mirror core/types.hpp");

  if (options.mode == DptOpenMode::kMap) {
    auto mapped = std::make_shared<MappedFile>(path);
    const std::size_t file_bytes = mapped->size();
    g_dpt_bytes_mapped.add(file_bytes);
    const unsigned char* bytes = mapped->data();
    const Header h = parse_header(path, bytes, file_bytes);
    const ColumnSet set = resolve_columns(path, h);
    // The borrowed per-item index is shaped by the stored item count; larger
    // universes need the owning rebuild, which checks the rows itself.
    const bool rebuild = min_server_count > h.server_count ||
                         min_item_count > h.item_count;
    VerifyPlan plan;
    plan.bytes = bytes;
    plan.set = &set;
    plan.header = &h;
    plan.hash = options.verify_checksums;
    plan.check_offsets = !rebuild;
    // verify_columns re-validates the content in adopt_columns instead.
    plan.check_content = !rebuild && !options.verify_columns;
    verify_pass(path, plan, options.pool);
    if (rebuild) {
      return build_copy(path, h, set, bytes, min_server_count,
                        min_item_count);
    }
    SequenceColumns columns;
    columns.servers = column_span<ServerId>(bytes, *set.by_id[kColServers]);
    columns.times = column_span<Time>(bytes, *set.by_id[kColTimes]);
    columns.items_pool =
        column_span<ItemId>(bytes, *set.by_id[kColItemsPool]);
    columns.item_offsets =
        column_span<std::size_t>(bytes, *set.by_id[kColItemOffsets]);
    columns.per_item_pool =
        column_span<std::size_t>(bytes, *set.by_id[kColPerItemPool]);
    columns.per_item_offsets =
        column_span<std::size_t>(bytes, *set.by_id[kColPerItemOffsets]);
    try {
      return RequestSequence::adopt_columns(h.server_count, h.item_count,
                                            columns, std::move(mapped),
                                            options.verify_columns);
    } catch (const InvalidArgument& e) {
      // verify_columns' validation failing on a well-checksummed file is
      // still file corruption from the caller's point of view.
      corrupt(path, e.what());
    }
  }

  // kRead: one buffered read, then the builder path.  A file that shrinks
  // between the stat and the read leaves the stream short, which throws
  // IoError below — no unmapped-page hazard on this path.
  const std::size_t file_bytes = file_size_of(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path);
  std::vector<unsigned char> buffer(file_bytes);
  in.read(reinterpret_cast<char*>(buffer.data()),
          static_cast<std::streamsize>(buffer.size()));
  if (!in && !buffer.empty()) {
    throw IoError("error while reading trace file: " + path);
  }
  const Header h = parse_header(path, buffer.data(), file_bytes);
  const ColumnSet set = resolve_columns(path, h);
  VerifyPlan plan;
  plan.bytes = buffer.data();
  plan.set = &set;
  plan.header = &h;
  plan.hash = options.verify_checksums;
  plan.check_offsets = false;  // the builder re-validates every row
  plan.check_content = false;
  verify_pass(path, plan, options.pool);
  return build_copy(path, h, set, buffer.data(), min_server_count,
                    min_item_count);
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

  Header h;
  h.request_count = sequence.size();
  h.server_count = sequence.server_count();
  h.item_count = sequence.item_count();
  h.item_access_count = sequence.total_item_accesses();
  h.header_bytes = kFixedHeaderBytes + kColumnCount * kDescriptorBytes;

  struct Plan {
    std::uint32_t id;
    const void* data;
    std::uint32_t element_size;
    std::uint64_t element_count;
  };
  const Plan plans[kColumnCount] = {
      {kColServers, cols.servers.data(), 4, cols.servers.size()},
      {kColTimes, cols.times.data(), 8, cols.times.size()},
      {kColItemOffsets, cols.item_offsets.data(), 8, cols.item_offsets.size()},
      {kColItemsPool, cols.items_pool.data(), 4, cols.items_pool.size()},
      {kColPerItemOffsets, cols.per_item_offsets.data(), 8,
       cols.per_item_offsets.size()},
      {kColPerItemPool, cols.per_item_pool.data(), 8,
       cols.per_item_pool.size()},
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
  put_u32(header, kColumnCount);
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

  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot write trace file: " + path);
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  std::size_t written = header.size();
  const char zeros[kColumnAlignment] = {};
  for (std::size_t i = 0; i < kColumnCount; ++i) {
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
  if (!out) throw IoError("error while writing trace file: " + path);
  g_dpt_rows_written.add(sequence.size());
  g_dpt_bytes_written.add(written);
}

RequestSequence read_trace_dpt(const std::string& path,
                               const DptReadOptions& options) {
  return read_dpt_impl(path, options, 0, 0);
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

RequestSequence read_trace_auto(const std::string& path,
                                std::size_t min_server_count,
                                std::size_t min_item_count, ThreadPool* pool) {
  if (path == "-") {
    // stdin is always CSV: the .dpt reader needs a seekable/mappable file.
    return read_trace_stream(std::cin, min_server_count, min_item_count);
  }
  if (is_dpt_path(path)) {
    DptReadOptions options;
    options.pool = pool;
    return read_dpt_impl(path, options, min_server_count, min_item_count);
  }
  return read_trace_file(path, min_server_count, min_item_count);
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
