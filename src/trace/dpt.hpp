// Binary columnar trace persistence: the `.dpt` format.
//
// A `.dpt` file is the CSR column arrays of a RequestSequence written
// verbatim in little-endian order behind a fixed header and a column table
// (see docs/FORMAT.md for the byte-level layout).  All six columns are
// stored — the four primary CSR arrays *and* the derived per-item inverted
// index — so opening a file builds nothing per request: the mmap path
// (`DptOpenMode::kMap`) validates the header, then verifies the columns,
// and hands the mapped columns to RequestSequence::adopt_columns as
// non-owning views.  The verification hashes each column with XXH64, then
// runs that column's structural checks: offsets, id ranges, the per-item
// row lists, and the two row checks (no row is empty, and each row's items
// are strictly ascending).  The columns are spread over the caller's pool
// (`DptReadOptions::pool`), largest first, so on a few workers the open
// takes about as long as its largest column task.
//
// The read-copy path (`DptOpenMode::kRead`) is the untrusting mirror: it
// streams rows through SequenceBuilder (pre-sized from the header counts),
// re-validating every row and rebuilding the inverted index from scratch.
// CSV stays the interchange format; convert with the helpers below or
// `dpgreedy_cli convert`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/request.hpp"

namespace dpg {

class ThreadPool;

/// Format generation tag at byte 0 of every `.dpt` file.
inline constexpr char kDptMagic[8] = {'D', 'P', 'T', 'R', 'A', 'C', 'E', '1'};
/// Highest header version this build reads.
inline constexpr std::uint32_t kDptVersion = 1;

/// XXH64 of `size` bytes (the per-column checksum function of the format).
[[nodiscard]] std::uint64_t dpt_checksum(const void* data, std::size_t size,
                                         std::uint64_t seed = 0);

/// Incremental XXH64 with one-shot semantics: however the bytes are chunked
/// across update() calls, digest() equals dpt_checksum(all_bytes, total,
/// seed) exactly.  digest() finalizes from a copy of the running state, so
/// it can be read mid-stream (a checkpoint) and updating may continue.
/// This is what lets DptStreamWriter checksum columns as rows arrive
/// instead of re-scanning megabytes of buffered column data at finish().
class DptChecksumStream {
 public:
  explicit DptChecksumStream(std::uint64_t seed = 0) noexcept;

  /// Feeds `size` more bytes.
  void update(const void* data, std::size_t size) noexcept;

  /// The checksum of everything fed so far (non-destructive).
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// Bytes fed so far.
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_; }

 private:
  std::uint64_t acc_[4];          // the 4-lane stripe accumulators
  unsigned char buffer_[32] = {}; // carry for a partial 32-byte stripe
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t seed_ = 0;
};

enum class DptOpenMode {
  kMap,   // mmap the file, borrow the columns zero-copy (default)
  kRead,  // read + rebuild through SequenceBuilder (untrusting, owning)
};

struct DptReadOptions {
  DptOpenMode mode = DptOpenMode::kMap;
  /// Verify every column's stored XXH64 before use.  The writer only emits
  /// validated sequences, so a checksum pass certifies the logical
  /// invariants too; turning this off skips the hashing, and the open then
  /// detects only structural corruption (the pass still runs its checks).
  bool verify_checksums = true;
  /// Additionally re-run full logical validation and cross-check the stored
  /// inverted index against a rebuild (kMap only; kRead always validates by
  /// construction).  For distrusted files when checksums are off.
  bool verify_columns = false;
  /// The pool the verification pass spreads the columns over, one task per
  /// column (item_offsets and items_pool share one: the row checks read the
  /// verified offsets).  Null verifies on the calling thread.  The caller
  /// must not be one of this pool's workers: it blocks until every column
  /// is done.  Every pool width gives the same sequence and the same error.
  ThreadPool* pool = nullptr;
};

/// Header summary without loading any column data.
struct DptInfo {
  std::uint32_t version = 0;
  std::size_t request_count = 0;
  std::size_t server_count = 0;
  std::size_t item_count = 0;
  std::size_t item_access_count = 0;
  std::size_t column_count = 0;
  std::uint64_t file_bytes = 0;
};

/// Writes `sequence` as a `.dpt` file.  Throws IoError on filesystem
/// problems.
void write_trace_dpt(const std::string& path, const RequestSequence& sequence);

/// Opens a `.dpt` file.  Throws FormatError on any malformed input
/// (truncation, bad magic, future version, checksum mismatch, inconsistent
/// column table, an empty row or a row whose items are not strictly
/// ascending) and IoError on filesystem problems.  A file with several
/// faults reports the first checksum mismatch in column-id order, else its
/// first structural fault, at every pool width.
[[nodiscard]] RequestSequence read_trace_dpt(const std::string& path,
                                             const DptReadOptions& options = {});

/// Reads and validates just the header + column table.
[[nodiscard]] DptInfo probe_trace_dpt(const std::string& path);

/// True when `path` ends in ".dpt" (ASCII case-insensitive).
[[nodiscard]] bool is_dpt_path(std::string_view path) noexcept;

/// Format-dispatching file I/O: `.dpt` paths take the binary path above,
/// everything else the CSV path in trace/io.hpp.  When explicit minimum
/// counts exceed what a `.dpt` header stores, the read falls back to the
/// owning rebuild path (the borrowed inverted index is shaped by the stored
/// item count).  `pool` is the `.dpt` open's DptReadOptions::pool.
[[nodiscard]] RequestSequence read_trace_auto(const std::string& path,
                                              std::size_t min_server_count = 0,
                                              std::size_t min_item_count = 0,
                                              ThreadPool* pool = nullptr);
void write_trace_auto(const std::string& path, const RequestSequence& sequence);

}  // namespace dpg
