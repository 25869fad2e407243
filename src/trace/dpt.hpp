// Binary columnar trace persistence: the `.dpt` format.
//
// A `.dpt` file is the columns of a RequestSequence written verbatim in
// little-endian order behind a fixed header and a column table (see
// docs/FORMAT.md for the byte-level layout).  This module is the only one
// that knows that layout.  All seven columns are stored — the four row
// columns *and* the per-item events (each item's request times and servers,
// contiguous) — so opening a file builds nothing per request.  The one open
// maps the file, validates the header, runs the verification pass and hands
// the mapped columns to RequestSequence::adopt_columns as non-owning views.
// The pass is the only validator of a file's contents: it hashes every
// column with XXH64, then runs that column's checks: offsets, id ranges,
// the per-item events (one per row holding the item, servers in range,
// times ascending), the two row checks (no row is empty, and each row's
// items are strictly ascending) and the times (strictly increasing, finite
// and > 0).  The columns are spread over the caller's pool
// (`DptReadOptions::pool`), largest first, so on a few workers the open
// takes about as long as its largest column task.
//
// Version-1 files (u64 item offsets and stored per-item row lists instead
// of the events) still open: the version-1 pass checks them as it always did, then
// their rows are copied into an owned sequence, which builds the events.
// `convert old.dpt new.dpt` upgrades a file.
//
// write_trace_dpt replaces its target by rename (replace_trace_file in
// trace/io.hpp), so a sequence still mapped from the target keeps its pages:
// a trace converts onto its own path.  CSV stays the interchange format;
// convert with the helpers below or `dpgreedy_cli convert`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/request.hpp"

namespace dpg {

class ThreadPool;

/// Format generation tag at byte 0 of every `.dpt` file.
inline constexpr char kDptMagic[8] = {'D', 'P', 'T', 'R', 'A', 'C', 'E', '1'};
/// Highest header version this build reads, and the version it writes.
inline constexpr std::uint32_t kDptVersion = 2;

/// XXH64 of `size` bytes (the per-column checksum function of the format).
[[nodiscard]] std::uint64_t dpt_checksum(const void* data, std::size_t size,
                                         std::uint64_t seed = 0);

struct DptReadOptions {
  /// Also cross-check the stored per-item events bit for bit against ones
  /// rebuilt from the rows (RequestSequence::adopt_columns; on a version-1
  /// file, the stored row lists against a walk of the rows).  The pass checks
  /// that each item has one event per row holding it, with servers in range
  /// and ascending times, not that each event is its row's; the rebuild
  /// does, at the cost of a second copy of the events in memory.  A file the
  /// pass rejects gets the same message either way.
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

/// Writes `sequence` as a version-2 `.dpt` file, replacing `path` by rename.
/// Throws IoError on filesystem problems.
void write_trace_dpt(const std::string& path, const RequestSequence& sequence);

/// Opens a `.dpt` file.  Throws FormatError on any malformed input
/// (truncation, bad magic, future version, 2^32 or more item accesses,
/// checksum mismatch, inconsistent column table, per-item events that do
/// not fit the rows, an empty row, a row whose items are not strictly
/// ascending, times that are not strictly increasing, finite and > 0) and
/// IoError on filesystem problems.  A file with several faults reports the
/// first checksum mismatch in column-id order, else its first structural
/// fault, the times last, at every pool width.  A version-2 file is
/// borrowed from the mapping; a version-1 file is copied into an owned
/// sequence.
[[nodiscard]] RequestSequence read_trace_dpt(const std::string& path,
                                             const DptReadOptions& options = {});

/// Reads and validates just the header + column table.
[[nodiscard]] DptInfo probe_trace_dpt(const std::string& path);

/// True when `path` ends in ".dpt" (ASCII case-insensitive).
[[nodiscard]] bool is_dpt_path(std::string_view path) noexcept;

/// Format-dispatching file I/O: `.dpt` paths take the binary path above,
/// everything else (and "-", CSV on stdin) the CSV path in trace/io.hpp.
/// `pool` is the `.dpt` open's DptReadOptions::pool.
[[nodiscard]] RequestSequence read_trace_auto(const std::string& path,
                                              ThreadPool* pool = nullptr);
void write_trace_auto(const std::string& path, const RequestSequence& sequence);

}  // namespace dpg
