// Trace persistence: request sequences as CSV files with columns
// `server,time,items`, where items are ';'-separated item ids.  The format
// is stable so experiment inputs can be archived and replayed.
//
// Parsing is a single zero-copy pass: fields are std::string_view slices of
// the input decoded with std::from_chars and streamed straight into a
// SequenceBuilder, so a trace of n requests costs O(1) allocations, not
// O(n·fields).  Writing streams through a fixed-size buffer.  The dialect
// matches what trace_to_csv emits plus minimal robustness: any column
// order, CRLF line endings, blank lines, and fields wrapped in plain
// double quotes (no embedded separators or escaped quotes).
#pragma once

#include <cstdio>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/request.hpp"

namespace dpg {

/// Serializes a sequence to CSV text.
[[nodiscard]] std::string trace_to_csv(const RequestSequence& sequence);

/// Caller-known sizes that let the parser skip its pre-count sweeps and let
/// SequenceBuilder reserve exactly once (e.g. from a `.dpt` header when
/// re-importing, or from a previous parse of the same file).  Zero fields
/// fall back to counting.  Hints are reserve sizing only — a mismatch costs
/// reallocations, never correctness.
struct TraceParseHints {
  std::size_t request_count = 0;
  std::size_t item_access_count = 0;
};

/// Parses CSV text back to a sequence.  `server_count`/`item_count` are
/// inferred as max id + 1 unless explicit larger bounds are given.
/// `source` labels parse/validation errors (typically the file path); row
/// errors report the 1-based data row and the byte offset into `text`.
[[nodiscard]] RequestSequence trace_from_csv(std::string_view text,
                                             std::size_t min_server_count = 0,
                                             std::size_t min_item_count = 0,
                                             const TraceParseHints& hints = {},
                                             std::string_view source = {});

/// The pre-streaming CsvTable-based parser, kept as the independent
/// cross-check oracle for tests and the bm_trace throughput baseline.
[[nodiscard]] RequestSequence trace_from_csv_legacy(
    const std::string& text, std::size_t min_server_count = 0,
    std::size_t min_item_count = 0);

/// File variants. Throw IoError on filesystem problems.  Writing streams
/// row-by-row through a buffer; reading loads the file in one sized read
/// and labels any parse/validation error with the path and byte offset.
void write_trace_file(const std::string& path, const RequestSequence& sequence);
[[nodiscard]] RequestSequence read_trace_file(
    const std::string& path, std::size_t min_server_count = 0,
    std::size_t min_item_count = 0, const TraceParseHints& hints = {});

/// Reads a whole CSV trace from an input stream (used for `-` trace paths:
/// the CLI's stats/solve on a pipe).  Same dialect and validation as
/// read_trace_file; `source` labels errors.
[[nodiscard]] RequestSequence read_trace_stream(
    std::istream& in, std::size_t min_server_count = 0,
    std::size_t min_item_count = 0, std::string_view source = "<stdin>");

/// One parsed `server,time,items` row of a streamed trace.
struct CsvStreamRow {
  ServerId server = 0;
  Time time = 0.0;
  std::vector<ItemId> items;  // sorted, duplicate-free
};

/// Bounded-memory, line-at-a-time CSV trace reader for unbounded inputs —
/// what `dpgreedy serve` uses to feed the StreamingEngine from a pipe.
/// Same dialect as trace_from_csv (any column order, CRLF, blank lines,
/// plain quotes); holds only the current line and row, so memory is O(max
/// row length) regardless of stream length.  Each line comes straight out
/// of the C stdio buffer through POSIX getline(3), one locked call per
/// line; getline returns as soon as a row's newline has arrived, so a paced
/// feed is still decoded row by row.  Sequence-level invariants (strictly
/// increasing times, non-empty item sets) are the *consumer's* contract:
/// the reader reports rows as written and the engine's push validates them.
class CsvStreamReader {
 public:
  /// Opens `path` for reading, or reads stdin when `path` is "-" (errors
  /// then name "<stdin>").  Throws IoError if the file cannot be opened.
  explicit CsvStreamReader(const std::string& path);

  /// Reads an already-open stream, which the reader does not close.
  CsvStreamReader(std::FILE* in, std::string source);

  ~CsvStreamReader();
  CsvStreamReader(const CsvStreamReader&) = delete;
  CsvStreamReader& operator=(const CsvStreamReader&) = delete;

  /// Parses the next data row into `row`, reusing its buffers.  Returns
  /// false at end of input.  The header row is consumed on the first call.
  /// Throws IoError (with the source and the 1-based data row number) on
  /// malformed input, and IoError naming the source on a read error.
  bool next(CsvStreamRow& row);

  /// Data rows successfully parsed so far.
  [[nodiscard]] std::size_t rows_read() const noexcept { return rows_; }

  /// The label errors carry: the path, or "<stdin>".
  [[nodiscard]] const std::string& source() const noexcept { return source_; }

 private:
  /// The next line without its "\n" / "\r\n"; false at end of input.
  bool read_line(std::string_view& line);
  void parse_header_line();

  std::FILE* in_;
  bool owns_in_ = false;
  std::string source_;
  char* line_ = nullptr;  // getline(3)'s buffer, grown to the longest line
  std::size_t line_capacity_ = 0;
  bool header_parsed_ = false;
  std::size_t server_col_ = 0;
  std::size_t time_col_ = 1;
  std::size_t items_col_ = 2;
  std::size_t column_count_ = 3;
  bool canonical_ = true;
  std::size_t rows_ = 0;
};

}  // namespace dpg
