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

}  // namespace dpg
