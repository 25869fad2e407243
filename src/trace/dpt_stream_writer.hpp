// DptStreamWriter — archive a live request feed as a valid `.dpt` file.
//
// write_trace_dpt (trace/dpt.hpp) needs a finished RequestSequence; a serve
// process has no such thing — rows arrive one block at a time and the
// stream's length, server count and item universe are only known when the
// feed ends.  DptStreamWriter collects the rows as they are served in a
// SequenceBuilder:
//
//   DptStreamWriter archive("feed.dpt");
//   for each served row: archive.append(server, time, items);
//   archive.finish();   // builds the sequence, then write_trace_dpt
//
// finish() builds with counts of max id seen + 1, so a `.dpt` archived from
// a feed replays with the same universe the engine discovered, and the file
// is the one write_trace_dpt writes for that sequence.
//
// Rows are checked as they arrive: times strictly increasing and > 0 (the
// builder would sort rows that come out of order instead of rejecting them)
// and item sets non-empty; each row is canonicalized (sorted, duplicate-free)
// like SequenceBuilder::end_request.  Nothing touches the filesystem until
// finish(); a writer destroyed without finishing leaves no file behind.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "core/request.hpp"
#include "core/types.hpp"

namespace dpg {

class DptStreamWriter {
 public:
  explicit DptStreamWriter(std::string path);

  /// Appends one request.  `items` need not be sorted; `time` must be
  /// strictly greater than every previous row's and > 0.
  void append(ServerId server, Time time, std::span<const ItemId> items);

  /// Rows appended so far.
  [[nodiscard]] std::size_t rows() const noexcept { return builder_.size(); }

  /// Builds the sequence, writes the file and spends the writer (further
  /// appends throw).  Throws InvalidArgument on an empty feed and IoError on
  /// filesystem problems.
  void finish();

 private:
  std::string path_;
  SequenceBuilder builder_{1, 1};  // counts are set at finish()
  bool finished_ = false;
  Time last_time_ = 0.0;
  ServerId max_server_ = 0;
  ItemId max_item_ = 0;
};

}  // namespace dpg
