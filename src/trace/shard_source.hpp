// Claim-based trace sources, the ingest side of every `serve` run
// (engine/sharded_serve.hpp): one or more decode shards pull blocks from one
// stream, each claim returning the block plus its global sequence number, so
// the partition side can restore canonical trace order no matter which shard
// decoded what.
//
//   * SequenceClaimSource — contiguous-range claims over a materialized
//     RequestSequence (the `.dpt` mmap path); every block adopts zero-copy
//     views of the sequence's CSR columns.
//   * CsvClaimSource — claims on a CSV file or pipe (including stdin): a
//     shard takes the source mutex just long enough to slice off the next
//     raw lines (byte copying only — no parsing under the lock), then
//     decodes them outside the lock with the csvdec fast path.  Decode runs
//     N-wide; the stream read stays serial because the bytes are.  The
//     source reads with read(2) into a buffer of at most 64 KiB (or one
//     line, if a line is longer) and hands over the complete lines it
//     holds: a claim blocks on the input only when it holds none, so a
//     paced feed is served as its rows arrive, not when a buffer fills.
//
// Claim sizes.  A claim takes at most `batch_rows` rows, stops at the row
// limit, and never crosses a multiple of a cut interval (cut_at_multiples,
// which run_sharded_serve sets to its snapshot and stats cadences), so
// those cadences land on exact block ends.
//
// Sequence numbers are consecutive from 0 in claim order, which for both
// sources equals trace order: block seq s covers exactly the rows
// [rows_through(s) − |block|, rows_through(s)) of the stream.
//
// Error contract (CSV): a malformed row poisons its block's *suffix* only.
// The claiming shard keeps the valid prefix (delivered as a normal block so
// the sequence numbering has no gap), records the smallest failing seq and
// its full-provenance message (source, row, byte offset) via an atomic-min,
// and every later claim returns end-of-stream.  A header or read error is
// recorded the same way at the next unclaimed seq.  The serve runtime then
// suppresses blocks *after* the failing seq on the partition side —
// in-flight claims from other shards may have already decoded them — so
// the engines ingest exactly the requests before the failure.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>

#include "core/request.hpp"
#include "core/request_block.hpp"
#include "trace/csv_decode.hpp"

namespace dpg {

/// Thread-safe block claiming: any number of shard threads call claim()
/// concurrently; each successful claim owns one block of the stream.
class ShardClaimSource {
 public:
  /// error_seq() value when no decode error has been recorded.
  static constexpr std::uint64_t kNoError =
      std::numeric_limits<std::uint64_t>::max();

  virtual ~ShardClaimSource() = default;

  /// Claims the next block of the stream.  On success fills `block`, sets
  /// `seq` (consecutive from 0, claim order == trace order) and
  /// `rows_through` (cumulative data rows over blocks 0..seq) and returns
  /// true.  Returns false at end of stream, after the row limit, or once an
  /// error has been recorded.  A block delivered with a recorded error at
  /// its own seq holds the valid prefix before the bad row (and may be
  /// empty).
  virtual bool claim(RequestBlock& block, std::uint64_t& seq,
                     std::size_t& rows_through) = 0;

  /// Ends every later claim at the next multiple of each nonzero interval.
  /// Call before the first claim.
  void cut_at_multiples(std::size_t a, std::size_t b) noexcept {
    cuts_ = {a, b};
  }

  /// Smallest seq whose decode failed (kNoError if none).  Monotone: once
  /// set it only decreases, and claims stop issuing new blocks.
  [[nodiscard]] std::uint64_t error_seq() const noexcept {
    return error_seq_.load(std::memory_order_acquire);
  }

  /// Full-provenance message for the error_seq() failure ("" if none).
  [[nodiscard]] std::string error_message() const {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    return error_message_;
  }

 protected:
  /// `batch_rows` ≥ 1 caps each claim; `limit` caps the stream (0 = all).
  ShardClaimSource(std::size_t batch_rows, std::size_t limit);

  /// Rows the claim starting at row `start` may take (0 = none left).
  [[nodiscard]] std::size_t claim_rows(std::size_t start) const noexcept;

  /// Records a decode failure at `seq`; the smallest seq wins (and keeps
  /// its message) under concurrent reports.
  void report_error(std::uint64_t seq, std::string message);

 private:
  std::size_t batch_rows_;
  std::size_t limit_;
  std::array<std::size_t, 2> cuts_{};
  std::atomic<std::uint64_t> error_seq_{kNoError};
  mutable std::mutex error_mutex_;
  std::string error_message_;
};

/// Contiguous-range claims over a materialized sequence.  The sequence must
/// outlive every block handed out (blocks only view its columns).
class SequenceClaimSource final : public ShardClaimSource {
 public:
  SequenceClaimSource(const RequestSequence& sequence, std::size_t batch_rows,
                      std::size_t limit = 0);

  bool claim(RequestBlock& block, std::uint64_t& seq,
             std::size_t& rows_through) override;

 private:
  const RequestSequence& sequence_;
  std::mutex mutex_;  // guards the two cursors below
  std::size_t next_row_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Claims on a CSV byte stream read with read(2); decode outside the lock.
class CsvClaimSource final : public ShardClaimSource {
 public:
  /// Opens `path`, or reads standard input (fd 0) when `path` is "-";
  /// errors then name "<stdin>".  Throws IoError if the file cannot be
  /// opened.
  CsvClaimSource(const std::string& path, std::size_t batch_rows,
                 std::size_t limit = 0);

  /// Reads an open descriptor, which the source does not close; `source`
  /// labels errors.
  CsvClaimSource(int fd, std::string source, std::size_t batch_rows,
                 std::size_t limit = 0);

  ~CsvClaimSource() override;
  CsvClaimSource(const CsvClaimSource&) = delete;
  CsvClaimSource& operator=(const CsvClaimSource&) = delete;

  bool claim(RequestBlock& block, std::uint64_t& seq,
             std::size_t& rows_through) override;

  /// The label errors carry: the path, or "<stdin>".
  [[nodiscard]] const std::string& source() const noexcept { return source_; }

 private:
  /// The next line (without '\n'/"\r\n") and its stream offset.  Reads
  /// (blocking) only when `may_read` and no complete line is buffered.
  /// Caller holds mutex_.  False when no line is available.
  bool next_line(std::string_view& line, std::size_t& offset, bool may_read);
  void parse_header_line();

  int fd_;
  bool owns_fd_ = false;
  std::string source_;

  std::mutex mutex_;  // guards everything below (the raw byte stream)
  std::string buffer_;           // fixed size; bytes [0, end_) are valid
  std::size_t end_ = 0;
  std::size_t pos_ = 0;          // consumed prefix of buffer_
  std::size_t base_offset_ = 0;  // stream offset of buffer_[0]
  bool eof_ = false;
  bool header_parsed_ = false;
  csvdec::ColumnLayout layout_;
  bool canonical_ = false;
  std::size_t next_row_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dpg
