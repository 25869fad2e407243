#include "trace/shard_source.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dpg {

namespace {

// Same parse counters as trace_from_csv, so `trace.*` metrics cover the
// serve ingest path too.
const obs::Counter g_rows_parsed = obs::counter("trace.rows_parsed");
const obs::Counter g_bytes_parsed = obs::counter("trace.bytes_parsed");

// The read buffer: one 64 KiB read(2) holds ~2,000 rows of a taxi feed, so
// a flood still fills whole batches, while peak RSS stays off the 1 MiB a
// buffer sized for one read per block would cost.
constexpr std::size_t kReadBufferBytes = 64u << 10;

}  // namespace

// ---------------------------------------------------------------------------
// ShardClaimSource

ShardClaimSource::ShardClaimSource(std::size_t batch_rows, std::size_t limit)
    : batch_rows_(batch_rows), limit_(limit) {
  require(batch_rows_ > 0, "ShardClaimSource: batch_rows must be >= 1");
}

std::size_t ShardClaimSource::claim_rows(std::size_t start) const noexcept {
  std::size_t rows = batch_rows_;
  if (limit_ > 0) rows = std::min(rows, limit_ > start ? limit_ - start : 0);
  for (const std::size_t every : cuts_) {
    if (every > 0) rows = std::min(rows, every - start % every);
  }
  return rows;
}

void ShardClaimSource::report_error(std::uint64_t seq, std::string message) {
  // Atomic-min on the failing seq; the winning (smallest) seq keeps its
  // message, because only requests before *it* were served.
  std::uint64_t current = error_seq_.load(std::memory_order_relaxed);
  while (seq < current && !error_seq_.compare_exchange_weak(
                              current, seq, std::memory_order_acq_rel)) {
  }
  if (seq <= error_seq_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    // Re-check under the lock: a smaller seq may have won the race between
    // our CAS and here.
    if (seq <= error_seq_.load(std::memory_order_acquire)) {
      error_message_ = std::move(message);
    }
  }
}

// ---------------------------------------------------------------------------
// SequenceClaimSource

SequenceClaimSource::SequenceClaimSource(const RequestSequence& sequence,
                                         std::size_t batch_rows,
                                         std::size_t limit)
    : ShardClaimSource(batch_rows, limit), sequence_(sequence) {}

bool SequenceClaimSource::claim(RequestBlock& block, std::uint64_t& seq,
                                std::size_t& rows_through) {
  std::size_t start = 0;
  std::size_t n = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    start = next_row_;
    if (start < sequence_.size()) {
      n = std::min(claim_rows(start), sequence_.size() - start);
    }
    if (n == 0) {
      block.clear();
      return false;
    }
    next_row_ = start + n;
    seq = next_seq_++;
  }
  // Offsets stay absolute into the full items pool; the block indexes the
  // pool base directly, so the slice is pure pointer arithmetic.
  const SequenceColumns columns = sequence_.columns();
  block.adopt(columns.servers.subspan(start, n),
              columns.times.subspan(start, n),
              columns.item_offsets.subspan(start, n + 1), columns.items_pool);
  rows_through = start + n;
  return true;
}

// ---------------------------------------------------------------------------
// CsvClaimSource

CsvClaimSource::CsvClaimSource(const std::string& path, std::size_t batch_rows,
                               std::size_t limit)
    : CsvClaimSource(0, path == "-" ? "<stdin>" : path, batch_rows, limit) {
  if (path == "-") return;
  // Opened last, so no later initializer can throw and leak the fd.
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) throw IoError("cannot open trace file: " + path);
  owns_fd_ = true;
}

CsvClaimSource::CsvClaimSource(int fd, std::string source,
                               std::size_t batch_rows, std::size_t limit)
    : ShardClaimSource(batch_rows, limit),
      fd_(fd),
      source_(std::move(source)),
      buffer_(kReadBufferBytes, '\0') {}

CsvClaimSource::~CsvClaimSource() {
  if (owns_fd_) ::close(fd_);
}

bool CsvClaimSource::next_line(std::string_view& line, std::size_t& offset,
                               bool may_read) {
  for (;;) {
    const char* begin = buffer_.data() + pos_;
    const auto* newline =
        static_cast<const char*>(std::memchr(begin, '\n', end_ - pos_));
    if (newline != nullptr || (eof_ && pos_ < end_)) {
      // A complete line, or the final one without a trailing newline.
      const char* stop = newline != nullptr ? newline : buffer_.data() + end_;
      line = std::string_view(begin, static_cast<std::size_t>(stop - begin));
      offset = base_offset_ + pos_;
      pos_ = newline != nullptr ? pos_ + line.size() + 1 : end_;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      return true;
    }
    if (eof_ || !may_read) return false;
    // Compact the consumed prefix; grow only for a line that fills the
    // whole buffer.
    if (pos_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + pos_, end_ - pos_);
      base_offset_ += pos_;
      end_ -= pos_;
      pos_ = 0;
    }
    if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
    ssize_t got = 0;
    do {
      got = ::read(fd_, buffer_.data() + end_, buffer_.size() - end_);
    } while (got < 0 && errno == EINTR);
    if (got < 0) {
      throw IoError(source_ + ": read error at byte offset " +
                    std::to_string(base_offset_ + end_) + ": " +
                    std::strerror(errno));
    }
    if (got == 0) eof_ = true;
    end_ += static_cast<std::size_t>(got);
  }
}

void CsvClaimSource::parse_header_line() {
  header_parsed_ = true;
  std::string_view header;
  std::size_t offset = 0;
  if (!next_line(header, offset, /*may_read=*/true)) {
    throw IoError(source_ + ": empty input (no CSV header)");
  }
  layout_ = csvdec::parse_header(header);
  canonical_ = layout_.canonical();
}

bool CsvClaimSource::claim(RequestBlock& block, std::uint64_t& seq,
                           std::size_t& rows_through) {
  block.clear();

  // Per-thread claim scratch: a copy of the raw bytes of this claim's
  // lines.  thread_local (not per-call) so a shard's repeated claims reuse
  // warm capacity; overwritten on entry, never used re-entrantly.
  thread_local std::string text;

  std::size_t start_row = 0;
  std::size_t start_offset = 0;  // stream offset of text[0]
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error_seq() != kNoError) return false;
    std::size_t rows = 0;
    const char* first = nullptr;
    const char* last = nullptr;
    try {
      if (!header_parsed_) parse_header_line();
      start_row = next_row_;
      const std::size_t want = claim_rows(start_row);
      std::string_view line;
      std::size_t offset = 0;
      // Block on the input only while this claim holds no line; once it
      // holds one the buffer is not compacted, so its lines stay contiguous.
      while (rows < want && next_line(line, offset, rows == 0)) {
        if (line.empty()) continue;
        if (rows++ == 0) {
          first = line.data();
          start_offset = offset;
        }
        last = line.data() + line.size();
      }
    } catch (const Error& e) {
      // A header or read error ends the stream before any further block.
      report_error(next_seq_, e.what());
      return false;
    }
    if (rows == 0) return false;  // end of stream / limit reached
    text.assign(first, last);
    seq = next_seq_++;
    next_row_ = start_row + rows;
  }

  // Decode outside the lock — this is the part that runs N shards wide.
  std::size_t bytes = 0;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t offset = start_offset + (text.size() - rest.size());
    const std::string_view line = csvdec::next_line(rest);
    if (line.empty()) continue;
    try {
      const csvdec::RowFields fields =
          csvdec::split_row(line, layout_, canonical_);
      block.begin_row(
          static_cast<ServerId>(
              csvdec::fast_parse_size(csvdec::strip_quotes(fields.server))),
          csvdec::fast_parse_double(csvdec::strip_quotes(fields.time)));
      csvdec::parse_item_list(fields.items,
                              [&](ItemId item) { block.push_item(item); });
      block.end_row();  // sorts + deduplicates — push_batch relies on it
    } catch (const Error& e) {
      // Keep the valid prefix; the block still ships (possibly empty) so
      // the seq numbering has no gap.  The runtime suppresses seqs after
      // this one on the partition side.
      block.abort_row();
      report_error(seq, source_ + ": row " +
                            std::to_string(start_row + block.size() + 1) +
                            " (byte offset " + std::to_string(offset) +
                            "): " + e.what());
      break;
    }
    bytes += line.size() + 1;
  }
  rows_through = start_row + block.size();

  g_rows_parsed.add(block.size());
  g_bytes_parsed.add(bytes);
  return true;
}

}  // namespace dpg
