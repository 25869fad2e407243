#include "trace/io.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "trace/csv_decode.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dpg {

namespace {

const obs::Counter g_rows_parsed = obs::counter("trace.rows_parsed");
const obs::Counter g_bytes_parsed = obs::counter("trace.bytes_parsed");
const obs::Counter g_rows_written = obs::counter("trace.rows_written");
const obs::Counter g_bytes_written = obs::counter("trace.bytes_written");

constexpr std::string_view kHeader = "server,time,items\n";
constexpr std::size_t kWriteBufferBytes = 1u << 20;

/// Appends one request as a `server,time,items` row.  Everything goes
/// through to_chars; for the time, to_chars' shortest form round-trips
/// every IEEE-754 double exactly in about half the bytes of "%.17g".
void append_request_row(std::string& out, const Request& r) {
  char buffer[32];
  auto* end = std::to_chars(buffer, buffer + sizeof buffer, r.server).ptr;
  out.append(buffer, end);
  out.push_back(',');
  end = std::to_chars(buffer, buffer + sizeof buffer, r.time).ptr;
  out.append(buffer, end);
  out.push_back(',');
  for (std::size_t j = 0; j < r.items.size(); ++j) {
    if (j > 0) out.push_back(';');
    end = std::to_chars(buffer, buffer + sizeof buffer, r.items[j]).ptr;
    out.append(buffer, end);
  }
  out.push_back('\n');
}

}  // namespace

std::string trace_to_csv(const RequestSequence& sequence) {
  const obs::TraceSpan span("trace/to_csv");
  std::string out;
  // ~26 bytes of server+time framing per row, ~8 per item id: one upfront
  // reservation makes serialization allocation-free in the common case.
  out.reserve(kHeader.size() + sequence.size() * 26 +
              sequence.total_item_accesses() * 8);
  out += kHeader;
  for (const Request& r : sequence.requests()) append_request_row(out, r);
  g_rows_written.add(sequence.size());
  g_bytes_written.add(out.size());
  return out;
}

RequestSequence trace_from_csv(std::string_view text,
                               std::size_t min_server_count,
                               std::size_t min_item_count,
                               const TraceParseHints& hints,
                               std::string_view source) {
  const obs::TraceSpan span("trace/from_csv");
  const auto label = [&source]() {
    return source.empty() ? std::string("CSV") : std::string(source);
  };
  std::string_view rest = text;
  const csvdec::ColumnLayout layout =
      csvdec::parse_header(csvdec::next_line(rest));

  // Size the flat arrays from the caller's hints when given, else from two
  // vectorized pre-count sweeps: rows from newlines, item ids from ';'
  // separators (each row holds separators + 1).
  std::size_t row_estimate = hints.request_count;
  if (row_estimate == 0) {
    const std::size_t newline_count =
        static_cast<std::size_t>(std::count(rest.begin(), rest.end(), '\n'));
    row_estimate =
        newline_count + (rest.empty() || rest.back() == '\n' ? 0 : 1);
  }
  std::size_t item_estimate = hints.item_access_count;
  if (item_estimate == 0) {
    item_estimate =
        static_cast<std::size_t>(std::count(rest.begin(), rest.end(), ';')) +
        row_estimate;
  }

  SequenceBuilder builder(1, 1);
  builder.reserve(row_estimate, item_estimate);
  std::size_t server_count = std::max<std::size_t>(min_server_count, 1);
  std::size_t item_count = std::max<std::size_t>(min_item_count, 1);
  std::size_t rows = 0;

  // The canonical layout (what trace_to_csv writes) gets a two-find fast
  // path inside split_row; any other column order takes its generic walk.
  const bool canonical = layout.canonical();

  while (!rest.empty()) {
    const std::string_view line = csvdec::next_line(rest);
    if (line.empty()) continue;
    try {
      const csvdec::RowFields fields =
          csvdec::split_row(line, layout, canonical);
      const auto server = static_cast<ServerId>(
          csvdec::fast_parse_size(csvdec::strip_quotes(fields.server)));
      const Time time =
          csvdec::fast_parse_double(csvdec::strip_quotes(fields.time));
      server_count = std::max<std::size_t>(server_count, server + 1);
      builder.begin_request(server, time);
      csvdec::parse_item_list(fields.items, [&](ItemId item) {
        item_count = std::max<std::size_t>(item_count, item + 1);
        builder.push_item(item);
      });
      builder.end_request();  // sorts + deduplicates the row's item ids
    } catch (const Error& e) {
      // Re-throw with full provenance: which file, which data row, and the
      // byte offset of that row in the input.
      throw IoError(label() + ": row " + std::to_string(rows + 1) +
                    " (byte offset " +
                    std::to_string(static_cast<std::size_t>(
                        line.data() - text.data())) +
                    "): " + e.what());
    }
    ++rows;
  }

  g_rows_parsed.add(rows);
  g_bytes_parsed.add(text.size());
  try {
    return std::move(builder).build_with_counts(server_count, item_count);
  } catch (const InvalidArgument& e) {
    // Sequence-level validation failures (e.g. duplicate times) name the
    // source too; the request index inside the message locates the row.
    throw IoError(label() + ": " + e.what());
  }
}

RequestSequence trace_from_csv_legacy(const std::string& text,
                                      std::size_t min_server_count,
                                      std::size_t min_item_count) {
  const CsvTable table = parse_csv(text);
  const std::size_t server_col = table.column_index("server");
  const std::size_t time_col = table.column_index("time");
  const std::size_t items_col = table.column_index("items");

  std::vector<RequestDraft> requests;
  requests.reserve(table.rows.size());
  std::size_t server_count = std::max<std::size_t>(min_server_count, 1);
  std::size_t item_count = std::max<std::size_t>(min_item_count, 1);
  for (const auto& row : table.rows) {
    RequestDraft r;
    r.server = static_cast<ServerId>(parse_size(row[server_col]));
    r.time = parse_double(row[time_col]);
    for (const std::string& field : split(row[items_col], ';')) {
      r.items.push_back(static_cast<ItemId>(parse_size(field)));
    }
    std::sort(r.items.begin(), r.items.end());
    r.items.erase(std::unique(r.items.begin(), r.items.end()), r.items.end());
    server_count = std::max<std::size_t>(server_count, r.server + 1);
    if (!r.items.empty()) {
      item_count = std::max<std::size_t>(item_count, r.items.back() + 1);
    }
    requests.push_back(std::move(r));
  }
  return RequestSequence(server_count, item_count, std::move(requests));
}

void replace_trace_file(const std::string& path,
                        const std::function<void(std::ostream&)>& write) {
  struct stat info {};
  const bool in_place =
      ::lstat(path.c_str(), &info) == 0 && !S_ISREG(info.st_mode);
  const std::string target =
      in_place ? path : path + ".tmp." + std::to_string(::getpid());
  const auto discard = [&] {
    if (!in_place) std::remove(target.c_str());
  };
  std::ofstream out(target, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot write trace file: " + path);
  try {
    write(out);
  } catch (...) {
    discard();
    throw;
  }
  out.close();
  if (!out) {
    discard();
    throw IoError("error while writing trace file: " + path);
  }
  if (!in_place && std::rename(target.c_str(), path.c_str()) != 0) {
    const int error = errno;
    discard();
    throw IoError("cannot write trace file: " + path + " (" +
                  std::strerror(error) + ")");
  }
}

void write_trace_file(const std::string& path, const RequestSequence& sequence) {
  const obs::TraceSpan span("trace/write_file");
  std::size_t bytes = 0;
  replace_trace_file(path, [&](std::ostream& out) {
    std::string buffer;
    buffer.reserve(kWriteBufferBytes);
    buffer += kHeader;
    for (const Request& r : sequence.requests()) {
      append_request_row(buffer, r);
      if (buffer.size() >= kWriteBufferBytes - 512) {
        out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
        bytes += buffer.size();
        buffer.clear();
      }
    }
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    bytes += buffer.size();
  });
  g_rows_written.add(sequence.size());
  g_bytes_written.add(bytes);
}

RequestSequence read_trace_file(const std::string& path,
                                std::size_t min_server_count,
                                std::size_t min_item_count,
                                const TraceParseHints& hints) {
  const obs::TraceSpan span("trace/read_file");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path);
  // One sized read into the parse buffer — no stream-buffer double copy.
  in.seekg(0, std::ios::end);
  const std::streampos size = in.tellg();
  if (size < 0) throw IoError("cannot size trace file: " + path);
  in.seekg(0, std::ios::beg);
  std::string text;
  text.resize(static_cast<std::size_t>(size));
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  if (!in && !text.empty()) {
    throw IoError("error while reading trace file: " + path);
  }
  // The path travels into the parser so its errors carry file provenance.
  return trace_from_csv(text, min_server_count, min_item_count, hints, path);
}

RequestSequence read_trace_stream(std::istream& in,
                                  std::size_t min_server_count,
                                  std::size_t min_item_count,
                                  std::string_view source) {
  const obs::TraceSpan span("trace/read_stream");
  const std::string text(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>{});
  return trace_from_csv(text, min_server_count, min_item_count, {}, source);
}

}  // namespace dpg
