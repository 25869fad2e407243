// Shared low-level CSV decoding for the trace readers (internal header).
//
// One definition of the trace CSV dialect — header-discovered column order,
// optional plain quotes, ';'-separated item lists, CRLF tolerance — used by
// both consumers: the one-shot parser (trace_from_csv) and the serve
// runtime's CsvClaimSource.  Everything here is allocation-free over
// string_views; errors carry only the row-local message (callers wrap them
// with file/row/byte-offset provenance).
#pragma once

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>

#include "core/types.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dpg::csvdec {

/// Splits the next line off `rest` (without the trailing '\n' / "\r\n").
inline std::string_view next_line(std::string_view& rest) {
  const std::size_t newline = rest.find('\n');
  std::string_view line;
  if (newline == std::string_view::npos) {
    line = rest;
    rest = {};
  } else {
    line = rest.substr(0, newline);
    rest.remove_prefix(newline + 1);
  }
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Strips one layer of plain surrounding double quotes.
inline std::string_view strip_quotes(std::string_view field) noexcept {
  if (field.size() >= 2 && field.front() == '"' && field.back() == '"') {
    return field.substr(1, field.size() - 2);
  }
  return field;
}

/// Positions of the server/time/items columns in the header row.
struct ColumnLayout {
  std::size_t server = 0;
  std::size_t time = 0;
  std::size_t items = 0;
  std::size_t column_count = 0;

  /// The layout trace_to_csv writes — the two-find row fast path applies.
  [[nodiscard]] bool canonical() const noexcept {
    return server == 0 && time == 1 && items == 2 && column_count == 3;
  }
};

/// Hot-path numeric parsing: straight from_chars, falling back to the
/// shared parse_size/parse_double (which trim, then throw IoError with the
/// offending text) only when the fast path does not consume the field.
inline std::size_t fast_parse_size(std::string_view field) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec == std::errc{} && ptr == field.data() + field.size()) return value;
  return parse_size(field);
}

inline double fast_parse_double(std::string_view field) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec == std::errc{} && ptr == field.data() + field.size()) return value;
  return parse_double(field);
}

inline ColumnLayout parse_header(std::string_view header_line) {
  ColumnLayout layout;
  bool have_server = false, have_time = false, have_items = false;
  std::size_t column = 0;
  std::string_view rest = header_line;
  while (true) {
    const std::size_t comma = rest.find(',');
    const std::string_view name = strip_quotes(
        comma == std::string_view::npos ? rest : rest.substr(0, comma));
    if (name == "server") {
      layout.server = column;
      have_server = true;
    } else if (name == "time") {
      layout.time = column;
      have_time = true;
    } else if (name == "items") {
      layout.items = column;
      have_items = true;
    }
    ++column;
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  layout.column_count = column;
  if (!have_server) throw IoError("CSV: no column named 'server'");
  if (!have_time) throw IoError("CSV: no column named 'time'");
  if (!have_items) throw IoError("CSV: no column named 'items'");
  return layout;
}

/// The three interesting field slices of one data row.
struct RowFields {
  std::string_view server;
  std::string_view time;
  std::string_view items;
};

/// Slices a data row per the header layout.  The canonical layout gets a
/// two-find fast path; any other column order takes a generic field walk.
/// Throws IoError (row-local message) on a field-count mismatch.
inline RowFields split_row(std::string_view line, const ColumnLayout& layout,
                           bool canonical) {
  RowFields fields;
  if (canonical) {
    const std::size_t c1 = line.find(',');
    const std::size_t c2 =
        c1 == std::string_view::npos ? c1 : line.find(',', c1 + 1);
    if (c2 == std::string_view::npos ||
        line.find(',', c2 + 1) != std::string_view::npos) {
      throw IoError("row does not have 3 fields");
    }
    fields.server = line.substr(0, c1);
    fields.time = line.substr(c1 + 1, c2 - c1 - 1);
    fields.items = line.substr(c2 + 1);
    return fields;
  }
  std::size_t column = 0;
  std::string_view rest = line;
  while (true) {
    const std::size_t comma = rest.find(',');
    const std::string_view field =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    if (column == layout.server) {
      fields.server = field;
    } else if (column == layout.time) {
      fields.time = field;
    } else if (column == layout.items) {
      fields.items = field;
    }
    ++column;
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  if (column != layout.column_count) {
    throw IoError("row has " + std::to_string(column) + " fields, header has " +
                  std::to_string(layout.column_count));
  }
  return fields;
}

/// Walks a ';'-separated item list, invoking `push(ItemId)` per id.
template <typename PushItem>
inline void parse_item_list(std::string_view items_field, PushItem&& push) {
  std::string_view rest = strip_quotes(items_field);
  while (!rest.empty()) {
    const std::size_t semicolon = rest.find(';');
    const std::string_view field = semicolon == std::string_view::npos
                                       ? rest
                                       : rest.substr(0, semicolon);
    push(static_cast<ItemId>(fast_parse_size(field)));
    if (semicolon == std::string_view::npos) break;
    rest.remove_prefix(semicolon + 1);
  }
}

}  // namespace dpg::csvdec
