#include "trace/dpt_stream_writer.hpp"

#include <algorithm>
#include <utility>

#include "trace/dpt.hpp"
#include "util/error.hpp"

namespace dpg {

DptStreamWriter::DptStreamWriter(std::string path) : path_(std::move(path)) {}

void DptStreamWriter::append(ServerId server, Time time,
                             std::span<const ItemId> items) {
  require(!finished_, "DptStreamWriter: append after finish");
  require(time > last_time_ && time > 0.0,
          "DptStreamWriter: times must be strictly increasing and > 0");
  require(!items.empty(), "DptStreamWriter: empty item set");
  last_time_ = time;
  max_server_ = std::max(max_server_, server);
  max_item_ = std::max(max_item_, *std::max_element(items.begin(), items.end()));
  builder_.begin_request(server, time);
  for (const ItemId item : items) builder_.push_item(item);
  builder_.end_request();
}

void DptStreamWriter::finish() {
  require(!finished_, "DptStreamWriter: finish called twice");
  finished_ = true;
  require(builder_.size() > 0, "DptStreamWriter: empty feed, nothing to write");
  write_trace_dpt(path_, std::move(builder_).build_with_counts(
                             std::size_t{max_server_} + 1,
                             std::size_t{max_item_} + 1));
}

}  // namespace dpg
