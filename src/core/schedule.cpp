#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/interval_set.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dpg {

namespace {

const obs::Counter g_segments_emitted = obs::counter("schedule.segments_emitted");
const obs::Counter g_transfers_emitted = obs::counter("schedule.transfers_emitted");

/// The checks on a segment; false for a zero-length one, which carries no
/// information and is skipped.
bool segment_has_length(Time begin, Time end) {
  require(end >= begin, "Schedule: segment end before begin");
  require(begin >= 0.0, "Schedule: negative segment time");
  return end != begin;
}

void check_transfer(ServerId from, ServerId to, Time time) {
  require(time >= 0.0, "Schedule: negative transfer time");
  require(from != to, "Schedule: transfer to the same server");
}

}  // namespace

void Schedule::add_segment(ServerId server, Time begin, Time end) {
  if (!segment_has_length(begin, end)) return;
  g_segments_emitted.add();
  segments_.push_back(CacheSegment{server, begin, end});
}

void Schedule::add_transfer(ServerId from, ServerId to, Time time) {
  check_transfer(from, to, time);
  g_transfers_emitted.add();
  transfers_.push_back(TransferEdge{from, to, time});
}

void ScheduleCounter::add_segment(ServerId, Time begin, Time end) {
  if (segment_has_length(begin, end)) ++counts_.segments;
}

void ScheduleCounter::add_transfer(ServerId from, ServerId to, Time time) {
  check_transfer(from, to, time);
  ++counts_.transfers;
}

void publish_emitted(ScheduleCounts counts) noexcept {
  g_segments_emitted.add(counts.segments);
  g_transfers_emitted.add(counts.transfers);
}

void ScheduleCounter::publish() const noexcept { publish_emitted(counts_); }

Time Schedule::total_cache_time() const {
  // Union of intervals per server (a server never needs two copies of the
  // same flow, so overlap is free).
  std::map<ServerId, IntervalSet> per_server;
  for (const CacheSegment& seg : segments_) {
    per_server[seg.server].add(seg.begin, seg.end);
  }
  Time total = 0.0;
  for (const auto& [server, intervals] : per_server) {
    total += intervals.union_length();
  }
  return total;
}

Cost Schedule::raw_cost(const CostModel& model) const {
  return model.mu * total_cache_time() +
         model.lambda * static_cast<double>(transfers_.size());
}

Cost Schedule::cost(const CostModel& model) const {
  return model.flow_multiplier(group_size_) * raw_cost(model);
}

namespace {

/// Grounded presence knowledge accumulated during validation.
struct Presence {
  // Per server: grounded intervals and instantaneous presence points.
  std::vector<std::vector<std::pair<Time, Time>>> intervals;
  std::vector<std::vector<Time>> points;

  explicit Presence(std::size_t server_count)
      : intervals(server_count), points(server_count) {}

  [[nodiscard]] bool present(ServerId server, Time t) const {
    if (server >= intervals.size()) return false;
    for (const auto& [b, e] : intervals[server]) {
      if (b <= t && t <= e) return true;
    }
    for (const Time p : points[server]) {
      if (p == t) return true;
    }
    return false;
  }
};

}  // namespace

ValidationResult Schedule::validate(const Flow& flow, ServerId origin) const {
  ServerId max_server = origin;
  for (const CacheSegment& s : segments_) max_server = std::max(max_server, s.server);
  for (const TransferEdge& t : transfers_) {
    max_server = std::max({max_server, t.from, t.to});
  }
  for (const ServicePoint& p : flow.points) max_server = std::max(max_server, p.server);

  Presence presence(static_cast<std::size_t>(max_server) + 1);
  presence.points[origin].push_back(0.0);

  // Ground segments and transfers by a fixpoint sweep: keep admitting events
  // whose prerequisite presence already holds.  Chains at equal timestamps
  // (transfer -> segment start -> transfer) resolve across iterations.
  std::vector<bool> segment_done(segments_.size(), false);
  std::vector<bool> transfer_done(transfers_.size(), false);
  bool progress = true;
  std::size_t remaining = segments_.size() + transfers_.size();
  while (progress && remaining > 0) {
    progress = false;
    for (std::size_t i = 0; i < transfers_.size(); ++i) {
      if (transfer_done[i]) continue;
      const TransferEdge& t = transfers_[i];
      if (presence.present(t.from, t.time)) {
        presence.points[t.to].push_back(t.time);
        transfer_done[i] = true;
        progress = true;
        --remaining;
      }
    }
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      if (segment_done[i]) continue;
      const CacheSegment& s = segments_[i];
      if (presence.present(s.server, s.begin)) {
        presence.intervals[s.server].emplace_back(s.begin, s.end);
        segment_done[i] = true;
        progress = true;
        --remaining;
      }
    }
  }

  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (!segment_done[i]) {
      return {false, "ungrounded cache segment at server " +
                         std::to_string(segments_[i].server) + " starting t=" +
                         format_fixed(segments_[i].begin, 3)};
    }
  }
  for (std::size_t i = 0; i < transfers_.size(); ++i) {
    if (!transfer_done[i]) {
      return {false, "ungrounded transfer " + std::to_string(transfers_[i].from) +
                         "->" + std::to_string(transfers_[i].to) + " at t=" +
                         format_fixed(transfers_[i].time, 3)};
    }
  }
  for (const ServicePoint& p : flow.points) {
    if (!presence.present(p.server, p.time)) {
      return {false, "service point at server " + std::to_string(p.server) +
                         " t=" + format_fixed(p.time, 3) + " not covered"};
    }
  }
  return {true, ""};
}

void Schedule::append(const Schedule& other) {
  segments_.insert(segments_.end(), other.segments_.begin(),
                   other.segments_.end());
  transfers_.insert(transfers_.end(), other.transfers_.begin(),
                    other.transfers_.end());
}

std::string Schedule::render(std::size_t server_count, double time_scale) const {
  Time horizon = 0.0;
  for (const CacheSegment& s : segments_) horizon = std::max(horizon, s.end);
  for (const TransferEdge& t : transfers_) horizon = std::max(horizon, t.time);
  const auto columns = static_cast<std::size_t>(std::ceil(horizon * time_scale)) + 1;

  std::vector<std::string> lanes(server_count, std::string(columns, ' '));
  const auto col = [time_scale](Time t) {
    return static_cast<std::size_t>(std::llround(t * time_scale));
  };
  for (const CacheSegment& s : segments_) {
    if (s.server >= server_count) continue;
    for (std::size_t c = col(s.begin); c <= col(s.end) && c < columns; ++c) {
      lanes[s.server][c] = '=';
    }
  }
  for (const TransferEdge& t : transfers_) {
    if (t.from < server_count) lanes[t.from][col(t.time)] = '+';
    if (t.to < server_count) lanes[t.to][col(t.time)] = '*';
  }
  std::string out;
  for (std::size_t s = 0; s < server_count; ++s) {
    out += "s" + std::to_string(s) + " |" + lanes[s] + "|\n";
  }
  return out;
}

}  // namespace dpg
