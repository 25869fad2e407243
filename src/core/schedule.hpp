// Space-time schedules (Figs. 1, 2 and 7 of the paper).
//
// A Schedule records, for one flow, the horizontal cache intervals (a copy
// held at a server across a time span) and the vertical transfer edges (a
// copy shipped between servers at an instant).  It knows how to price itself
// under a CostModel and how to check its own feasibility: every cache
// interval and transfer must be *grounded* in a causal chain back to the
// origin copy, and every service point of the flow must be covered.
#pragma once

#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/flow.hpp"
#include "core/types.hpp"

namespace dpg {

/// A copy held at `server` over [begin, end].
struct CacheSegment {
  ServerId server = 0;
  Time begin = 0.0;
  Time end = 0.0;
};

/// A copy shipped from `from` to `to` at instant `time` (standard form:
/// transfers occur at request times).  Transfers replicate: the source copy
/// is not destroyed by the move.
struct TransferEdge {
  ServerId from = 0;
  ServerId to = 0;
  Time time = 0.0;
};

/// How many cache segments and transfer edges a schedule holds: what a run
/// report tallies when the schedule itself is not kept.
struct ScheduleCounts {
  std::size_t segments = 0;
  std::size_t transfers = 0;
};

/// Bumps the schedule.*_emitted counters by `counts`, as building a
/// schedule that holds them would have, element by element.
void publish_emitted(ScheduleCounts counts) noexcept;

/// Counts what a Schedule would hold without holding it: add_segment and
/// add_transfer run Schedule's checks and skip the zero-length segments it
/// skips, so a loop written once against either fills the same counts.
class ScheduleCounter {
 public:
  void add_segment(ServerId server, Time begin, Time end);
  void add_transfer(ServerId from, ServerId to, Time time);

  [[nodiscard]] ScheduleCounts counts() const noexcept { return counts_; }

  /// Bumps the schedule.*_emitted counters by the totals, as building the
  /// schedule would have, element by element.
  void publish() const noexcept;

 private:
  ScheduleCounts counts_;
};

/// Outcome of Schedule::validate.
struct ValidationResult {
  bool ok = true;
  std::string message;  // first violation, empty when ok
};

class Schedule {
 public:
  /// `group_size` is the number of items travelling together (pricing).
  explicit Schedule(std::size_t group_size = 1) : group_size_(group_size) {}

  void add_segment(ServerId server, Time begin, Time end);
  void add_transfer(ServerId from, ServerId to, Time time);

  [[nodiscard]] const std::vector<CacheSegment>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] const std::vector<TransferEdge>& transfers() const noexcept {
    return transfers_;
  }
  [[nodiscard]] std::size_t group_size() const noexcept { return group_size_; }
  [[nodiscard]] ScheduleCounts counts() const noexcept {
    return {segments_.size(), transfers_.size()};
  }

  /// Total cached time, with overlapping segments on the same server
  /// counted once (a server never needs two copies of the same flow).
  [[nodiscard]] Time total_cache_time() const;

  /// Undiscounted cost: μ · total_cache_time + λ · |transfers|.
  [[nodiscard]] Cost raw_cost(const CostModel& model) const;

  /// Discounted cost: flow_multiplier(group_size) · raw_cost.
  [[nodiscard]] Cost cost(const CostModel& model) const;

  /// Checks causality (every segment/transfer reachable from the origin
  /// copy at (origin, 0)) and coverage (every service point of `flow`
  /// has a copy present at its server at its time).
  [[nodiscard]] ValidationResult validate(const Flow& flow,
                                          ServerId origin = kOriginServer) const;

  /// Merges two schedules (used to combine per-flow plans into reports).
  void append(const Schedule& other);

  /// ASCII space-time rendering for examples/tests (one line per server).
  [[nodiscard]] std::string render(std::size_t server_count,
                                   double time_scale = 10.0) const;

 private:
  std::size_t group_size_;
  std::vector<CacheSegment> segments_;
  std::vector<TransferEdge> transfers_;
};

}  // namespace dpg
