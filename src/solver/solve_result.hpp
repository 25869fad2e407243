// Common result type returned by the per-flow solvers.
#pragma once

#include "core/schedule.hpp"
#include "core/types.hpp"

namespace dpg {

/// Outcome of solving one flow (item or package).
struct SolveResult {
  /// Undiscounted cost (μ/λ at face value), i.e. the DP objective before
  /// the flow multiplier is applied.
  Cost raw_cost = 0.0;

  /// Discounted cost: raw_cost × CostModel::flow_multiplier(group_size).
  Cost cost = 0.0;

  /// The schedule realizing the cost (feasibility-checkable via
  /// Schedule::validate against the same flow).  Empty when the solve only
  /// counted it (build_schedule off).
  Schedule schedule;

  /// The schedule's segment and transfer counts, filled either way.
  ScheduleCounts counts;
};

/// Runs `record(plan)` once, into the plan sink `build_schedule` asks for:
/// the result's Schedule, or a ScheduleCounter whose totals are published
/// to the schedule.*_emitted counters as building would have.  `record` is
/// written once against either sink (a generic lambda), so the counts are
/// those of the schedule it would build.  Fills result.counts either way.
template <typename Record>
void record_plan(SolveResult& result, bool build_schedule, Record&& record) {
  if (build_schedule) {
    record(result.schedule);
    result.counts = result.schedule.counts();
    return;
  }
  ScheduleCounter counter;
  record(counter);
  counter.publish();
  result.counts = counter.counts();
}

}  // namespace dpg
