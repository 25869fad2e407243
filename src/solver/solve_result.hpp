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
  /// counted it (OptimalOfflineOptions::build_schedule off).
  Schedule schedule;

  /// The schedule's segment and transfer counts, filled either way.
  ScheduleCounts counts;
};

}  // namespace dpg
