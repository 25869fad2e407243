// Multi-item packing (the extension sketched in the paper's Remarks).
//
// Generalizes DP_Greedy from pairs to groups of up to `max_group_size`
// correlated items.  Grouping uses complete-linkage agglomeration on the
// Jaccard graph (solver/pairing.hpp); serving generalizes Phase 2:
//   * requests containing the FULL group → optimal DP over the group flow at
//     the g·α package rate (Table II row k > 1),
//   * requests containing a proper subset S → the cheaper of serving each
//     item of S individually (greedy cache/transfer options) or fetching the
//     whole always-available package once for g·α·λ.
// With max_group_size = 2 this reproduces DP_Greedy's costs exactly
// (tests/group_solver_test.cpp locks that equivalence).
#pragma once

#include <vector>

#include "core/cost_model.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "solver/dp_greedy.hpp"
#include "solver/optimal_offline.hpp"
#include "solver/pairing.hpp"

namespace dpg {

class ThreadPool;

struct GroupReport {
  std::vector<ItemId> items;
  Cost package_cost = 0.0;   // g·α-discounted DP over full-group requests
  Cost partial_cost = 0.0;   // greedy cost of proper-subset requests
  /// λ-side of partial_cost (individual transfers + whole-package fetches);
  /// the μ-side is partial_cost − partial_transfer_cost.
  Cost partial_transfer_cost = 0.0;
  std::size_t partial_transfer_events = 0;  // λ-charges behind that cost
  std::size_t full_request_count = 0;
  std::size_t total_accesses = 0;  // Σ |d_i| over the group
  ScheduleCounts package_counts;   // of the package schedule, kept either way
  // The package plan, empty unless GroupDpGreedyOptions::keep_plans.
  Schedule package_schedule;
  Flow package_flow;

  [[nodiscard]] Cost total_cost() const noexcept {
    return package_cost + partial_cost;
  }
};

struct GroupDpGreedyResult {
  GroupPacking packing;
  std::vector<GroupReport> groups;
  std::vector<SingleItemReport> singles;
  Cost total_cost = 0.0;
  std::size_t total_item_accesses = 0;
  double ave_cost = 0.0;
  /// Wall-clock of Phase 1 (correlation analysis + grouping) inside this
  /// solve.
  double phase1_seconds = 0.0;
};

struct GroupDpGreedyOptions {
  double theta = 0.3;
  std::size_t max_group_size = 3;
  OptimalOfflineOptions dp;
  /// When set, Phase 1's pair count and the per-group/per-single Phase-2
  /// solves shard over this pool (results are bit-identical to the serial
  /// path).
  ThreadPool* pool = nullptr;
  /// Keep each Phase-2 plan, schedule and flow (see
  /// DpGreedyOptions::keep_plans).
  bool keep_plans = true;
};

[[nodiscard]] GroupDpGreedyResult solve_group_dp_greedy(
    const RequestSequence& sequence, const CostModel& model,
    const GroupDpGreedyOptions& options = {});

/// Phase 2 for one explicit group of distinct items (harness entry point);
/// the report keeps its plan.
[[nodiscard]] GroupReport solve_group_package(
    const RequestSequence& sequence, const CostModel& model,
    const std::vector<ItemId>& group, const OptimalOfflineOptions& dp = {});

}  // namespace dpg
