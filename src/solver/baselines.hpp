// The two comparison algorithms of Section VI:
//
//   * Optimal — the non-packing extreme: every item is served individually
//     by the optimal offline DP of [6].  Optimal for single-item caching but
//     blind to packing discounts.
//   * Package_Served — the always-pack extreme: for every pair whose Jaccard
//     clears the threshold, ALL requests touching either item are served by
//     shipping/caching the two-item package at the 2α rate.
#pragma once

#include <vector>

#include "core/cost_model.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "solver/optimal_offline.hpp"
#include "solver/pairing.hpp"

namespace dpg {

class ThreadPool;

struct OptimalBaselineResult {
  std::vector<SingleItemReport> items;
  Cost total_cost = 0.0;
  std::size_t total_item_accesses = 0;
  double ave_cost = 0.0;

  /// Pair-local ave_cost for Figs. 11/13: (C_a + C_b) / (|d_a| + |d_b|).
  [[nodiscard]] double pair_ave_cost(ItemId a, ItemId b) const;
};

/// `keep_plans` keeps each item's schedule and flow (SingleItemReport), as
/// DpGreedyOptions::keep_plans does; off, only the schedule counts.
[[nodiscard]] OptimalBaselineResult solve_optimal_baseline(
    const RequestSequence& sequence, const CostModel& model,
    const OptimalOfflineOptions& dp = {}, ThreadPool* pool = nullptr,
    bool keep_plans = true);

/// Per-pair outcome of Package_Served.
struct PackageServedPair {
  ItemPair pair;
  Cost cost = 0.0;                 // 2α-discounted DP over the union flow
  std::size_t total_accesses = 0;  // |d_a| + |d_b|
  ScheduleCounts schedule_counts;  // of the schedule, kept either way
  // The plan, empty unless kept: the schedule and the union flow it serves.
  Schedule schedule;
  Flow flow;

  [[nodiscard]] double ave_cost() const noexcept {
    return total_accesses == 0 ? 0.0
                               : cost / static_cast<double>(total_accesses);
  }
};

struct PackageServedResult {
  Packing packing;  // inclusive threshold (J >= θ)
  std::vector<PackageServedPair> pairs;
  std::vector<SingleItemReport> singles;  // unpacked items, served by DP
  Cost total_cost = 0.0;
  std::size_t total_item_accesses = 0;
  double ave_cost = 0.0;
  /// Wall-clock of Phase 1 (correlation analysis + pairing) inside this
  /// solve.
  double phase1_seconds = 0.0;
};

/// `keep_plans` keeps each Phase-2 schedule and flow, as
/// DpGreedyOptions::keep_plans does; off, only the schedule counts.  `pool`
/// shards Phase 1's pair count and the Phase-2 solves (bit-identical to the
/// serial path).
[[nodiscard]] PackageServedResult solve_package_served(
    const RequestSequence& sequence, const CostModel& model, double theta,
    const OptimalOfflineOptions& dp = {}, ThreadPool* pool = nullptr,
    bool keep_plans = true);

/// Package_Served for one explicit pair (figure harnesses sweep pairs
/// directly): the union flow of requests touching either item, served as a
/// package.  The result keeps its plan.
[[nodiscard]] PackageServedPair solve_pair_package_served(
    const RequestSequence& sequence, const CostModel& model, ItemPair pair,
    const OptimalOfflineOptions& dp = {});

}  // namespace dpg
