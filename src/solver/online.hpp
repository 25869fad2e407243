// Online caching (extension).
//
// The paper's offline setting assumes the full trajectory is known; its
// reference [6] also gives a 3-competitive online algorithm for the single
// item case.  We implement the classic deterministic rent-or-buy rule that
// achieves small constant competitiveness under the homogeneous model:
// after a copy's last use, keep renting cache for λ/μ time units (the
// break-even horizon), then drop it — except the globally most recent copy,
// which is never dropped (the flow must stay alive somewhere).  Misses are
// served by a λ transfer from any live copy.
//
// tests/online_test.cpp checks feasibility and the empirical competitive
// ratio against the offline DP; bench/tab_online_ratio reports it.
#pragma once

#include <cstddef>

#include "core/cost_model.hpp"
#include "core/flow.hpp"
#include "solver/solve_result.hpp"

namespace dpg {

struct OnlineOptions {
  /// Multiplier on the λ/μ break-even holding horizon (1.0 = classic rule;
  /// small values degenerate towards the chain strategy, large towards
  /// cache-everywhere).  Must be > 0: a zero horizon would drop a copy the
  /// instant it stops being newest, which is never break-even under μ > 0.
  double hold_factor = 1.0;

  /// Throws InvalidArgument naming the offending field.  Called eagerly by
  /// every entry point (solver, state object, engine, CLI) before any work.
  void validate() const;
};

/// Runs the break-even policy over one flow, one service point at a time
/// (the policy never looks ahead), on one BreakEvenFlowState
/// (solver/online_state.hpp).  raw_cost = μ·(cache time) + λ·(transfers);
/// cost applies the flow multiplier.  The schedule records every transfer
/// and every copy's held segment, and is validatable like the offline
/// ones; without `build_schedule` it is only counted (SolveResult::counts).
[[nodiscard]] SolveResult solve_online_break_even(
    const Flow& flow, const CostModel& model, std::size_t server_count,
    const OnlineOptions& options = {}, bool build_schedule = true);

}  // namespace dpg
