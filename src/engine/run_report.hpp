// The canonical result record of the solver engine.
//
// Every solver reachable through the SolverRegistry — DP_Greedy, the
// paper's baselines, the online policies, the group extension — reports its
// run as one RunReport, so every front end (CLI, examples, sim replay,
// benchmarks) compares algorithms through the same fields instead of
// reaching into per-solver result structs.  The totals are copied bitwise
// from the wrapped solve_* result; the breakdown, event counts and plan
// handles are derived without re-pricing anything.
#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "sim/replay.hpp"

namespace dpg {

struct RunReport {
  /// Registry name of the solver that produced this report.
  std::string solver;

  /// Discounted total cost — bit-identical to the wrapped solver's total.
  Cost total_cost = 0.0;
  /// Undiscounted total where the solver defines one (the per-flow policies
  /// report their μ/λ face-value sum); equals total_cost otherwise.
  Cost raw_cost = 0.0;
  /// Σ|d_i| over the sequence — the ave_cost denominator of Algorithm 1.
  std::size_t total_item_accesses = 0;
  /// total_cost / total_item_accesses, Algorithm 1's headline output.
  double ave_cost = 0.0;

  // Cost breakdown.  transfer_cost is the measured sum of every λ-charge
  // (wire transfers, package fetches); cache_cost is the μ-side remainder,
  // renormalized so `cache_cost + transfer_cost == total_cost` holds
  // bit-exactly (see finalize_breakdown).
  Cost cache_cost = 0.0;
  Cost transfer_cost = 0.0;

  // Event counts.
  std::size_t package_count = 0;    // packages/groups formed (pack events online)
  std::size_t unpack_events = 0;    // online dissolutions; 0 offline
  std::size_t transfer_events = 0;  // λ-charges: wire transfers + package fetches
  std::size_t cache_segments = 0;   // cache intervals across all schedules

  // Wall-clock timing.  solve_seconds is the end-to-end solve_* call;
  // phase1_seconds is the Phase-1 share of it (correlation analysis +
  // pairing/grouping, timed inside that same call), 0 for the solvers that
  // run no offline Phase 1.  So phase1_seconds <= solve_seconds.
  double phase1_seconds = 0.0;
  double solve_seconds = 0.0;

  /// The schedule handle: one FlowPlan per constituent flow (packages,
  /// groups, single items), replayable via sim/replay.hpp.  Empty when the
  /// solver does not emit schedules (online_dp_greedy) or when
  /// SolverConfig::keep_schedules is off.
  std::vector<FlowPlan> plans;

  /// Telemetry delta for this run (counters/histograms bumped between the
  /// solver's start and finish).  Empty unless obs::set_enabled(true) was in
  /// effect when SolverRegistry::run dispatched the solver.  Purely
  /// observational: totals above are bit-identical with telemetry on or off.
  obs::MetricsSnapshot metrics;
};

/// Sets ave_cost from total_cost / total_item_accesses and renormalizes
/// cache_cost (by at most a few ulps) so that
/// `cache_cost + transfer_cost == total_cost` is bit-exact.
void finalize_report(RunReport& report);

}  // namespace dpg
