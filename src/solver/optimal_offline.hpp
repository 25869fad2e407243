// The optimal offline single-flow caching algorithm of Wang et al. [6]
// (ICPP 2017), reconstructed from the recurrences worked in Section V-C of
// the DP_Greedy paper.  It is the substrate Phase 2 of DP_Greedy calls for
// package flows and for unpacked items, and the paper's "Optimal" baseline.
//
// Model recap: one flow (an item, or a package priced by its multiplier)
// starts at the origin server at time 0 and must be present at each service
// point (s_i, t_i).  Caching costs μ per time unit, a transfer costs λ,
// replication/deletion are free, transfers happen at service times
// (standard form).
//
// Recurrences (C(i) = optimal cost to serve points 1..i; node 0 = origin;
// p(i) = most recent node on s_i's server strictly before i):
//
//   w(j)  = min(λ, μ(t_j − t_{p(j)}))          (λ if p(j) does not exist)
//   W(i)  = w(1) + ... + w(i)
//   Tr(i) = C(i-1) + μ(t_i − t_{i-1}) + [s_i ≠ s_{i-1}]·λ
//   D(i)  = min_{k = p(i) .. i-1}  C(k) + μ(t_i − t_{p(i)}) + (W(i−1) − W(k))
//   C(i)  = min(Tr(i), D(i))
//
// Tr chains the copy through the previous service point.  D lays a cache
// line on s_i's server from the previous same-server visit p(i); every
// point j between the split k and i is then served for w(j): either a λ
// side-transfer off that line or j's own short local cache link, whichever
// is cheaper (the paper's Section V-C arithmetic prices every intermediate
// at λ because its examples never have a cheaper local link; the w(j) form
// is what exhaustive search confirms optimal).  The split k ≥ p(i) keeps
// the copy alive continuously: the line spans [t_{p(i)}, t_i] ⊇ [t_k, t_i].
// Optimality over all standard-form schedules is cross-validated against
// exhaustive enumeration in tests/optimality_test.cpp.
#pragma once

#include "core/cost_model.hpp"
#include "core/flow.hpp"
#include "solver/solve_result.hpp"

namespace dpg {

struct SolverWorkspace;

struct OptimalOfflineOptions {
  /// Use the monotonic-stack suffix-min structure for the inner minimum of
  /// D(i) (O(n log n) overall) instead of the literal O(n) scan per node
  /// (O(n²) overall, the paper's Section-V bound). Results are identical;
  /// tests cross-check both paths.  Only consulted when `use_kernels` is
  /// off — the kernel path embeds the suffix-min as its wide-window
  /// backstop.
  bool fast_range_min = true;

  /// Run the DP through the branch-light SoA kernels (solver/kernels.hpp):
  /// precomputed link column, vectorized w pass, blocked window-min with
  /// the SuffixMin stack as the asymptotic backstop.  Bit-identical to the
  /// scalar reference on every input (tests/kernel_equivalence_test.cpp);
  /// off = the reference loops, kept as the cross-check oracle.
  bool use_kernels = true;

  /// Reconstruct the schedule (backtracking).  Off, the same backtrack only
  /// counts its segments and transfers (SolveResult::counts); costs and
  /// counts are computed either way.
  bool build_schedule = true;
};

/// `options` with the schedule built only when the caller keeps the plan;
/// otherwise it is counted.
[[nodiscard]] inline OptimalOfflineOptions plan_options(
    OptimalOfflineOptions options, bool keep_plan) noexcept {
  options.build_schedule = options.build_schedule && keep_plan;
  return options;
}

/// Solves one flow to optimality. `server_count` bounds the server ids in
/// the flow; the flow starts at `origin` (server 0 by default) at time 0.
/// Passing a `workspace` reuses its scratch buffers (solver/workspace.hpp)
/// so repeated solves perform zero steady-state allocations; results are
/// bit-identical with or without one.
[[nodiscard]] SolveResult solve_optimal_offline(
    const Flow& flow, const CostModel& model, std::size_t server_count,
    const OptimalOfflineOptions& options = {},
    SolverWorkspace* workspace = nullptr);

/// One item served on its own by the optimal offline DP: an unpacked item
/// of DP_Greedy or its group extension, or any item of the Optimal baseline.
struct SingleItemReport {
  ItemId item = 0;
  Cost cost = 0.0;
  std::size_t accesses = 0;
  /// The schedule's segment and transfer counts, kept either way.
  ScheduleCounts schedule_counts;
  /// The plan: the schedule and the item flow it serves.  Both are empty
  /// unless the solve kept plans.
  Schedule schedule;
  Flow flow;
};

/// Builds `item`'s flow in the workspace and solves it.  With `keep_plan`
/// the report takes the schedule and a copy of the flow, so a caller that
/// wants the plan never has to rebuild it; without, only the counts.
[[nodiscard]] SingleItemReport solve_single_item(
    const RequestSequence& sequence, const CostModel& model, ItemId item,
    const OptimalOfflineOptions& options, SolverWorkspace& workspace,
    bool keep_plan);

}  // namespace dpg
