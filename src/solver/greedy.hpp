// The simple greedy baseline of the approximation analysis (Fig. 4):
// each service point is satisfied by the cheaper of
//   * a cache on its own server from the previous same-server visit, or
//   * a cache-then-transfer from the immediately preceding service point.
// Section IV-B shows this is at most 2× the optimal offline cost under the
// homogeneous model; tests/approximation_test.cpp checks that bound.
#pragma once

#include "core/cost_model.hpp"
#include "core/flow.hpp"
#include "solver/solve_result.hpp"

namespace dpg {

struct SolverWorkspace;

/// Solves one flow greedily. The reported raw_cost is the per-decision sum
/// the paper analyses; the reconstructed schedule's cost can only be lower
/// (shared cache lines are double-counted by the greedy accounting but
/// unioned in the schedule).  Without `build_schedule` the schedule is only
/// counted (SolveResult::counts); costs are the same either way.  Passing a
/// `workspace` rebuilds its RequestIndex in place instead of a fresh one,
/// so repeated solves allocate nothing once it has grown.
[[nodiscard]] SolveResult solve_greedy(const Flow& flow, const CostModel& model,
                                       std::size_t server_count,
                                       bool build_schedule = true,
                                       SolverWorkspace* workspace = nullptr);

/// The chain strategy: the copy simply follows the request trajectory
/// (always Tr, never a same-server cache line).  The weakest sensible
/// offline policy; benches use it as a floor-of-quality baseline.
[[nodiscard]] SolveResult solve_chain(const Flow& flow, const CostModel& model,
                                      bool build_schedule = true);

/// Greedy under the heterogeneous cost generalization (per-server μ,
/// per-pair λ); the only solver that accepts it, since the general problem
/// is conjectured NP-complete (Section III-C).  The same decision loop as
/// solve_greedy, priced per server and per pair, with the flow at face
/// value.
[[nodiscard]] SolveResult solve_greedy_heterogeneous(
    const Flow& flow, const HeterogeneousCostModel& model);

}  // namespace dpg
