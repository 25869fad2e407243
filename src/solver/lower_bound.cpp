#include "solver/lower_bound.hpp"

#include "solver/baselines.hpp"

namespace dpg {

PackedLowerBound packed_lower_bound(const RequestSequence& sequence,
                                    const CostModel& model,
                                    const OptimalOfflineOptions& dp) {
  // The Optimal baseline's total: each item's optimum, single-item flows
  // priced at face value, added in item order.
  PackedLowerBound bound;
  bound.sum_item_optima =
      solve_optimal_baseline(sequence, model, dp, nullptr,
                             /*keep_plans=*/false)
          .total_cost;
  bound.lemma1 = model.alpha * bound.sum_item_optima;
  return bound;
}

}  // namespace dpg
