#include "solver/baselines.hpp"

#include "solver/correlation.hpp"
#include "solver/phase2_shard.hpp"
#include "solver/workspace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace dpg {

namespace {

PackageServedPair solve_pair_package_served_ws(const RequestSequence& sequence,
                                               const CostModel& model,
                                               ItemPair pair,
                                               const OptimalOfflineOptions& dp,
                                               SolverWorkspace& ws,
                                               bool keep_flow) {
  PackageServedPair out;
  out.pair = pair;
  out.total_accesses =
      sequence.item_frequency(pair.a) + sequence.item_frequency(pair.b);
  Flow union_flow = make_union_flow(sequence, {pair.a, pair.b});
  SolveResult solved =
      solve_optimal_offline(union_flow, model, sequence.server_count(), dp, &ws);
  out.cost = solved.cost;  // priced at the 2α package rate
  out.schedule = std::move(solved.schedule);
  if (keep_flow) out.flow = std::move(union_flow);
  return out;
}

}  // namespace

double OptimalBaselineResult::pair_ave_cost(ItemId a, ItemId b) const {
  Cost cost = 0.0;
  std::size_t accesses = 0;
  for (const SingleItemReport& report : items) {
    if (report.item == a || report.item == b) {
      cost += report.cost;
      accesses += report.accesses;
    }
  }
  return accesses == 0 ? 0.0 : cost / static_cast<double>(accesses);
}

OptimalBaselineResult solve_optimal_baseline(const RequestSequence& sequence,
                                             const CostModel& model,
                                             const OptimalOfflineOptions& dp,
                                             ThreadPool* pool,
                                             bool keep_flows) {
  model.validate();
  OptimalBaselineResult result;
  result.total_item_accesses = sequence.total_item_accesses();
  result.items.resize(sequence.item_count());

  for_each_flow_sharded(pool, sequence.item_count(),
                        [&](std::size_t i, SolverWorkspace& ws) {
                          result.items[i] = solve_single_item(
                              sequence, model, static_cast<ItemId>(i), dp, ws,
                              keep_flows);
                        });

  for (const SingleItemReport& report : result.items) {
    result.total_cost += report.cost;
  }
  result.ave_cost =
      result.total_item_accesses == 0
          ? 0.0
          : result.total_cost / static_cast<double>(result.total_item_accesses);
  return result;
}

PackageServedPair solve_pair_package_served(const RequestSequence& sequence,
                                            const CostModel& model,
                                            ItemPair pair,
                                            const OptimalOfflineOptions& dp) {
  model.validate();
  SolverWorkspace ws;
  return solve_pair_package_served_ws(sequence, model, pair, dp, ws,
                                      /*keep_flow=*/false);
}

PackageServedResult solve_package_served(const RequestSequence& sequence,
                                         const CostModel& model, double theta,
                                         const OptimalOfflineOptions& dp,
                                         ThreadPool* pool, bool keep_flows) {
  model.validate();
  require(theta >= 0.0 && theta <= 1.0,
          "solve_package_served: theta must be in [0, 1]");
  PackageServedResult result;
  result.total_item_accesses = sequence.total_item_accesses();

  {
    const Stopwatch phase1_clock;
    const CorrelationAnalysis analysis(sequence);
    result.packing = greedy_pairing(analysis, theta, /*inclusive=*/true);
    result.phase1_seconds = phase1_clock.elapsed_seconds();
  }

  const std::size_t pair_count = result.packing.pairs.size();
  const std::size_t single_count = result.packing.singles.size();
  result.pairs.resize(pair_count);
  result.singles.resize(single_count);

  for_each_flow_sharded(
      pool, pair_count + single_count,
      [&](std::size_t i, SolverWorkspace& ws) {
        if (i < pair_count) {
          result.pairs[i] = solve_pair_package_served_ws(
              sequence, model, result.packing.pairs[i], dp, ws, keep_flows);
        } else {
          result.singles[i - pair_count] = solve_single_item(
              sequence, model, result.packing.singles[i - pair_count], dp, ws,
              keep_flows);
        }
      });

  for (const PackageServedPair& p : result.pairs) result.total_cost += p.cost;
  for (const SingleItemReport& s : result.singles) result.total_cost += s.cost;
  result.ave_cost =
      result.total_item_accesses == 0
          ? 0.0
          : result.total_cost / static_cast<double>(result.total_item_accesses);
  return result;
}

}  // namespace dpg
