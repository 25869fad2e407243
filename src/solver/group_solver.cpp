#include "solver/group_solver.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/correlation.hpp"
#include "solver/kernels.hpp"
#include "solver/phase2_shard.hpp"
#include "solver/workspace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace dpg {

namespace {

const obs::Counter g_group_packages = obs::counter("group.packages_solved");
const obs::Counter g_group_partials = obs::counter("group.partial_requests");

GroupReport solve_group_package_ws(const RequestSequence& sequence,
                                   const CostModel& model,
                                   const std::vector<ItemId>& group,
                                   const OptimalOfflineOptions& dp,
                                   SolverWorkspace& ws, bool keep_plan) {
  const obs::TraceSpan span("group/package");
  g_group_packages.add();
  require(group.size() >= 2, "solve_group_package: group must have >= 2 items");
  // The items in ascending id order — every request's own item order.
  std::vector<ItemId> items(group);
  std::sort(items.begin(), items.end());
  require(std::adjacent_find(items.begin(), items.end()) == items.end(),
          "solve_group_package: group items must be distinct");
  GroupReport report;
  report.items = group;
  for (const ItemId item : group) {
    report.total_accesses += sequence.item_frequency(item);
  }

  Flow group_flow = make_group_flow(sequence, group);
  report.full_request_count = group_flow.size();
  SolveResult solved =
      solve_optimal_offline(group_flow, model, sequence.server_count(),
                            plan_options(dp, keep_plan), &ws);
  report.package_cost = solved.cost;  // g·α-discounted
  report.package_counts = solved.counts;
  if (keep_plan) {
    report.package_schedule = std::move(solved.schedule);
    report.package_flow = std::move(group_flow);
  }

  // Greedy pass over every request touching the group but not all of it.
  const std::size_t k = items.size();
  const Cost package_fetch = static_cast<double>(k) * model.alpha * model.lambda;

  // Per-item recency state, indexed by the item's position in `items`:
  // previous event time and last visit per server (flat, k × m).
  const std::size_t m = sequence.server_count();
  std::vector<Time> prev_time(k, 0.0);
  std::vector<Time> last_on_server(k * m, -1.0);
  for (std::size_t j = 0; j < k; ++j) last_on_server[j * m + kOriginServer] = 0.0;

  // One merge of the items' request lists names the group items each
  // request holds, in ascending item order, so the per-request sums add the
  // present items in the request's own item order.
  sequence.merge_item_lists(items, [&](std::size_t index,
                                       std::span<const std::size_t> present) {
    const ServerId server = sequence.server_of(index);
    const Time time = sequence.time_of(index);
    if (present.size() < k) {
      g_group_partials.add();
      Cost individual_total = 0.0;
      Cost individual_transfer = 0.0;  // λ-side of the per-item choices
      std::size_t individual_transfer_events = 0;
      for (const std::size_t j : present) {
        // Branch-light two-way choice (solver/kernels.hpp) — the ∞ sentinel
        // goes in directly rather than via a μ·∞ product, same bits as the
        // original if/else accounting.
        const Time last = last_on_server[j * m + server];
        const Cost cache_option =
            last >= 0.0 ? model.mu * (time - last) : kInfiniteCost;
        const Cost transfer_option =
            model.mu * (time - prev_time[j]) + model.lambda;
        bool took_transfer = false;
        individual_total += kernels::min_cache_transfer(
            cache_option, transfer_option, &took_transfer);
        individual_transfer += took_transfer ? model.lambda : 0.0;
        individual_transfer_events += took_transfer ? 1 : 0;
      }
      report.partial_cost += std::min(individual_total, package_fetch);
      if (individual_total <= package_fetch) {
        report.partial_transfer_cost += individual_transfer;
        report.partial_transfer_events += individual_transfer_events;
      } else {
        report.partial_transfer_cost += package_fetch;
        ++report.partial_transfer_events;
      }
    }
    for (const std::size_t j : present) {
      prev_time[j] = time;
      last_on_server[j * m + server] = time;
    }
  });
  return report;
}

}  // namespace

GroupReport solve_group_package(const RequestSequence& sequence,
                                const CostModel& model,
                                const std::vector<ItemId>& group,
                                const OptimalOfflineOptions& dp) {
  model.validate();
  SolverWorkspace ws;
  return solve_group_package_ws(sequence, model, group, dp, ws,
                                /*keep_plan=*/true);
}

GroupDpGreedyResult solve_group_dp_greedy(const RequestSequence& sequence,
                                          const CostModel& model,
                                          const GroupDpGreedyOptions& options) {
  model.validate();
  require(options.theta >= 0.0 && options.theta <= 1.0,
          "solve_group_dp_greedy: theta must be in [0, 1]");
  GroupDpGreedyResult result;
  result.total_item_accesses = sequence.total_item_accesses();

  const obs::TraceSpan solve_span("solve/group_dp_greedy");
  {
    const Stopwatch phase1_clock;
    const CorrelationAnalysis analysis(sequence);
    result.packing =
        greedy_grouping(analysis, options.theta, options.max_group_size);
    result.phase1_seconds = phase1_clock.elapsed_seconds();
  }

  // Phase 2: independent per-group and per-single solves, sharded through
  // solver/phase2_shard.hpp into pre-sized slots (bit-identical reductions
  // below, any pool width).
  const std::size_t group_count = result.packing.groups.size();
  const std::size_t single_count = result.packing.singles.size();
  result.groups.resize(group_count);
  result.singles.resize(single_count);
  for_each_flow_sharded(
      options.pool, group_count + single_count,
      [&](std::size_t i, SolverWorkspace& ws) {
        if (i < group_count) {
          result.groups[i] = solve_group_package_ws(
              sequence, model, result.packing.groups[i], options.dp, ws,
              options.keep_plans);
        } else {
          result.singles[i - group_count] = solve_single_item(
              sequence, model, result.packing.singles[i - group_count],
              options.dp, ws, options.keep_plans);
        }
      });

  for (const GroupReport& report : result.groups) {
    result.total_cost += report.total_cost();
  }
  for (const SingleItemReport& report : result.singles) {
    result.total_cost += report.cost;
  }
  result.ave_cost =
      result.total_item_accesses == 0
          ? 0.0
          : result.total_cost / static_cast<double>(result.total_item_accesses);
  return result;
}

}  // namespace dpg
