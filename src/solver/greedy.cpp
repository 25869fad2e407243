#include "solver/greedy.hpp"

#include "core/request_index.hpp"
#include "solver/workspace.hpp"
#include "util/error.hpp"

namespace dpg {

namespace {

/// The Fig.-4 greedy under per-server cache rates `mu(s)` and per-pair
/// transfer prices `lambda(from, to)`: each service point takes the
/// cheaper of a cache line from its server's previous visit and a
/// cache-then-transfer from the preceding point.  raw_cost is the
/// per-decision sum; `multiplier` prices the flow.  The pre-scan index is
/// rebuilt into `index`, a workspace's or a local one.
template <typename Mu, typename Lambda>
SolveResult solve_greedy_flow(const Flow& flow, std::size_t server_count,
                              Mu mu, Lambda lambda, double multiplier,
                              bool build_schedule, RequestIndex& index) {
  SolveResult result;
  result.schedule = Schedule(flow.group_size);
  if (flow.empty()) return result;

  index.rebuild(flow, server_count);
  record_plan(result, build_schedule, [&](auto& plan) {
    Cost total = 0.0;
    for (std::size_t i = 1; i < index.node_count(); ++i) {
      const Time t_i = index.time_of(i);
      const ServerId s_i = index.server_of(i);
      const Time t_prev = index.time_of(i - 1);
      const ServerId s_prev = index.server_of(i - 1);

      const Cost via_transfer =
          mu(s_prev) * (t_i - t_prev) + lambda(s_prev, s_i);
      Cost via_cache = kInfiniteCost;
      const std::int32_t p = index.prev_same_server(i);
      if (p >= 0) {
        via_cache =
            mu(s_i) * (t_i - index.time_of(static_cast<std::size_t>(p)));
      }

      if (via_cache <= via_transfer) {
        total += via_cache;
        plan.add_segment(s_i, index.time_of(static_cast<std::size_t>(p)), t_i);
      } else {
        total += via_transfer;
        plan.add_segment(s_prev, t_prev, t_i);
        if (s_i != s_prev) plan.add_transfer(s_prev, s_i, t_i);
      }
    }
    result.raw_cost = total;
  });
  result.cost = multiplier * result.raw_cost;
  return result;
}

}  // namespace

SolveResult solve_greedy(const Flow& flow, const CostModel& model,
                         std::size_t server_count, bool build_schedule,
                         SolverWorkspace* workspace) {
  model.validate();
  validate_flow(flow);
  RequestIndex local;
  return solve_greedy_flow(
      flow, server_count, [&](ServerId) { return model.mu; },
      [&](ServerId from, ServerId to) {
        return from != to ? model.lambda : 0.0;
      },
      model.flow_multiplier(flow.group_size), build_schedule,
      workspace != nullptr ? workspace->index : local);
}

SolveResult solve_chain(const Flow& flow, const CostModel& model,
                        bool build_schedule) {
  model.validate();
  validate_flow(flow);
  SolveResult result;
  result.schedule = Schedule(flow.group_size);
  record_plan(result, build_schedule, [&](auto& plan) {
    Time prev_time = 0.0;
    ServerId prev_server = kOriginServer;
    for (const ServicePoint& point : flow.points) {
      result.raw_cost += model.mu * (point.time - prev_time);
      plan.add_segment(prev_server, prev_time, point.time);
      if (point.server != prev_server) {
        result.raw_cost += model.lambda;
        plan.add_transfer(prev_server, point.server, point.time);
      }
      prev_time = point.time;
      prev_server = point.server;
    }
  });
  result.cost = model.flow_multiplier(flow.group_size) * result.raw_cost;
  return result;
}

SolveResult solve_greedy_heterogeneous(const Flow& flow,
                                       const HeterogeneousCostModel& model) {
  validate_flow(flow);
  // Heterogeneous flows are priced at face value.
  RequestIndex index;
  return solve_greedy_flow(
      flow, model.server_count(), [&](ServerId s) { return model.mu(s); },
      [&](ServerId from, ServerId to) { return model.lambda(from, to); }, 1.0,
      /*build_schedule=*/true, index);
}

}  // namespace dpg
