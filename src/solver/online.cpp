#include "solver/online.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/online_state.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dpg {

namespace {

const obs::Counter g_break_even_solves = obs::counter("online.break_even_solves");
const obs::Counter g_break_even_drops = obs::counter("online.break_even_drops");

}  // namespace

void OnlineOptions::validate() const {
  // The message is built only on failure: every item flow's solve
  // validates its options.
  if (!(hold_factor > 0.0)) {
    throw InvalidArgument("OnlineOptions.hold_factor: must be > 0, got " +
                          format_fixed(hold_factor, 6));
  }
}

SolveResult solve_online_break_even(const Flow& flow, const CostModel& model,
                                    std::size_t server_count,
                                    const OnlineOptions& options,
                                    bool build_schedule) {
  validate_flow(flow);
  const obs::TraceSpan span("online/break_even");
  model.validate();
  options.validate();
  g_break_even_solves.add();

  // The ledger's rate-applied total is not this solve's price: the result
  // is priced from the cache time and transfer count below.
  Cost charged = 0.0;
  std::size_t transfers = 0;
  Time cache_time = 0.0;
  const FlowLedger ledger{model,
                          break_even_horizon(model, options.hold_factor),
                          model.mu == 0.0,
                          charged,
                          transfers,
                          cache_time};
  SolveResult result;
  result.schedule = Schedule(flow.group_size);
  record_plan(result, build_schedule, [&](auto& plan) {
    BreakEvenFlowState state(kOriginServer, 0.0);
    for (const ServicePoint& point : flow.points) {
      require(point.server < server_count,
              "solve_online_break_even: server out of range");
      state.serve(point.server, point.time, 1.0, ledger, plan);
    }
    // The flow held the origin copy and one per transfer; every copy not
    // live at the end was dropped at its horizon.
    g_break_even_drops.add(1 + transfers - state.copy_count());
    state.finalize(1.0, ledger, plan);
  });
  result.raw_cost =
      model.mu * cache_time + model.lambda * static_cast<double>(transfers);
  result.cost = model.flow_multiplier(flow.group_size) * result.raw_cost;
  return result;
}

}  // namespace dpg
