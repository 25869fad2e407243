#include "solver/dp_greedy.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/correlation.hpp"
#include "solver/kernels.hpp"
#include "solver/phase2_shard.hpp"
#include "solver/workspace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace dpg {

namespace {

const obs::Counter g_packages_solved = obs::counter("phase2.packages_solved");
const obs::Counter g_singles_solved = obs::counter("phase2.singles_solved");
const obs::Counter g_singleton_services =
    obs::counter("phase2.singleton_services");

/// Greedy service of the requests that touch exactly one item of a pair.
/// Events of `item` (origin, single-item requests, package requests) are
/// walked in time order; package events cost nothing here (the package DP
/// already paid for them) but do update the recency state the greedy
/// options consult, because serving a request leaves a copy behind.
///
/// The reference is one fused stateful loop; the kernel variant below
/// splits it into SoA column passes.  Both orders of accumulation are the
/// event order, so the two are bit-identical (cross-checked in
/// tests/kernel_equivalence_test.cpp).
void serve_singletons_scalar(const RequestSequence& sequence,
                             const CostModel& model, ItemId item,
                             ItemId partner, PackageReport& report,
                             SolverWorkspace& ws) {
  // Recency state over this item's event history (workspace scratch).
  Time prev_time = 0.0;
  ws.server_times.assign(sequence.server_count(), -1.0);
  std::vector<Time>& last_on_server = ws.server_times;
  last_on_server[kOriginServer] = 0.0;  // the origin copy

  for (const std::size_t index : sequence.indices_for_item(item)) {
    const Request& r = sequence[index];
    const bool is_package_request = r.contains(partner);
    if (!is_package_request) {
      Cost cache_option = kInfiniteCost;
      if (last_on_server[r.server] >= 0.0) {
        cache_option = model.mu * (r.time - last_on_server[r.server]);
      }
      const Cost transfer_option = model.mu * (r.time - prev_time) + model.lambda;
      const Cost package_option = model.package_fetch_cost();

      SingletonService service;
      service.request_index = index;
      service.item = item;
      if (cache_option <= transfer_option && cache_option <= package_option) {
        service.choice = ServeChoice::kCacheSameServer;
        service.cost = cache_option;
      } else if (transfer_option <= package_option) {
        service.choice = ServeChoice::kTransferFromPrev;
        service.cost = transfer_option;
      } else {
        service.choice = ServeChoice::kPackageFetch;
        service.cost = package_option;
      }
      report.singleton_cost += service.cost;
      report.services.push_back(service);
    }
    prev_time = r.time;
    last_on_server[r.server] = r.time;
  }
}

/// Kernelized serve_singletons: three column passes over the item's events.
/// Pass 1 (scalar, stateful) gathers each event's recency inputs; pass 2 is
/// the branch-light cost/choice math over flat columns; pass 3 accumulates
/// serially in event order, so the report is bit-identical to the fused
/// reference above.
void serve_singletons_kernel(const RequestSequence& sequence,
                             const CostModel& model, ItemId item,
                             ItemId partner, PackageReport& report,
                             SolverWorkspace& ws) {
  const std::span<const std::size_t> events = sequence.indices_for_item(item);
  const std::size_t e_count = events.size();
  SingletonScratch& sc = ws.singles;
  sc.time.resize(e_count);
  sc.prev_time.resize(e_count);
  sc.same_time.resize(e_count);
  sc.cost.resize(e_count);
  sc.choice.resize(e_count);
  sc.is_package.resize(e_count);

  // Pass 1: recency gather (inherently serial — each event updates state).
  Time prev_time = 0.0;
  ws.server_times.assign(sequence.server_count(), -1.0);
  std::vector<Time>& last_on_server = ws.server_times;
  last_on_server[kOriginServer] = 0.0;  // the origin copy
  for (std::size_t e = 0; e < e_count; ++e) {
    const std::size_t index = events[e];
    const ServerId server = sequence.server_of(index);
    const Time time = sequence.time_of(index);
    sc.time[e] = time;
    sc.prev_time[e] = prev_time;
    sc.same_time[e] = last_on_server[server];
    sc.is_package[e] = sequence[index].contains(partner) ? 1 : 0;
    prev_time = time;
    last_on_server[server] = time;
  }

  // Pass 2: cost + choice as straight-line column math.
  const double mu = model.mu;
  const Cost lambda = model.lambda;
  const Cost package_option = model.package_fetch_cost();
  for (std::size_t e = 0; e < e_count; ++e) {
    const Cost cache_option = sc.same_time[e] >= 0.0
                                  ? mu * (sc.time[e] - sc.same_time[e])
                                  : kInfiniteCost;
    const Cost transfer_option = mu * (sc.time[e] - sc.prev_time[e]) + lambda;
    Cost cost;
    sc.choice[e] = static_cast<std::uint8_t>(kernels::serve_choice3(
        cache_option, transfer_option, package_option, &cost));
    sc.cost[e] = cost;
  }

  // Pass 3: serial accumulation in event order.
  static_assert(static_cast<int>(ServeChoice::kCacheSameServer) ==
                    kernels::kChoiceCache &&
                static_cast<int>(ServeChoice::kTransferFromPrev) ==
                    kernels::kChoiceTransfer &&
                static_cast<int>(ServeChoice::kPackageFetch) ==
                    kernels::kChoicePackage,
                "serve choice encodings must line up");
  for (std::size_t e = 0; e < e_count; ++e) {
    if (sc.is_package[e] != 0) continue;
    SingletonService service;
    service.request_index = events[e];
    service.item = item;
    service.choice = static_cast<ServeChoice>(sc.choice[e]);
    service.cost = sc.cost[e];
    report.singleton_cost += service.cost;
    report.services.push_back(service);
  }
}

void serve_singletons(const RequestSequence& sequence, const CostModel& model,
                      ItemId item, ItemId partner, PackageReport& report,
                      const OptimalOfflineOptions& dp, SolverWorkspace& ws) {
  if (dp.use_kernels) {
    serve_singletons_kernel(sequence, model, item, partner, report, ws);
  } else {
    serve_singletons_scalar(sequence, model, item, partner, report, ws);
  }
}

PackageReport solve_pair_package_ws(const RequestSequence& sequence,
                                    const CostModel& model, ItemPair pair,
                                    const OptimalOfflineOptions& dp,
                                    SolverWorkspace& ws, bool keep_flow) {
  PackageReport report;
  report.pair = pair;
  report.total_accesses =
      sequence.item_frequency(pair.a) + sequence.item_frequency(pair.b);

  make_package_flow(sequence, pair.a, pair.b, ws.flow);
  report.co_request_count = ws.flow.size();
  SolveResult package =
      solve_optimal_offline(ws.flow, model, sequence.server_count(), dp, &ws);
  report.package_cost = package.cost;  // already 2α-discounted
  report.package_schedule = std::move(package.schedule);
  if (keep_flow) report.package_flow = ws.flow;

  serve_singletons(sequence, model, pair.a, pair.b, report, dp, ws);
  serve_singletons(sequence, model, pair.b, pair.a, report, dp, ws);
  g_singleton_services.add(report.services.size());
  return report;
}

}  // namespace

PackageReport solve_pair_package(const RequestSequence& sequence,
                                 const CostModel& model, ItemPair pair,
                                 const OptimalOfflineOptions& dp,
                                 SolverWorkspace* workspace) {
  model.validate();
  SolverWorkspace local;
  return solve_pair_package_ws(sequence, model, pair, dp,
                               workspace != nullptr ? *workspace : local,
                               /*keep_flow=*/false);
}

DpGreedyResult solve_dp_greedy(const RequestSequence& sequence,
                               const CostModel& model,
                               const DpGreedyOptions& options) {
  model.validate();
  require(options.theta >= 0.0 && options.theta <= 1.0,
          "solve_dp_greedy: theta must be in [0, 1]");

  DpGreedyResult result;
  result.total_item_accesses = sequence.total_item_accesses();

  const obs::TraceSpan solve_span("solve/dp_greedy");

  // Phase 1: correlation analysis and greedy packing.  The counting pass
  // shards over the Phase-2 pool unless the caller pinned its own.
  {
    const obs::TraceSpan phase1_span("dp_greedy/phase1");
    const Stopwatch phase1_clock;
    CorrelationOptions correlation = options.correlation;
    if (correlation.pool == nullptr) correlation.pool = options.pool;
    const CorrelationAnalysis analysis(sequence, correlation);
    result.packing =
        greedy_pairing(analysis, options.theta, options.inclusive_threshold);
    result.phase1_seconds = phase1_clock.elapsed_seconds();
  }

  // Phase 2: independent per-package and per-single solves, sharded through
  // the one shared fan-out path (solver/phase2_shard.hpp).  Every solve
  // writes its pre-sized slot; the reductions below run serially in flow
  // order, so totals are bit-identical at every pool width.
  const std::size_t pair_count = result.packing.pairs.size();
  const std::size_t single_count = result.packing.singles.size();
  result.packages.resize(pair_count);
  result.singles.resize(single_count);
  const obs::TraceSpan phase2_span("dp_greedy/phase2");
  g_packages_solved.add(pair_count);
  g_singles_solved.add(single_count);
  for_each_flow_sharded(
      options.pool, pair_count + single_count,
      [&](std::size_t i, SolverWorkspace& ws) {
        if (i < pair_count) {
          result.packages[i] =
              solve_pair_package_ws(sequence, model, result.packing.pairs[i],
                                    options.dp, ws, options.keep_flows);
        } else {
          result.singles[i - pair_count] = solve_single_item(
              sequence, model, result.packing.singles[i - pair_count],
              options.dp, ws, options.keep_flows);
        }
      });

  for (const PackageReport& report : result.packages) {
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
