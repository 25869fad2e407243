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

static_assert(static_cast<int>(ServeChoice::kCacheSameServer) ==
                  kernels::kChoiceCache &&
              static_cast<int>(ServeChoice::kTransferFromPrev) ==
                  kernels::kChoiceTransfer &&
              static_cast<int>(ServeChoice::kPackageFetch) ==
                  kernels::kChoicePackage,
              "serve choice encodings must line up");

/// Records one greedy decision of `item` for its request at `time`: its
/// cost into singleton_cost, a non-cache choice into the charge list, and
/// with `keep_plan` the decision itself.
void record_service(PackageReport& report, Time time, ItemId item,
                    ServeChoice choice, Cost cost, bool keep_plan) {
  report.singleton_cost += cost;
  if (choice != ServeChoice::kCacheSameServer) report.charges.push_back(choice);
  if (keep_plan) report.services.push_back({time, item, choice, cost});
}

/// Greedy service of the requests that touch exactly one item of a pair.
/// Events of `item` (origin, single-item requests, package requests) are
/// walked in time order; package events cost nothing here (the package DP
/// already paid for them) but do update the recency state the greedy
/// options consult, because serving a request leaves a copy behind.
///
/// The reference: one stateful loop per item that reads each request from
/// its row, found by the event's time (RequestSequence::row_of_event), and
/// asks the row whether it holds the partner.  Walking `item` = a also
/// appends a's rows that hold b to `package_flow`.  The kernel path
/// (walk_package below) makes the same decisions in the same accumulation
/// order from the events alone, so the two are bit-identical
/// (cross-checked in tests/list_merge_test.cpp and
/// tests/kernel_equivalence_test.cpp).
void serve_singletons_scalar(const RequestSequence& sequence,
                             const CostModel& model, ItemId item,
                             ItemId partner, PackageReport& report,
                             SolverWorkspace& ws, bool keep_plan,
                             Flow* package_flow) {
  // Recency state over this item's event history (workspace scratch).
  Time prev_time = 0.0;
  ws.server_times.assign(sequence.server_count(), -1.0);
  std::vector<Time>& last_on_server = ws.server_times;
  last_on_server[kOriginServer] = 0.0;  // the origin copy

  for (const Time event_time : sequence.events_for_item(item).times) {
    const Request r = sequence[sequence.row_of_event(item, event_time)];
    if (r.contains(partner)) {
      if (package_flow != nullptr) {
        package_flow->points.push_back({r.server, r.time});
      }
    } else {
      Cost cache_option = kInfiniteCost;
      if (last_on_server[r.server] >= 0.0) {
        cache_option = model.mu * (r.time - last_on_server[r.server]);
      }
      const Cost transfer_option = model.mu * (r.time - prev_time) + model.lambda;
      const Cost package_option = model.package_fetch_cost();

      if (cache_option <= transfer_option && cache_option <= package_option) {
        record_service(report, r.time, item, ServeChoice::kCacheSameServer,
                       cache_option, keep_plan);
      } else if (transfer_option <= package_option) {
        record_service(report, r.time, item, ServeChoice::kTransferFromPrev,
                       transfer_option, keep_plan);
      } else {
        record_service(report, r.time, item, ServeChoice::kPackageFetch,
                       package_option, keep_plan);
      }
    }
    prev_time = r.time;
    last_on_server[r.server] = r.time;
  }
}

/// The kernel path of Phase 2's walk over a package {a, b}: one merge of
/// the two items' events by time (kernels::merge_two_event_lists), which
/// reads each request's server and time once from the items' contiguous
/// event columns and
///   * hands each request holding both items to `co_request(server, time)`,
///     which steps the DP's pre-scan with it (and with a kept plan appends
///     it to the package flow); it updates both items' recency state;
///   * decides each item's single-item requests as they come and stages
///     them in the item's own run of ws.staged, then folds a's run and b's
///     into singleton_cost, the charges and, with `keep_plan`, the
///     services, so they accumulate in the reference's order: a's
///     decisions, then b's.
/// The two items' recency state interleaves per server: last[2s + lane].
template <typename CoRequest>
void walk_package(const RequestSequence& sequence, const CostModel& model,
                  ItemPair pair, PackageReport& report, SolverWorkspace& ws,
                  bool keep_plan, CoRequest&& co_request) {
  ws.server_times.assign(2 * sequence.server_count(), -1.0);
  Time* last = ws.server_times.data();
  last[2 * kOriginServer] = 0.0;  // the origin copies
  last[2 * kOriginServer + 1] = 0.0;
  Time prev[2] = {0.0, 0.0};
  const double mu = model.mu;
  const Cost lambda = model.lambda;
  const Cost package_option = model.package_fetch_cost();

  const ItemEvents events[2] = {sequence.events_for_item(pair.a),
                                sequence.events_for_item(pair.b)};
  // Each item's decisions fill its own run of ws.staged, sized for all of
  // its events, so a decision lands without a branch on its item.
  ws.staged.resize(events[0].size() + events[1].size());
  StagedDecision* staged[2] = {ws.staged.data(),
                               ws.staged.data() + events[0].size()};
  kernels::merge_two_event_lists(
      events[0], events[1],
      [&](std::span<const std::size_t> holders, ServerId server, Time time) {
        Time* here = last + 2 * static_cast<std::size_t>(server);
        if (holders.size() == 2) {
          co_request(server, time);
          prev[0] = prev[1] = time;
          here[0] = here[1] = time;
          return;
        }
        const std::size_t lane = holders.front();
        const Cost cache_option =
            here[lane] >= 0.0 ? mu * (time - here[lane]) : kInfiniteCost;
        const Cost transfer_option = mu * (time - prev[lane]) + lambda;
        Cost cost;
        const kernels::ServeChoiceIndex choice = kernels::serve_choice3(
            cache_option, transfer_option, package_option, &cost);
        *staged[lane]++ = StagedDecision{time, cost, choice};
        prev[lane] = time;
        here[lane] = time;
      });
  // a's decisions, then b's: the reference's accumulation order.
  const StagedDecision* begin[2] = {ws.staged.data(),
                                    ws.staged.data() + events[0].size()};
  const ItemId item[2] = {pair.a, pair.b};
  for (std::size_t lane = 0; lane < 2; ++lane) {
    const auto count = static_cast<std::size_t>(staged[lane] - begin[lane]);
    const std::size_t charged = report.charges.size();
    report.charges.resize(charged + count);
    ServeChoice* charge = report.charges.data() + charged;
    for (const StagedDecision* d = begin[lane]; d != staged[lane]; ++d) {
      const auto choice = static_cast<ServeChoice>(d->choice);
      report.singleton_cost += d->cost;
      *charge = choice;
      charge += choice != ServeChoice::kCacheSameServer ? 1 : 0;
      if (keep_plan) {
        report.services.push_back({d->time, item[lane], choice, d->cost});
      }
    }
    report.charges.resize(
        static_cast<std::size_t>(charge - report.charges.data()));
  }
}

PackageReport solve_pair_package_ws(const RequestSequence& sequence,
                                    const CostModel& model, ItemPair pair,
                                    const OptimalOfflineOptions& dp,
                                    SolverWorkspace& ws, bool keep_plan) {
  PackageReport report;
  report.pair = pair;
  report.total_accesses =
      sequence.item_frequency(pair.a) + sequence.item_frequency(pair.b);
  Flow& flow = ws.flow;
  flow.group_size = 2;

  std::size_t nodes = 0;
  {
    // The flow's pre-scan (or the flow) and the greedy decisions: Phase
    // 2's CPU outside the DP (phase2/dp_solve).
    const obs::TraceSpan walk_span("phase2/package_walk");
    if (dp.use_kernels) {
      // One walk pre-scans the co-requests straight into the DP's node
      // columns; a kept plan also builds the flow.
      const std::size_t m = sequence.server_count();
      const std::size_t most = std::min(sequence.item_frequency(pair.a),
                                        sequence.item_frequency(pair.b));
      // node_columns sizes last_visit: call it first.
      const kernels::NodeColumns columns = ws.node_columns(most + 1, m);
      kernels::FlowPrescan scan(columns, m, model.mu, model.lambda,
                                ws.last_visit.data());
      kernels::prescan_walk(scan, keep_plan ? &flow : nullptr,
                            [&](auto&& co_request) {
                              walk_package(sequence, model, pair, report, ws,
                                           keep_plan, co_request);
                            });
      nodes = scan.nodes();
    } else {
      // The reference reads rows: the oracle the events are checked by.
      flow.points.clear();
      serve_singletons_scalar(sequence, model, pair.a, pair.b, report, ws,
                              keep_plan, &flow);
      serve_singletons_scalar(sequence, model, pair.b, pair.a, report, ws,
                              keep_plan, nullptr);
      nodes = flow.size() + 1;
    }
  }
  report.co_request_count = nodes - 1;
  // Every request of either item not in the flow is one greedy decision.
  g_singleton_services.add(report.total_accesses -
                           2 * report.co_request_count);

  SolveResult package =
      dp.use_kernels
          ? solve_prescanned(ws, nodes, /*group_size=*/2, model, keep_plan)
          : solve_optimal_offline(flow, model, sequence.server_count(), dp,
                                  keep_plan, &ws);
  report.package_cost = package.cost;  // already 2α-discounted
  report.package_counts = package.counts;
  if (keep_plan) {
    report.package_schedule = std::move(package.schedule);
    report.package_flow = flow;
  }
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
                               /*keep_plan=*/true);
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
                                    options.dp, ws, options.keep_plans);
        } else {
          result.singles[i - pair_count] = solve_single_item(
              sequence, model, result.packing.singles[i - pair_count],
              options.dp, ws, options.keep_plans);
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
