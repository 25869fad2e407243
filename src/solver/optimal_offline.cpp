#include "solver/optimal_offline.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/kernels.hpp"
#include "solver/workspace.hpp"
#include "util/error.hpp"

namespace dpg {

namespace {

const obs::Counter g_dp_solves = obs::counter("phase2.dp_solves");
const obs::Counter g_dp_cells = obs::counter("phase2.dp_cells");
const obs::Counter g_workspace_hits = obs::counter("phase2.workspace_reuse_hits");
const obs::Counter g_workspace_local = obs::counter("phase2.workspace_local");
const obs::Histogram g_flow_nodes = obs::histogram("phase2.flow_nodes");

/// The node columns a backtrack reads: t_i, s_i and p(i).
struct NodeView {
  const Time* times;
  const ServerId* servers;
  const std::int32_t* prev;
};

/// Backtracks from node n − 1 into `out`, a Schedule or a ScheduleCounter;
/// each step explains how node i and the nodes between the predecessor
/// state and i are physically served.  `split_of(i)` is the split k of a
/// D(i) step, or -1 for a Tr(i) step.
template <typename SplitOf, typename Sink>
void backtrack(const NodeView& nodes, std::size_t n, double mu, double lambda,
               SplitOf&& split_of, Sink& out) {
  const Time* t = nodes.times;
  const ServerId* s = nodes.servers;
  std::size_t i = n - 1;
  while (i > 0) {
    const std::int32_t split = split_of(i);
    if (split >= 0) {
      const auto p = static_cast<std::size_t>(nodes.prev[i]);
      out.add_segment(s[i], t[p], t[i]);
      const auto k = static_cast<std::size_t>(split);
      // Intermediates: local cache link when that is what w_j priced,
      // otherwise a side transfer off the line.
      for (std::size_t j = k + 1; j < i; ++j) {
        const std::int32_t pj = nodes.prev[j];
        const bool local_chosen =
            pj >= 0 &&
            mu * (t[j] - t[static_cast<std::size_t>(pj)]) < lambda;
        if (local_chosen) {
          out.add_segment(s[j], t[static_cast<std::size_t>(pj)], t[j]);
        } else {
          out.add_transfer(s[i], s[j], t[j]);
        }
      }
      i = k;
    } else {
      out.add_segment(s[i - 1], t[i - 1], t[i]);
      if (s[i - 1] != s[i]) out.add_transfer(s[i - 1], s[i], t[i]);
      i = i - 1;
    }
  }
}

/// The kernel forward pass over the pre-scanned columns (n >= 2 nodes):
/// returns C(n − 1) and leaves v, via_line and line_min for the backtrack.
Cost forward_pass(SolverWorkspace& ws, std::size_t n, double mu,
                  double lambda) {
  const Time* t = ws.times.data();
  const ServerId* s = ws.servers.data();
  const std::int32_t* prev = ws.prev.data();
  const Cost* base = ws.base.data();
  const Cost* w_prefix = ws.w_prefix.data();
  double* v = ws.v.data();
  std::uint8_t* via_line = ws.via_line.data();
  Cost* line_min = ws.line_min.data();
  WindowMin& windows = ws.windows;
  windows.clear();

  Cost c = 0.0;         // C(i − 1)
  double v_last = 0.0;  // v_{i−1} = C(i − 1) − W(i − 1)
  v[0] = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    // D(i)'s window is [p(i), i).  `windows` holds v up to i − 2: the
    // minimum over [p(i), i − 1) comes from it, and v_{i−1} joins it as a
    // register.  A first visit reads the empty window; its base is ∞.
    const std::int32_t p = prev[i];
    const Cost older =
        windows.min_from(p >= 0 ? static_cast<std::size_t>(p) : i - 1);
    windows.push(v_last);
    const Cost best = std::min(older, v_last);

    const Cost tr = c + mu * (t[i] - t[i - 1]) +
                    kernels::select_or_zero(s[i] != s[i - 1], lambda);
    const Cost line = base[i] + best;
    via_line[i] = line < tr ? 1 : 0;
    line_min[i] = best;
    c = std::min(tr, line);
    v_last = c - w_prefix[i];
    v[i] = v_last;
  }
  return c;
}

/// The split of node i on the kernel path: -1 for a Tr(i) step, otherwise
/// the latest k in [p(i), i) whose v_k equals D(i)'s window minimum — the
/// argmin the reference loops keep.  The scan walks back over the nodes
/// the backtrack then serves as intermediates, so it is O(n) per flow.
std::int32_t recovered_split(const SolverWorkspace& ws, std::size_t i) {
  if (ws.via_line[i] == 0) return -1;
  const double best = ws.line_min[i];
  const auto p = static_cast<std::size_t>(ws.prev[i]);
  std::size_t k = i - 1;
  while (k > p && ws.v[k] != best) --k;
  return static_cast<std::int32_t>(k);
}

/// The counts of the schedule backtrack() builds on the kernel path,
/// without walking its intermediates.  A D(i) step with split k lays one
/// line and serves the i − 1 − k nodes between k and i: L(i−1) − L(k) of
/// them by their local links (the pre-scan's prefix count of the test the
/// backtrack makes) and the rest by side transfers.  A Tr(i) step lays one
/// segment and ships a transfer when the server changes.  On a flow that
/// passed the pre-scan no segment has zero length and no transfer stays on
/// its server (docs/ALGORITHMS.md), so ScheduleCounter would count every
/// element and none of its checks could fire.
ScheduleCounts counted_plan(const SolverWorkspace& ws, std::size_t n) {
  const ServerId* s = ws.servers.data();
  const std::int32_t* local_links = ws.local_links.data();
  ScheduleCounts counts;
  std::size_t i = n - 1;
  while (i > 0) {
    const std::int32_t split = recovered_split(ws, i);
    if (split >= 0) {
      const auto k = static_cast<std::size_t>(split);
      const auto local =
          static_cast<std::size_t>(local_links[i - 1] - local_links[k]);
      counts.segments += 1 + local;
      counts.transfers += i - 1 - k - local;
      i = k;
    } else {
      counts.segments += 1;
      counts.transfers += s[i - 1] != s[i] ? 1 : 0;
      i = i - 1;
    }
  }
  return counts;
}

/// The kernel DP over `n` >= 2 pre-scanned nodes: the forward pass, then
/// the plan built by the backtrack or counted from the prefix counts.
void solve_kernel(SolverWorkspace& ws, std::size_t n, const CostModel& model,
                  bool build_schedule, std::size_t group_size,
                  SolveResult& result) {
  result.raw_cost = forward_pass(ws, n, model.mu, model.lambda);
  result.cost = model.flow_multiplier(group_size) * result.raw_cost;
  if (build_schedule) {
    backtrack(NodeView{ws.times.data(), ws.servers.data(), ws.prev.data()}, n,
              model.mu, model.lambda,
              [&ws](std::size_t i) { return recovered_split(ws, i); },
              result.schedule);
    result.counts = result.schedule.counts();
    return;
  }
  result.counts = counted_plan(ws, n);
  publish_emitted(result.counts);
}

}  // namespace

SolveResult solve_optimal_offline(const Flow& flow, const CostModel& model,
                                  std::size_t server_count,
                                  const OptimalOfflineOptions& options,
                                  bool build_schedule,
                                  SolverWorkspace* workspace) {
  model.validate();
  // The time checks of validate_flow run in the pre-scan (kernel path) and
  // in RequestIndex::rebuild (reference path), with the same message; the
  // counters below move only once they passed.
  require(flow.group_size >= 1, "Flow: group_size must be >= 1");
  const obs::TraceSpan span("phase2/dp_solve");
  SolveResult result;
  result.schedule = Schedule(flow.group_size);
  if (flow.empty()) {
    g_dp_solves.add();
    (workspace != nullptr ? g_workspace_hits : g_workspace_local).add();
    result.raw_cost = 0.0;
    result.cost = 0.0;
    return result;
  }

  // All scratch lives in the (caller-provided or local) workspace; repeated
  // solves through one workspace reuse capacity and allocate nothing.  The
  // local one is built only when needed: its window-minimum ring is
  // filled on construction.
  std::optional<SolverWorkspace> local;
  SolverWorkspace& ws = workspace != nullptr ? *workspace : local.emplace();

  const std::size_t n = flow.size() + 1;  // origin + services
  const double mu = model.mu;
  const double lambda = model.lambda;
  const auto count_solve = [&] {
    g_dp_solves.add();
    (workspace != nullptr ? g_workspace_hits : g_workspace_local).add();
    g_dp_cells.add(n - 1);
    g_flow_nodes.record(n);
  };

  if (options.use_kernels) {
    // Kernel path (solver/kernels.hpp): one pre-scan pass builds p(i),
    // base, W and L; the forward pass keeps only window minima; the
    // backtrack recovers each split, or the plan is counted without it.
    // Bit-identical to the reference branch below.
    const kernels::NodeColumns columns = ws.node_columns(n, server_count);
    kernels::prescan_flow(flow.points, server_count, mu, lambda,
                          ws.last_visit.data(), columns);
    count_solve();
    solve_kernel(ws, n, model, build_schedule, flow.group_size, result);
    return result;
  }

  // Reference path: the Section-V pre-scan index and the literal
  // recurrences, kept as the bit-exact oracle the kernels are checked
  // against.
  ws.index.rebuild(flow, server_count);
  count_solve();
  const RequestIndex& index = ws.index;

  // w_j: the cheapest way to serve node j as an *intermediate* under a cache
  // line that spans its time — a λ side-transfer off the line, or j's own
  // local cache link from its previous same-server visit.
  ws.w.assign(n, 0.0);
  std::vector<Cost>& w = ws.w;
  // W: prefix sums of w, W[i] = w_1 + ... + w_i.
  ws.w_prefix.assign(n, 0.0);
  std::vector<Cost>& w_prefix = ws.w_prefix;

  ws.c.assign(n, 0.0);
  std::vector<Cost>& c = ws.c;
  ws.choice.assign(n, DpChoice{});
  std::vector<DpChoice>& choice = ws.choice;
  SuffixMin& suffix = ws.suffix;  // over v_k = C(k) − W(k), pushed as states complete
  suffix.clear();
  suffix.push(0, 0.0);

  for (std::size_t j = 1; j < n; ++j) {
    Cost local_link = kInfiniteCost;
    const std::int32_t pj = index.prev_same_server(j);
    if (pj >= 0) {
      local_link = mu * (index.time_of(j) -
                         index.time_of(static_cast<std::size_t>(pj)));
    }
    w[j] = std::min(lambda, local_link);
    w_prefix[j] = w_prefix[j - 1] + w[j];
  }

  for (std::size_t i = 1; i < n; ++i) {
    const Time t_i = index.time_of(i);
    const Time t_prev = index.time_of(i - 1);
    const ServerId s_i = index.server_of(i);
    const ServerId s_prev = index.server_of(i - 1);

    // Tr(i): chain through the previous service point.
    const Cost tr =
        c[i - 1] + mu * (t_i - t_prev) + (s_i != s_prev ? lambda : 0.0);

    // D(i): cache line on s_i from the previous same-server visit p(i);
    // every node between the split k and i is served for w_j.
    Cost line = kInfiniteCost;
    std::int32_t line_k = -1;
    const std::int32_t p = index.prev_same_server(i);
    if (p >= 0) {
      const Time t_p = index.time_of(static_cast<std::size_t>(p));
      const Cost base = mu * (t_i - t_p) + w_prefix[i - 1];
      if (options.fast_range_min) {
        const auto [arg, best] = suffix.query(p);
        if (best < kInfiniteCost) {
          line = base + best;
          line_k = arg;
        }
      } else {
        for (std::int32_t k = p; k < static_cast<std::int32_t>(i); ++k) {
          const Cost candidate =
              base + c[static_cast<std::size_t>(k)] -
              w_prefix[static_cast<std::size_t>(k)];
          if (candidate < line) {
            line = candidate;
            line_k = k;
          }
        }
      }
    }

    if (line < tr) {
      c[i] = line;
      choice[i] = DpChoice{true, line_k};
    } else {
      c[i] = tr;
      choice[i] = DpChoice{false, static_cast<std::int32_t>(i) - 1};
    }
    suffix.push(static_cast<std::int32_t>(i), c[i] - w_prefix[i]);
  }

  result.raw_cost = c[n - 1];
  result.cost = model.flow_multiplier(flow.group_size) * result.raw_cost;

  record_plan(result, build_schedule, [&](auto& plan) {
    backtrack(NodeView{index.times().data(), index.servers().data(),
                       index.prev_same_servers().data()},
              n, mu, lambda,
              [&choice](std::size_t i) {
                return choice[i].via_line ? choice[i].split_k : -1;
              },
              plan);
  });
  return result;
}

SolveResult solve_prescanned(SolverWorkspace& workspace, std::size_t nodes,
                             std::size_t group_size, const CostModel& model,
                             bool build_schedule) {
  model.validate();
  const obs::TraceSpan span("phase2/dp_solve");
  g_dp_solves.add();
  g_workspace_hits.add();
  SolveResult result;
  result.schedule = Schedule(group_size);
  if (nodes <= 1) {
    result.raw_cost = 0.0;
    result.cost = 0.0;
    return result;
  }
  g_dp_cells.add(nodes - 1);
  g_flow_nodes.record(nodes);
  solve_kernel(workspace, nodes, model, build_schedule, group_size, result);
  return result;
}

SingleItemReport solve_single_item(const RequestSequence& sequence,
                                   const CostModel& model, ItemId item,
                                   const OptimalOfflineOptions& options,
                                   SolverWorkspace& workspace,
                                   bool keep_plan) {
  SingleItemReport report;
  report.item = item;
  report.accesses = sequence.item_frequency(item);
  Flow& flow = workspace.flow;
  flow.group_size = 1;
  SolveResult solved;
  if (options.use_kernels) {
    // One walk: the item's events go from their contiguous columns into
    // the pre-scan, and with a kept plan into the flow as well.
    std::size_t nodes = 0;
    {
      const obs::TraceSpan walk_span("phase2/item_walk");
      const ItemEvents events = sequence.events_for_item(item);
      const std::size_t m = sequence.server_count();
      // node_columns sizes last_visit: call it first.
      const kernels::NodeColumns columns =
          workspace.node_columns(events.size() + 1, m);
      kernels::FlowPrescan scan(columns, m, model.mu, model.lambda,
                                workspace.last_visit.data());
      kernels::prescan_walk(scan, keep_plan ? &flow : nullptr,
                            [&events](auto&& visit) {
                              for (std::size_t j = 0; j < events.size(); ++j) {
                                visit(events.servers[j], events.times[j]);
                              }
                            });
      nodes = scan.nodes();
    }
    solved = solve_prescanned(workspace, nodes, /*group_size=*/1, model,
                              keep_plan);
  } else {
    {
      // The reference reads each request from its row, found by its
      // event's time: the oracle the events are checked by.
      const obs::TraceSpan walk_span("phase2/item_walk");
      flow.points.clear();
      for (const Time time : sequence.events_for_item(item).times) {
        const Request request = sequence[sequence.row_of_event(item, time)];
        flow.points.push_back({request.server, request.time});
      }
    }
    solved = solve_optimal_offline(flow, model, sequence.server_count(),
                                   options, keep_plan, &workspace);
  }
  report.cost = solved.cost;
  report.schedule_counts = solved.counts;
  if (keep_plan) {
    report.schedule = std::move(solved.schedule);
    report.flow = flow;
  }
  return report;
}

}  // namespace dpg
