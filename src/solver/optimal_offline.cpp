#include "solver/optimal_offline.hpp"

#include <algorithm>
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

/// Backtracks from the last node into `out`, a Schedule or a
/// ScheduleCounter; each step explains how node i and the nodes between the
/// predecessor state and i are physically served.
template <typename Sink>
void backtrack(const RequestIndex& index, const std::vector<DpChoice>& choice,
               double mu, double lambda, Sink& out) {
  std::size_t i = index.node_count() - 1;
  while (i > 0) {
    const DpChoice& ch = choice[i];
    const Time t_i = index.time_of(i);
    const ServerId s_i = index.server_of(i);
    if (ch.via_line) {
      const auto p = static_cast<std::size_t>(index.prev_same_server(i));
      out.add_segment(s_i, index.time_of(p), t_i);
      const auto k = static_cast<std::size_t>(ch.split_k);
      // Intermediates: local cache link when that is what w_j priced,
      // otherwise a side transfer off the line.
      for (std::size_t j = k + 1; j < i; ++j) {
        const std::int32_t pj = index.prev_same_server(j);
        const bool local_chosen =
            pj >= 0 &&
            mu * (index.time_of(j) -
                  index.time_of(static_cast<std::size_t>(pj))) < lambda;
        if (local_chosen) {
          out.add_segment(index.server_of(j),
                          index.time_of(static_cast<std::size_t>(pj)),
                          index.time_of(j));
        } else {
          out.add_transfer(s_i, index.server_of(j), index.time_of(j));
        }
      }
      i = k;
    } else {
      const ServerId s_prev = index.server_of(i - 1);
      out.add_segment(s_prev, index.time_of(i - 1), t_i);
      if (s_prev != s_i) out.add_transfer(s_prev, s_i, t_i);
      i = i - 1;
    }
  }
}

}  // namespace

SolveResult solve_optimal_offline(const Flow& flow, const CostModel& model,
                                  std::size_t server_count,
                                  const OptimalOfflineOptions& options,
                                  SolverWorkspace* workspace) {
  model.validate();
  validate_flow(flow);
  const obs::TraceSpan span("phase2/dp_solve");
  g_dp_solves.add();
  (workspace != nullptr ? g_workspace_hits : g_workspace_local).add();
  SolveResult result;
  result.schedule = Schedule(flow.group_size);
  if (flow.empty()) {
    result.raw_cost = 0.0;
    result.cost = 0.0;
    return result;
  }

  // All scratch lives in the (caller-provided or local) workspace; repeated
  // solves through one workspace reuse capacity and allocate nothing.
  SolverWorkspace local;
  SolverWorkspace& ws = workspace != nullptr ? *workspace : local;

  ws.index.rebuild(flow, server_count);
  const RequestIndex& index = ws.index;
  const std::size_t n = index.node_count();  // origin + services
  g_dp_cells.add(n - 1);
  g_flow_nodes.record(n);
  const double mu = model.mu;
  const double lambda = model.lambda;

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

  if (options.use_kernels) {
    // Kernel path (solver/kernels.hpp): gather the same-server predecessor
    // and link columns once, run the w/W pass as flat column kernels, and
    // answer D(i)'s window minimum with a blocked scan over the dense
    // v_k = C(k) − W(k) column — SuffixMin stays as the wide-window
    // backstop.  Bit-identical to the reference branch below.
    const Time* t = index.times().data();
    const ServerId* s = index.servers().data();
    ws.prev.resize(n);
    std::int32_t* prev = ws.prev.data();
    prev[0] = RequestIndex::kNone;
    for (std::size_t j = 1; j < n; ++j) prev[j] = index.prev_same_server(j);
    ws.link.resize(n);
    kernels::link_costs(t, prev, mu, n, ws.link.data());
    kernels::w_and_prefix(ws.link.data(), lambda, n, w.data(),
                          w_prefix.data());
    ws.v.resize(n);
    double* v = ws.v.data();
    v[0] = 0.0;

    for (std::size_t i = 1; i < n; ++i) {
      const Cost tr =
          c[i - 1] + mu * (t[i] - t[i - 1]) + (s[i] != s[i - 1] ? lambda : 0.0);
      Cost line = kInfiniteCost;
      std::int32_t line_k = -1;
      const std::int32_t p = prev[i];
      if (p >= 0) {
        const Cost base = mu * (t[i] - t[static_cast<std::size_t>(p)]) +
                          w_prefix[i - 1];
        if (i - static_cast<std::size_t>(p) <= kernels::kWindowScanThreshold) {
          const auto [arg, best] =
              kernels::window_min(v, static_cast<std::size_t>(p), i);
          line = base + best;
          line_k = arg;
        } else {
          const auto [arg, best] = suffix.query(p);
          if (best < kInfiniteCost) {
            line = base + best;
            line_k = arg;
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
      v[i] = c[i] - w_prefix[i];
      suffix.push(static_cast<std::int32_t>(i), v[i]);
    }
  } else {
    // Reference path: the literal recurrences, kept as the bit-exact oracle
    // the kernels are cross-checked against.
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
  }

  result.raw_cost = c[n - 1];
  result.cost = model.flow_multiplier(flow.group_size) * result.raw_cost;

  if (options.build_schedule) {
    backtrack(index, choice, mu, lambda, result.schedule);
    result.counts = result.schedule.counts();
  } else {
    ScheduleCounter counter;
    backtrack(index, choice, mu, lambda, counter);
    counter.publish();
    result.counts = counter.counts();
  }
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
  make_item_flow(sequence, item, workspace.flow);
  SolveResult solved =
      solve_optimal_offline(workspace.flow, model, sequence.server_count(),
                            plan_options(options, keep_plan), &workspace);
  report.cost = solved.cost;
  report.schedule_counts = solved.counts;
  if (keep_plan) {
    report.schedule = std::move(solved.schedule);
    report.flow = workspace.flow;
  }
  return report;
}

}  // namespace dpg
