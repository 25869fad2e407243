// The built-in solver adapters: each wraps one solve_* entry point behind
// the engine's Solver interface without re-pricing anything.  total_cost is
// copied bitwise from the wrapped result; the transfer-side breakdown is
// reconstructed from the solver's own schedule counts and charge lists
// (each λ-charge counted once at its flow's rate), and cache_cost is the
// renormalized remainder (see engine/run_report.cpp).  The solvers keep
// plans only under SolverConfig::keep_schedules; each adapter then moves the
// flows and schedules Phase 2 built into RunReport::plans.
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "engine/registry.hpp"
#include "engine/streaming_engine.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/baselines.hpp"
#include "solver/dp_greedy.hpp"
#include "solver/greedy.hpp"
#include "solver/group_solver.hpp"
#include "solver/online.hpp"
#include "solver/online_dp_greedy.hpp"
#include "solver/phase2_shard.hpp"
#include "solver/workspace.hpp"
#include "util/stopwatch.hpp"

namespace dpg {

namespace {

/// Resolves SolverConfig's two parallelism knobs into one pool pointer: an
/// externally owned `config.pool` wins (its width fixes the shard layout);
/// otherwise `threads(N)` leases an N-worker pool for this run.  Null means
/// the serial path.
class PoolLease {
 public:
  explicit PoolLease(const SolverConfig& config) {
    if (config.pool != nullptr) {
      pool_ = config.pool;
    } else if (config.thread_count > 0) {
      owned_ = std::make_unique<ThreadPool>(config.thread_count);
      pool_ = owned_.get();
    }
  }

  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_; }

 private:
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_;
};

std::string item_label(ItemId item) {
  return "item " + std::to_string(item);
}

std::string group_label(const std::vector<ItemId>& items) {
  std::string out = "{";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(items[i]);
  }
  return out + "}";
}

/// Accounts one schedule into the report from its counts: every transfer
/// edge is one λ-charge at the flow's rate, every segment one cache
/// interval.
void tally_schedule(ScheduleCounts counts, const CostModel& model,
                    double rate, RunReport& report) {
  report.transfer_cost +=
      rate * model.lambda * static_cast<double>(counts.transfers);
  report.transfer_events += counts.transfers;
  report.cache_segments += counts.segments;
}

/// Moves one solved flow and its schedule into the report's plans.  The
/// solvers keep plans only when the config keeps schedules, so with
/// keep_schedules off there is nothing to move and nothing is kept.
void keep_plan(RunReport& report, const SolverConfig& config, Flow&& flow,
               Schedule&& schedule, std::string label) {
  if (!config.keep_schedules) return;
  report.plans.push_back(
      FlowPlan{std::move(flow), std::move(schedule), std::move(label)});
}

/// Tallies and keeps the plans of the items the offline DP served alone.
void keep_single_plans(RunReport& report, const SolverConfig& config,
                       const CostModel& model,
                       std::vector<SingleItemReport>& singles) {
  for (SingleItemReport& single : singles) {
    tally_schedule(single.schedule_counts, model, 1.0, report);
    keep_plan(report, config, std::move(single.flow),
              std::move(single.schedule), item_label(single.item));
  }
}

// ---------------------------------------------------------------------------
// DP_Greedy (Algorithm 1).

class DpGreedySolver final : public Solver {
 public:
  RunReport run(const RequestSequence& sequence, const CostModel& model,
                const SolverConfig& config) override {
    const PoolLease lease(config);
    DpGreedyOptions options;
    options.theta = config.theta;
    options.dp = config.dp;
    options.pool = lease.pool();
    options.keep_plans = config.keep_schedules;

    RunReport report;
    report.solver = "dp_greedy";
    Stopwatch stopwatch;
    DpGreedyResult result = solve_dp_greedy(sequence, model, options);
    report.solve_seconds = stopwatch.elapsed_seconds();
    report.phase1_seconds = result.phase1_seconds;

    report.total_cost = result.total_cost;
    report.raw_cost = result.total_cost;
    report.total_item_accesses = result.total_item_accesses;
    report.package_count = result.packing.pairs.size();

    const double pack_rate = model.flow_multiplier(2);
    for (PackageReport& pkg : result.packages) {
      tally_schedule(pkg.package_counts, model, pack_rate, report);
      // The greedy λ-charges, in service order.
      for (const ServeChoice charge : pkg.charges) {
        report.transfer_cost += charge == ServeChoice::kTransferFromPrev
                                    ? model.lambda
                                    : model.package_fetch_cost();
      }
      report.transfer_events += pkg.charges.size();
      keep_plan(report, config, std::move(pkg.package_flow),
                std::move(pkg.package_schedule),
                "package " + group_label({pkg.pair.a, pkg.pair.b}));
    }
    keep_single_plans(report, config, model, result.singles);
    finalize_report(report);
    return report;
  }
};

// ---------------------------------------------------------------------------
// Optimal baseline (per-item offline DP, Section VI).

class OptimalBaselineSolver final : public Solver {
 public:
  RunReport run(const RequestSequence& sequence, const CostModel& model,
                const SolverConfig& config) override {
    const PoolLease lease(config);
    RunReport report;
    report.solver = "optimal_baseline";
    Stopwatch stopwatch;
    OptimalBaselineResult result =
        solve_optimal_baseline(sequence, model, config.dp, lease.pool(),
                               config.keep_schedules);
    report.solve_seconds = stopwatch.elapsed_seconds();

    report.total_cost = result.total_cost;
    report.raw_cost = result.total_cost;
    report.total_item_accesses = result.total_item_accesses;
    keep_single_plans(report, config, model, result.items);
    finalize_report(report);
    return report;
  }
};

// ---------------------------------------------------------------------------
// Package_Served (always-pack baseline, Section VI).

class PackageServedSolver final : public Solver {
 public:
  RunReport run(const RequestSequence& sequence, const CostModel& model,
                const SolverConfig& config) override {
    const PoolLease lease(config);
    RunReport report;
    report.solver = "package_served";
    Stopwatch stopwatch;
    PackageServedResult result =
        solve_package_served(sequence, model, config.theta, config.dp,
                             lease.pool(), config.keep_schedules);
    report.solve_seconds = stopwatch.elapsed_seconds();
    report.phase1_seconds = result.phase1_seconds;

    report.total_cost = result.total_cost;
    report.raw_cost = result.total_cost;
    report.total_item_accesses = result.total_item_accesses;
    report.package_count = result.packing.pairs.size();

    const double pack_rate = model.flow_multiplier(2);
    for (PackageServedPair& pkg : result.pairs) {
      tally_schedule(pkg.schedule_counts, model, pack_rate, report);
      keep_plan(report, config, std::move(pkg.flow), std::move(pkg.schedule),
                "package " + group_label({pkg.pair.a, pkg.pair.b}));
    }
    keep_single_plans(report, config, model, result.singles);
    finalize_report(report);
    return report;
  }
};

// ---------------------------------------------------------------------------
// Group DP_Greedy (multi-item extension, Remarks).

class GroupDpGreedySolver final : public Solver {
 public:
  RunReport run(const RequestSequence& sequence, const CostModel& model,
                const SolverConfig& config) override {
    const PoolLease lease(config);
    GroupDpGreedyOptions options;
    options.theta = config.theta;
    options.max_group_size = config.max_group_size;
    options.dp = config.dp;
    options.pool = lease.pool();
    options.keep_plans = config.keep_schedules;

    RunReport report;
    report.solver = "group_dp_greedy";
    Stopwatch stopwatch;
    GroupDpGreedyResult result =
        solve_group_dp_greedy(sequence, model, options);
    report.solve_seconds = stopwatch.elapsed_seconds();
    report.phase1_seconds = result.phase1_seconds;

    report.total_cost = result.total_cost;
    report.raw_cost = result.total_cost;
    report.total_item_accesses = result.total_item_accesses;
    report.package_count = result.groups.size();

    for (GroupReport& group : result.groups) {
      const double rate =
          model.flow_multiplier(group.items.size());
      tally_schedule(group.package_counts, model, rate, report);
      report.transfer_cost += group.partial_transfer_cost;
      report.transfer_events += group.partial_transfer_events;
      keep_plan(report, config, std::move(group.package_flow),
                std::move(group.package_schedule),
                "group " + group_label(group.items));
    }
    keep_single_plans(report, config, model, result.singles);
    finalize_report(report);
    return report;
  }
};

// ---------------------------------------------------------------------------
// Per-item-flow policies: greedy, chain, online break-even.  No
// whole-sequence solve_* exists for these; the canonical composition is one
// solve per item flow in ascending ItemId order (the loop every harness
// wrote by hand before the engine), so that is the contract here too.  The
// solves shard over the leased pool into per-item slots; the merge below
// runs in item order, so the FP accumulation matches the serial path bit
// for bit at any thread count.

/// One item's solve outcome, merged serially into the RunReport.
struct ItemOutcome {
  Cost cost = 0.0;
  Cost raw_cost = 0.0;
  Cost transfer_cost = 0.0;         // λ-side of this item's choices
  std::size_t transfer_events = 0;  // λ-charges behind that cost
  std::size_t cache_segments = 0;   // of the schedule, kept either way
  // The plan, kept only with keep_schedules: the schedule and the shard's
  // item flow it serves.
  Schedule schedule;
  Flow flow;
};

/// `solve(flow, outcome)` fills the outcome's costs and returns the schedule;
/// the shard records its segment count and keeps it only with
/// keep_schedules.
template <typename SolveFn>
RunReport run_per_item(const std::string& name,
                       const RequestSequence& sequence,
                       const SolverConfig& config, SolverWorkspace& workspace,
                       SolveFn&& solve) {
  const PoolLease lease(config);
  RunReport report;
  report.solver = name;
  report.total_item_accesses = sequence.total_item_accesses();
  Stopwatch stopwatch;

  const std::size_t item_count = sequence.item_count();
  std::vector<ItemOutcome> outcomes(item_count);
  for_each_flow_sharded(
      lease.pool(), item_count,
      [&](std::size_t i, SolverWorkspace& ws) {
        make_item_flow(sequence, static_cast<ItemId>(i), ws.flow);
        ItemOutcome& outcome = outcomes[i];
        Schedule schedule = solve(ws.flow, outcome);
        outcome.cache_segments = schedule.segments().size();
        if (config.keep_schedules) {
          outcome.schedule = std::move(schedule);
          outcome.flow = ws.flow;
        }
      },
      &workspace);

  for (ItemId item = 0; item < item_count; ++item) {
    ItemOutcome& outcome = outcomes[item];
    report.total_cost += outcome.cost;
    report.raw_cost += outcome.raw_cost;
    report.transfer_cost += outcome.transfer_cost;
    report.transfer_events += outcome.transfer_events;
    report.cache_segments += outcome.cache_segments;
    keep_plan(report, config, std::move(outcome.flow),
              std::move(outcome.schedule), item_label(item));
  }
  report.solve_seconds = stopwatch.elapsed_seconds();
  finalize_report(report);
  return report;
}

/// The outcome of a schedule-priced item solve (greedy, chain): every
/// transfer edge is one λ-charge.  Returns the schedule for run_per_item.
Schedule schedule_outcome(SolveResult&& solved, const CostModel& model,
                          ItemOutcome& outcome) {
  outcome.cost = solved.cost;
  outcome.raw_cost = solved.raw_cost;
  outcome.transfer_cost =
      model.lambda * static_cast<double>(solved.schedule.transfers().size());
  outcome.transfer_events = solved.schedule.transfers().size();
  return std::move(solved.schedule);
}

class GreedySolver final : public Solver {
 public:
  RunReport run(const RequestSequence& sequence, const CostModel& model,
                const SolverConfig& config) override {
    return run_per_item(
        "greedy", sequence, config, workspace_,
        [&](const Flow& flow, ItemOutcome& outcome) {
          return schedule_outcome(
              solve_greedy(flow, model, sequence.server_count()), model,
              outcome);
        });
  }

 private:
  SolverWorkspace workspace_;
};

class ChainSolver final : public Solver {
 public:
  RunReport run(const RequestSequence& sequence, const CostModel& model,
                const SolverConfig& config) override {
    return run_per_item(
        "chain", sequence, config, workspace_,
        [&](const Flow& flow, ItemOutcome& outcome) {
          return schedule_outcome(solve_chain(flow, model), model, outcome);
        });
  }

 private:
  SolverWorkspace workspace_;
};

class OnlineBreakEvenSolver final : public Solver {
 public:
  RunReport run(const RequestSequence& sequence, const CostModel& model,
                const SolverConfig& config) override {
    OnlineOptions options;
    options.hold_factor = config.hold_factor;
    return run_per_item(
        "online_break_even", sequence, config, workspace_,
        [&](const Flow& flow, ItemOutcome& outcome) {
          OnlineResult solved = solve_online_break_even(
              flow, model, sequence.server_count(), options);
          outcome.cost = solved.cost;
          outcome.raw_cost = solved.raw_cost;
          outcome.transfer_cost =
              model.lambda * static_cast<double>(solved.transfer_count);
          outcome.transfer_events = solved.transfer_count;
          return std::move(solved.schedule);
        });
  }

 private:
  SolverWorkspace workspace_;
};

// ---------------------------------------------------------------------------
// Online DP_Greedy (windowed packing, no lookahead).

class OnlineDpGreedySolver final : public Solver {
 public:
  RunReport run(const RequestSequence& sequence, const CostModel& model,
                const SolverConfig& config) override {
    StreamingOptions options;
    options.online.theta = config.theta;
    options.online.window = config.window;
    options.online.repack_interval = config.repack_interval;
    options.online.hold_factor = config.hold_factor;
    options.item_count_hint = sequence.item_count();
    options.server_count_hint = sequence.server_count();

    // Drive the streaming engine one request at a time — the registry's
    // online solve IS the push-based path, so the batch goldens pin the
    // incremental engine bit for bit.  No reconstructed schedules: the
    // policy's replica set is not a Schedule, so plans stay empty and
    // cache_segments stays 0.
    Stopwatch stopwatch;
    StreamingEngine engine(model, options);
    for (const Request& r : sequence.requests()) {
      engine.push(r.server, r.time, r.items);
    }
    RunReport report = engine.finish();
    report.solve_seconds = stopwatch.elapsed_seconds();
    return report;
  }
};

template <typename S>
SolverRegistry::Factory factory_of() {
  return [] { return std::make_unique<S>(); };
}

SolverRegistry make_builtin_registry() {
  SolverRegistry registry;
  registry.add({"dp_greedy",
                "two-phase DP_Greedy: Jaccard pairing, package DP at 2α + "
                "greedy singletons",
                "Alg. 1", /*online=*/false},
               factory_of<DpGreedySolver>());
  registry.add({"optimal_baseline",
                "per-item optimal offline DP (non-packing extreme)",
                "Sec. VI", /*online=*/false},
               factory_of<OptimalBaselineSolver>());
  registry.add({"package_served",
                "always-pack extreme: union flows served at the 2α rate",
                "Sec. VI", /*online=*/false},
               factory_of<PackageServedSolver>());
  registry.add({"group_dp_greedy",
                "multi-item grouping extension of DP_Greedy",
                "Remarks", /*online=*/false},
               factory_of<GroupDpGreedySolver>());
  registry.add({"greedy",
                "per-item greedy cache-or-transfer (2-approximation)",
                "Sec. IV-B", /*online=*/false},
               factory_of<GreedySolver>());
  registry.add({"chain",
                "copy follows the request trajectory (transfer every hop)",
                "Sec. IV-B", /*online=*/false},
               factory_of<ChainSolver>());
  registry.add({"online_break_even",
                "per-item rent-or-buy with the λ/μ break-even horizon",
                "Ref. [6]", /*online=*/true},
               factory_of<OnlineBreakEvenSolver>());
  registry.add({"online_dp_greedy",
                "windowed Jaccard packing + break-even serving, no lookahead",
                "extension", /*online=*/true},
               factory_of<OnlineDpGreedySolver>());
  return registry;
}

}  // namespace

SolverRegistry& builtin_registry() {
  static SolverRegistry registry = make_builtin_registry();
  return registry;
}

}  // namespace dpg
