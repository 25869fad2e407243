// Unit tests for the optimal offline DP (solver/optimal_offline).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/request_index.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "solver/kernels.hpp"
#include "solver/optimal_offline.hpp"
#include "solver/workspace.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-9;

CostModel unit_model() { return CostModel{1.0, 1.0, 0.8}; }

TEST(OptimalOffline, EmptyFlowCostsNothing) {
  const Flow flow{{}, 1};
  const SolveResult r = solve_optimal_offline(flow, unit_model(), 3);
  EXPECT_EQ(r.raw_cost, 0.0);
  EXPECT_EQ(r.cost, 0.0);
  EXPECT_TRUE(r.schedule.segments().empty());
}

TEST(OptimalOffline, SingleRequestAtOriginIsPureCache) {
  Flow flow;
  flow.points.push_back({kOriginServer, 2.5});
  const SolveResult r = solve_optimal_offline(flow, unit_model(), 3);
  EXPECT_NEAR(r.raw_cost, 2.5, kTol);  // hold at the origin, no transfer
  EXPECT_TRUE(r.schedule.transfers().empty());
}

TEST(OptimalOffline, SingleRemoteRequestIsCachePlusTransfer) {
  Flow flow;
  flow.points.push_back({2, 2.5});
  const SolveResult r = solve_optimal_offline(flow, unit_model(), 3);
  EXPECT_NEAR(r.raw_cost, 3.5, kTol);  // 2.5μ hold + λ
  EXPECT_EQ(r.schedule.transfers().size(), 1u);
}

TEST(OptimalOffline, RepeatedSameServerRequestsChainCacheLines) {
  Flow flow;
  flow.points.push_back({1, 1.0});
  flow.points.push_back({1, 2.0});
  flow.points.push_back({1, 3.0});
  const SolveResult r = solve_optimal_offline(flow, unit_model(), 2);
  // 1μ hold at origin + λ + 2μ hold at server 1.
  EXPECT_NEAR(r.raw_cost, 4.0, kTol);
  EXPECT_EQ(r.schedule.transfers().size(), 1u);
}

TEST(OptimalOffline, SideTransferOffALineBeatsChaining) {
  // Two interleaved servers: the DP should hold one line on server 1 and
  // side-transfer to server 2 rather than bounce the copy back and forth.
  Flow flow;
  flow.points.push_back({1, 1.0});
  flow.points.push_back({2, 1.1});
  flow.points.push_back({1, 1.2});
  CostModel model{1.0, 0.05, 0.8};  // cheap transfers
  const SolveResult r = solve_optimal_offline(flow, model, 3);
  // Hold origin [0,1] (1μ), transfer to s1; hold s1 [1.0,1.2] (0.2μ);
  // side transfer to s2 at 1.1.  Total = 1.2μ + 3λ... the first transfer
  // plus side transfer plus nothing else: 1.2 + 0.05*2 = 1.3.
  EXPECT_NEAR(r.raw_cost, 1.2 * model.mu + 2 * model.lambda, kTol);
  const ValidationResult v = r.schedule.validate(flow);
  EXPECT_TRUE(v.ok) << v.message;
}

TEST(OptimalOffline, FastAndNaiveRangeMinAgree) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Flow flow = testing::random_flow(rng, 40, 5);
    CostModel model{1.0, 0.25 + 0.25 * static_cast<double>(trial % 16), 0.8};
    OptimalOfflineOptions fast;
    fast.fast_range_min = true;
    OptimalOfflineOptions naive;
    naive.fast_range_min = false;
    const SolveResult a = solve_optimal_offline(flow, model, 5, fast);
    const SolveResult b = solve_optimal_offline(flow, model, 5, naive);
    ASSERT_NEAR(a.raw_cost, b.raw_cost, 1e-9);
  }
}

TEST(OptimalOffline, ScheduleIsAlwaysFeasibleAndMatchesReportedCost) {
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    const Flow flow = testing::random_flow(rng, 30, 4);
    CostModel model{1.0, 0.5 + static_cast<double>(trial % 8), 0.8};
    const SolveResult r = solve_optimal_offline(flow, model, 4);
    const ValidationResult v = r.schedule.validate(flow);
    ASSERT_TRUE(v.ok) << v.message;
    ASSERT_NEAR(r.schedule.raw_cost(model), r.raw_cost, 1e-9)
        << "reconstructed schedule should realize the DP objective";
  }
}

TEST(OptimalOffline, CountedSchedulesMatchBuiltOnes) {
  // With build_schedule off the backtrack only counts: the counts must be
  // those of the schedule it would have built, on both DP paths, and the
  // cost must not move.
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const Flow flow =
        testing::random_flow(rng, 1 + static_cast<std::size_t>(trial % 40), 5);
    const CostModel model{trial % 5 == 0 ? 0.0 : 1.0,
                          0.25 + 0.25 * static_cast<double>(trial % 16), 0.8};
    for (const bool kernels : {true, false}) {
      OptimalOfflineOptions options;
      options.use_kernels = kernels;
      const SolveResult a = solve_optimal_offline(flow, model, 5, options);
      const SolveResult b = solve_optimal_offline(flow, model, 5, options,
                                                  /*build_schedule=*/false);
      EXPECT_EQ(a.raw_cost, b.raw_cost);
      EXPECT_EQ(a.counts.segments, a.schedule.counts().segments);
      EXPECT_EQ(a.counts.transfers, a.schedule.counts().transfers);
      EXPECT_EQ(b.counts.segments, a.schedule.counts().segments);
      EXPECT_EQ(b.counts.transfers, a.schedule.counts().transfers);
      EXPECT_TRUE(b.schedule.segments().empty());
      EXPECT_TRUE(b.schedule.transfers().empty());
    }
  }
}

/// `n` points over servers 1..`busy`, picked at random, with server
/// `busy` + 1 visited about once every `rare_gap` points: its D windows
/// hold hundreds of nodes, past the window-minimum ring and across several
/// kernels::kWideBlock blocks.  Times step by multiples of 0.125, so v
/// ties and local links that cost exactly λ are common.
Flow rare_server_flow(Rng& rng, std::size_t n, std::size_t busy,
                      std::size_t rare_gap) {
  Flow flow;
  Time t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += 0.125 * static_cast<Time>(rng.next_int(1, 16));
    const bool rare = rng.next_below(rare_gap) == 0;
    const auto server = static_cast<ServerId>(
        rare ? busy + 1 : 1 + rng.next_below(busy));
    flow.points.push_back(ServicePoint{server, t});
  }
  return flow;
}

/// The widest D window of `flow`: max over i of i − p(i).
std::size_t widest_window(const Flow& flow, std::size_t server_count) {
  const RequestIndex index(flow, server_count);
  std::size_t widest = 0;
  for (std::size_t i = 1; i < index.node_count(); ++i) {
    const std::int32_t p = index.prev_same_server(i);
    if (p >= 0) widest = std::max(widest, i - static_cast<std::size_t>(p));
  }
  return widest;
}

/// Four results of one flow agree: the kernel path's count, the counts()
/// of the schedule it builds, the reference path's count, and the cost
/// bits of all three.
void expect_counts_agree(const Flow& flow, const CostModel& model,
                         std::size_t server_count,
                         const std::string& context) {
  const OptimalOfflineOptions kernels;
  OptimalOfflineOptions reference;
  reference.use_kernels = false;
  SolverWorkspace ws;
  const SolveResult schedule = solve_optimal_offline(
      flow, model, server_count, kernels, /*build_schedule=*/true, &ws);
  const SolveResult kernel = solve_optimal_offline(
      flow, model, server_count, kernels, /*build_schedule=*/false, &ws);
  const SolveResult scalar = solve_optimal_offline(
      flow, model, server_count, reference, /*build_schedule=*/false, &ws);
  const ScheduleCounts want = schedule.schedule.counts();
  EXPECT_EQ(kernel.counts.segments, want.segments) << context;
  EXPECT_EQ(kernel.counts.transfers, want.transfers) << context;
  EXPECT_EQ(scalar.counts.segments, want.segments) << context;
  EXPECT_EQ(scalar.counts.transfers, want.transfers) << context;
  EXPECT_EQ(kernel.cost, schedule.cost) << context;
  EXPECT_EQ(scalar.cost, schedule.cost) << context;
  EXPECT_TRUE(kernel.schedule.segments().empty()) << context;
}

TEST(OptimalOffline, CountedSchedulesMatchBuiltOnesOnLongFlows) {
  // Flows of 1,000 to 10,000 points whose rare server's windows cross
  // several 64-node blocks: the count from prefix sums must match the
  // walked schedule and the reference at cheap and dear lines, at μ = 0
  // (every window one tie) and at λ = 0 (no local link is cheaper).
  Rng rng(23);
  const std::vector<CostModel> models = {
      {1.0, 1.0, 0.8},  {0.25, 1.0, 0.8}, {0.01, 8.0, 0.8},
      {0.5, 0.375, 0.8}, {0.0, 1.0, 0.8}, {1.0, 0.0, 0.8},
      {0.0, 0.0, 0.8}};
  for (const std::size_t n : {1000u, 4000u, 10000u}) {
    const Flow flow = rare_server_flow(rng, n, 6, 300);
    ASSERT_GT(widest_window(flow, 8), 4 * kernels::kWideBlock);
    for (const CostModel& model : models) {
      expect_counts_agree(flow, model, 8,
                          "n " + std::to_string(n) + " mu " +
                              std::to_string(model.mu) + " lambda " +
                              std::to_string(model.lambda));
    }
  }
}

TEST(OptimalOffline, CountedSchedulesMatchBuiltOnesOnTieHeavyFlows) {
  // 0.125-quantized times over few servers: equal v values in every
  // window, so only the latest-tie split gives the walked schedule's
  // counts, and links equal to λ must count as transfers.
  Rng rng(31);
  for (int round = 0; round < 120; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.next_int(2, 300));
    const std::size_t servers = static_cast<std::size_t>(rng.next_int(2, 6));
    const Flow flow = testing::random_flow(rng, n, servers);
    const double mu = 0.25 * static_cast<double>(rng.next_int(0, 4));
    const double lambda = 0.125 * static_cast<double>(rng.next_int(0, 8));
    expect_counts_agree(flow, CostModel{mu, lambda, 0.8}, servers,
                        "round " + std::to_string(round));
  }
}

TEST(OptimalOffline, PackageMultiplierScalesCost) {
  Rng rng(21);
  const Flow base = testing::random_flow(rng, 12, 3);
  Flow packaged = base;
  packaged.group_size = 2;
  const CostModel model = unit_model();
  const SolveResult single = solve_optimal_offline(base, model, 3);
  const SolveResult pack = solve_optimal_offline(packaged, model, 3);
  EXPECT_NEAR(pack.raw_cost, single.raw_cost, kTol);
  EXPECT_NEAR(pack.cost, 2.0 * model.alpha * single.raw_cost, kTol);
}

TEST(OptimalOffline, ZeroLambdaPrefersTransfersEverywhere) {
  Flow flow;
  flow.points.push_back({1, 1.0});
  flow.points.push_back({2, 5.0});
  CostModel model{1.0, 0.0, 0.8};
  const SolveResult r = solve_optimal_offline(flow, model, 3);
  // Free transfers: chain the copy, pay only the unavoidable cache time.
  EXPECT_NEAR(r.raw_cost, 5.0, kTol);
}

TEST(OptimalOffline, ZeroMuPrefersOneLongLine) {
  Flow flow;
  flow.points.push_back({1, 1.0});
  flow.points.push_back({2, 2.0});
  flow.points.push_back({1, 3.0});
  flow.points.push_back({2, 4.0});
  CostModel model{0.0, 1.0, 0.8};
  const SolveResult r = solve_optimal_offline(flow, model, 3);
  // Free caching: every server needs the copy delivered once: two transfers.
  EXPECT_NEAR(r.raw_cost, 2.0, kTol);
}

TEST(OptimalOffline, RejectsUnsortedFlow) {
  Flow flow;
  flow.points.push_back({1, 2.0});
  flow.points.push_back({1, 1.0});
  EXPECT_THROW((void)solve_optimal_offline(flow, unit_model(), 2), InvalidArgument);
}

TEST(OptimalOffline, RejectedFlowsKeepTheMessageAndMoveNoCounter) {
  // The time checks run once per path, in the pre-scan (kernels) or in the
  // reference's RequestIndex::rebuild: a repeated time or one <= 0 gets
  // validate_flow's message, and no phase2.* counter moves, with or without
  // a workspace.
  const std::string message =
      "Flow: service times must be strictly increasing and positive";
  const std::vector<std::vector<Time>> bad_times = {
      {0.5, 1.0, 1.0}, {0.0, 1.0}, {-1.0}, {0.5, 0.25}};
  obs::set_enabled(true);
  obs::reset_metrics();
  SolverWorkspace workspace;
  for (const bool use_kernels : {true, false}) {
    SolverWorkspace* const no_workspace = nullptr;
    for (SolverWorkspace* ws : {&workspace, no_workspace}) {
      for (const std::vector<Time>& times : bad_times) {
        Flow flow;
        ServerId server = 0;
        for (const Time time : times) {
          flow.points.push_back({server++ % 3, time});
        }
        OptimalOfflineOptions options;
        options.use_kernels = use_kernels;
        const obs::MetricsSnapshot before = obs::snapshot_metrics();
        try {
          (void)solve_optimal_offline(flow, unit_model(), 3, options,
                                      /*build_schedule=*/true, ws);
          ADD_FAILURE() << "accepted, kernels " << use_kernels;
        } catch (const InvalidArgument& error) {
          EXPECT_EQ(std::string(error.what()), message)
              << "kernels " << use_kernels;
        }
        const obs::MetricsSnapshot moved =
            obs::metrics_delta(before, obs::snapshot_metrics());
        for (const auto& [name, value] : moved.counters) {
          EXPECT_FALSE(name.rfind("phase2.", 0) == 0 && value != 0)
              << name << " moved by " << value << ", kernels " << use_kernels;
        }
        for (const auto& [name, data] : moved.histograms) {
          EXPECT_FALSE(name.rfind("phase2.", 0) == 0)
              << name << ", kernels " << use_kernels;
        }
      }
    }
    // A valid flow on the same path moves them.
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    OptimalOfflineOptions options;
    options.use_kernels = use_kernels;
    (void)solve_optimal_offline(Flow{{{1, 0.5}, {2, 1.0}}, 1}, unit_model(), 3,
                                options, /*build_schedule=*/true, &workspace);
    const obs::MetricsSnapshot moved =
        obs::metrics_delta(before, obs::snapshot_metrics());
    EXPECT_EQ(obs::counter_value(moved, "phase2.dp_solves"), 1u);
    EXPECT_EQ(obs::counter_value(moved, "phase2.dp_cells"), 2u);
  }
  Flow empty_group{{{1, 1.0}}, 0};
  EXPECT_THROW((void)solve_optimal_offline(empty_group, unit_model(), 3),
               InvalidArgument);
  obs::set_enabled(false);
  obs::reset_metrics();
}

TEST(OptimalOffline, SharedWorkspaceMatchesFreshSolves) {
  // One workspace reused across many flows of varying size (growing and
  // shrinking) must reproduce every workspace-free result bit for bit,
  // schedules included.
  Rng rng(321);
  const CostModel model = unit_model();
  SolverWorkspace workspace;
  for (const std::size_t n : {40u, 5u, 120u, 1u, 60u}) {
    const Flow flow = testing::random_flow(rng, n, 5);
    const SolveResult fresh = solve_optimal_offline(flow, model, 5);
    const SolveResult reused = solve_optimal_offline(
        flow, model, 5, {}, /*build_schedule=*/true, &workspace);
    ASSERT_EQ(fresh.raw_cost, reused.raw_cost);
    ASSERT_EQ(fresh.cost, reused.cost);
    ASSERT_EQ(fresh.schedule.segments().size(),
              reused.schedule.segments().size());
    ASSERT_EQ(fresh.schedule.transfers().size(),
              reused.schedule.transfers().size());
    for (std::size_t i = 0; i < fresh.schedule.segments().size(); ++i) {
      ASSERT_EQ(fresh.schedule.segments()[i].server,
                reused.schedule.segments()[i].server);
      ASSERT_EQ(fresh.schedule.segments()[i].begin,
                reused.schedule.segments()[i].begin);
      ASSERT_EQ(fresh.schedule.segments()[i].end,
                reused.schedule.segments()[i].end);
    }
  }
}

TEST(OptimalOffline, WorkspaceReuseCoversBothRangeMinStrategies) {
  Rng rng(654);
  const CostModel model = unit_model();
  OptimalOfflineOptions naive;
  naive.fast_range_min = false;
  SolverWorkspace workspace;
  for (int round = 0; round < 5; ++round) {
    const Flow flow = testing::random_flow(rng, 80, 4);
    const Cost fast = solve_optimal_offline(flow, model, 4, {},
                                            /*build_schedule=*/true,
                                            &workspace)
                          .raw_cost;
    const Cost slow = solve_optimal_offline(flow, model, 4, naive,
                                            /*build_schedule=*/true,
                                            &workspace)
                          .raw_cost;
    ASSERT_NEAR(fast, slow, kTol);
  }
}

}  // namespace
}  // namespace dpg
