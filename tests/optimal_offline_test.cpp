// Unit tests for the optimal offline DP (solver/optimal_offline).
#include <gtest/gtest.h>

#include "util/error.hpp"
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
  flow.points.push_back({kOriginServer, 2.5, 0});
  const SolveResult r = solve_optimal_offline(flow, unit_model(), 3);
  EXPECT_NEAR(r.raw_cost, 2.5, kTol);  // hold at the origin, no transfer
  EXPECT_TRUE(r.schedule.transfers().empty());
}

TEST(OptimalOffline, SingleRemoteRequestIsCachePlusTransfer) {
  Flow flow;
  flow.points.push_back({2, 2.5, 0});
  const SolveResult r = solve_optimal_offline(flow, unit_model(), 3);
  EXPECT_NEAR(r.raw_cost, 3.5, kTol);  // 2.5μ hold + λ
  EXPECT_EQ(r.schedule.transfers().size(), 1u);
}

TEST(OptimalOffline, RepeatedSameServerRequestsChainCacheLines) {
  Flow flow;
  flow.points.push_back({1, 1.0, 0});
  flow.points.push_back({1, 2.0, 1});
  flow.points.push_back({1, 3.0, 2});
  const SolveResult r = solve_optimal_offline(flow, unit_model(), 2);
  // 1μ hold at origin + λ + 2μ hold at server 1.
  EXPECT_NEAR(r.raw_cost, 4.0, kTol);
  EXPECT_EQ(r.schedule.transfers().size(), 1u);
}

TEST(OptimalOffline, SideTransferOffALineBeatsChaining) {
  // Two interleaved servers: the DP should hold one line on server 1 and
  // side-transfer to server 2 rather than bounce the copy back and forth.
  Flow flow;
  flow.points.push_back({1, 1.0, 0});
  flow.points.push_back({2, 1.1, 1});
  flow.points.push_back({1, 1.2, 2});
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
      OptimalOfflineOptions built;
      built.use_kernels = kernels;
      OptimalOfflineOptions counted = built;
      counted.build_schedule = false;
      const SolveResult a = solve_optimal_offline(flow, model, 5, built);
      const SolveResult b = solve_optimal_offline(flow, model, 5, counted);
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
  flow.points.push_back({1, 1.0, 0});
  flow.points.push_back({2, 5.0, 1});
  CostModel model{1.0, 0.0, 0.8};
  const SolveResult r = solve_optimal_offline(flow, model, 3);
  // Free transfers: chain the copy, pay only the unavoidable cache time.
  EXPECT_NEAR(r.raw_cost, 5.0, kTol);
}

TEST(OptimalOffline, ZeroMuPrefersOneLongLine) {
  Flow flow;
  flow.points.push_back({1, 1.0, 0});
  flow.points.push_back({2, 2.0, 1});
  flow.points.push_back({1, 3.0, 2});
  flow.points.push_back({2, 4.0, 3});
  CostModel model{0.0, 1.0, 0.8};
  const SolveResult r = solve_optimal_offline(flow, model, 3);
  // Free caching: every server needs the copy delivered once: two transfers.
  EXPECT_NEAR(r.raw_cost, 2.0, kTol);
}

TEST(OptimalOffline, RejectsUnsortedFlow) {
  Flow flow;
  flow.points.push_back({1, 2.0, 0});
  flow.points.push_back({1, 1.0, 1});
  EXPECT_THROW((void)solve_optimal_offline(flow, unit_model(), 2), InvalidArgument);
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
    const SolveResult reused =
        solve_optimal_offline(flow, model, 5, {}, &workspace);
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
    const Cost fast =
        solve_optimal_offline(flow, model, 4, {}, &workspace).raw_cost;
    const Cost slow =
        solve_optimal_offline(flow, model, 4, naive, &workspace).raw_cost;
    ASSERT_NEAR(fast, slow, kTol);
  }
}

}  // namespace
}  // namespace dpg
