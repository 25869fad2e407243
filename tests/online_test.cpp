// Tests for the break-even online policy (extension module).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "solver/online.hpp"
#include "solver/optimal_offline.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-9;

TEST(OnlineBreakEven, EmptyFlowCostsNothing) {
  const SolveResult r =
      solve_online_break_even(Flow{{}, 1}, CostModel{1, 1, 0.8}, 2);
  EXPECT_EQ(r.raw_cost, 0.0);
  EXPECT_EQ(r.counts.transfers, 0u);
}

TEST(OnlineBreakEven, LocalHitAtOriginIsPureCache) {
  Flow flow;
  flow.points.push_back({kOriginServer, 3.0});
  const SolveResult r =
      solve_online_break_even(flow, CostModel{1, 1, 0.8}, 2);
  EXPECT_EQ(r.counts.transfers, 0u);
  EXPECT_NEAR(r.raw_cost, 3.0, kTol);
}

TEST(OnlineBreakEven, MissTransfersFromLiveCopy) {
  Flow flow;
  flow.points.push_back({1, 0.5});
  const SolveResult r =
      solve_online_break_even(flow, CostModel{1, 1, 0.8}, 2);
  EXPECT_EQ(r.counts.transfers, 1u);
  // Origin copy held to 0.5 (its use as a source), remote copy zero-length.
  EXPECT_NEAR(r.raw_cost, 0.5 + 1.0, kTol);
}

TEST(OnlineBreakEven, DropsIdleCopiesAfterBreakEvenHorizon) {
  // Copy fetched to server 1 at t=1, never used again; next event far away.
  // It should be charged exactly λ/μ of idle holding, not the whole gap.
  Flow flow;
  flow.points.push_back({1, 1.0});
  flow.points.push_back({0, 50.0});
  const CostModel model{1.0, 2.0, 0.8};
  const SolveResult r = solve_online_break_even(flow, model, 2);
  // Costs: origin hold [0, 1.0] (source use) = 1; transfer λ=2;
  // server-1 copy: used at 1.0, newest copy... server-1 copy IS the newest
  // (last_use 1.0 vs origin 1.0 — tie keeps both), so neither drops until
  // the origin serves t=50 locally.  The origin copy's last_use was 1.0
  // (source use), server-1's 1.0; the origin serves at 50 as a local hit.
  // Exact accounting asserted below just as feasibility + bounded waste:
  EXPECT_EQ(r.counts.transfers, 1u);
  const ValidationResult v = r.schedule.validate(flow);
  EXPECT_TRUE(v.ok) << v.message;
  // The idle server-1 copy must not be charged for the full 49-unit gap.
  // Break-even copies on one server never overlap, so the schedule's
  // unioned cache time is the policy's own.
  EXPECT_LT(r.schedule.total_cache_time(), 60.0);
}

TEST(OnlineBreakEven, ScheduleAlwaysFeasibleOnRandomFlows) {
  Rng rng(33);
  for (int trial = 0; trial < 60; ++trial) {
    const Flow flow = testing::random_flow(rng, 40, 5);
    const CostModel model{1.0, 0.5 + static_cast<double>(trial % 7), 0.8};
    const SolveResult r = solve_online_break_even(flow, model, 5);
    const ValidationResult v = r.schedule.validate(flow);
    ASSERT_TRUE(v.ok) << v.message;
    ASSERT_NEAR(r.schedule.raw_cost(model), r.raw_cost, 1e-6);
  }
}

TEST(OnlineBreakEven, NeverBelowOfflineOptimal) {
  Rng rng(41);
  for (int trial = 0; trial < 60; ++trial) {
    const Flow flow = testing::random_flow(rng, 30, 4);
    const CostModel model{1.0, 1.0 + static_cast<double>(trial % 5), 0.8};
    const Cost online = solve_online_break_even(flow, model, 4).raw_cost;
    const Cost offline = solve_optimal_offline(flow, model, 4).raw_cost;
    ASSERT_GE(online, offline - 1e-9);
  }
}

// The rent-or-buy rule should stay within a small constant of the offline
// optimum; the classical analysis of this policy family gives ratios in the
// 2–4 range (reference [6] reports 3-competitive).  We assert a conservative
// ceiling to catch regressions without over-fitting to one trace mix.
class OnlineCompetitiveness : public ::testing::TestWithParam<double> {};

TEST_P(OnlineCompetitiveness, EmpiricalRatioIsSmall) {
  const double lambda = GetParam();
  Rng rng(0x0917);
  const CostModel model{1.0, lambda, 0.8};
  double worst = 1.0;
  for (int trial = 0; trial < 40; ++trial) {
    const Flow flow = testing::random_flow(rng, 50, 4);
    const Cost online = solve_online_break_even(flow, model, 4).raw_cost;
    const Cost offline = solve_optimal_offline(flow, model, 4).raw_cost;
    if (offline > 0.0) worst = std::max(worst, online / offline);
  }
  EXPECT_LE(worst, 4.0) << "empirical competitive ratio " << worst;
}

INSTANTIATE_TEST_SUITE_P(Lambdas, OnlineCompetitiveness,
                         ::testing::Values(0.25, 1.0, 4.0, 16.0));

TEST(OnlineBreakEven, ZeroMuNeverDropsAndNeverRetransfersToSameServer) {
  Flow flow;
  flow.points.push_back({1, 1.0});
  flow.points.push_back({2, 2.0});
  flow.points.push_back({1, 30.0});
  const CostModel model{0.0, 1.0, 0.8};
  const SolveResult r = solve_online_break_even(flow, model, 3);
  EXPECT_EQ(r.counts.transfers, 2u);  // server 1 copy survives forever
  EXPECT_NEAR(r.raw_cost, 2.0, kTol);
}

TEST(OnlineBreakEven, SmallHoldFactorDegeneratesTowardChaining) {
  Rng rng(55);
  const CostModel model{1.0, 1.0, 0.8};
  OnlineOptions eager_drop;
  eager_drop.hold_factor = 1e-9;  // horizon ≈ 0: drop the instant a copy
                                  // stops being newest (the chain strategy)
  for (int trial = 0; trial < 20; ++trial) {
    const Flow flow = testing::random_flow(rng, 20, 3);
    const SolveResult r = solve_online_break_even(flow, model, 3, eager_drop);
    const ValidationResult v = r.schedule.validate(flow);
    ASSERT_TRUE(v.ok) << v.message;
  }
}

TEST(OnlineBreakEven, RejectsNonPositiveHoldFactorEagerly) {
  Rng rng(7);
  const Flow flow = testing::random_flow(rng, 5, 3);
  const CostModel model{1.0, 1.0, 0.8};
  OnlineOptions bad;
  bad.hold_factor = 0.0;
  EXPECT_THROW((void)solve_online_break_even(flow, model, 3, bad),
               InvalidArgument);
  bad.hold_factor = -1.0;
  EXPECT_THROW((void)solve_online_break_even(flow, model, 3, bad),
               InvalidArgument);
  try {
    (void)solve_online_break_even(flow, model, 3, bad);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("hold_factor"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dpg
