// Unit tests for the simple greedy baseline and the chain strategy.
#include <gtest/gtest.h>

#include "solver/greedy.hpp"
#include "solver/optimal_offline.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-9;

TEST(Greedy, EmptyFlow) {
  const SolveResult r = solve_greedy(Flow{{}, 1}, CostModel{1, 1, 0.8}, 2);
  EXPECT_EQ(r.raw_cost, 0.0);
}

TEST(Greedy, PrefersCacheWhenGapIsShort) {
  Flow flow;
  flow.points.push_back({0, 1.0});
  flow.points.push_back({0, 1.5});
  const SolveResult r = solve_greedy(flow, CostModel{1, 10, 0.8}, 2);
  EXPECT_NEAR(r.raw_cost, 1.5, kTol);  // two local cache extensions
  EXPECT_TRUE(r.schedule.transfers().empty());
}

TEST(Greedy, PrefersTransferWhenGapIsLong) {
  Flow flow;
  flow.points.push_back({1, 1.0});
  flow.points.push_back({0, 8.0});
  flow.points.push_back({1, 8.5});
  const CostModel model{1.0, 1.0, 0.8};
  const SolveResult r = solve_greedy(flow, model, 2);
  // r1: transfer from origin (1μ + λ = 2); r2: cache at origin from t=0 is
  // 8μ vs transfer 7μ+λ=8 → tie, cache picked (<=); r3: cache from r1 at
  // t=1 (7.5μ) vs transfer from r2 (0.5μ+λ=1.5) → transfer.
  EXPECT_NEAR(r.raw_cost, 2.0 + 8.0 + 1.5, kTol);
}

TEST(Greedy, MatchesFigure4StyleAccounting) {
  // Greedy decision costs are request-local: the reported total equals the
  // sum of per-request minima, while the realized schedule can only be
  // cheaper (shared cache lines collapse in the union).
  Rng rng(99);
  const CostModel model{1.0, 2.0, 0.8};
  for (int trial = 0; trial < 50; ++trial) {
    const Flow flow = testing::random_flow(rng, 25, 4);
    const SolveResult r = solve_greedy(flow, model, 4);
    const ValidationResult v = r.schedule.validate(flow);
    ASSERT_TRUE(v.ok) << v.message;
    ASSERT_LE(r.schedule.raw_cost(model), r.raw_cost + 1e-9);
  }
}

TEST(Chain, FollowsTheTrajectory) {
  Flow flow;
  flow.points.push_back({1, 1.0});
  flow.points.push_back({2, 2.0});
  flow.points.push_back({2, 3.0});
  const SolveResult r = solve_chain(flow, CostModel{1, 1, 0.8});
  // Hold 3 time units along the chain + two hops.
  EXPECT_NEAR(r.raw_cost, 3.0 + 2.0, kTol);
  const ValidationResult v = r.schedule.validate(flow);
  EXPECT_TRUE(v.ok) << v.message;
}

TEST(Chain, NeverBeatsGreedy) {
  Rng rng(7);
  const CostModel model{1.0, 1.0, 0.8};
  for (int trial = 0; trial < 50; ++trial) {
    const Flow flow = testing::random_flow(rng, 30, 5);
    ASSERT_LE(solve_greedy(flow, model, 5).raw_cost,
              solve_chain(flow, model).raw_cost + 1e-9);
  }
}

TEST(GreedyHeterogeneous, ReducesToHomogeneousWhenUniform) {
  Rng rng(42);
  const CostModel homo{2.0, 3.0, 0.8};
  HeterogeneousCostModel hetero(4, 2.0, 3.0);
  for (int trial = 0; trial < 30; ++trial) {
    const Flow flow = testing::random_flow(rng, 20, 4);
    const SolveResult a = solve_greedy(flow, homo, 4);
    const SolveResult b = solve_greedy_heterogeneous(flow, hetero);
    // One decision loop: the same bits and the same schedule.
    ASSERT_EQ(a.raw_cost, b.raw_cost);
    ASSERT_EQ(a.cost, b.cost);
    testing::expect_same_schedule(a.schedule, b.schedule);
  }
}

TEST(GreedyHeterogeneous, AvoidsExpensiveServers) {
  HeterogeneousCostModel model(3, 1.0, 1.0);
  model.set_mu(1, 100.0);  // server 1 cache is prohibitively expensive
  Flow flow;
  flow.points.push_back({1, 1.0});
  flow.points.push_back({1, 2.0});
  const SolveResult r = solve_greedy_heterogeneous(flow, model);
  // Serving the second request by caching at server 1 would cost 100;
  // greedy transfers from the previous request's server instead... the
  // previous request is ALSO at server 1 (same server, zero-λ self edge),
  // so the "transfer" option degenerates to holding at server 1 too.
  // The decision still picks the cheaper of 100·1 (cache) vs
  // 100·1 + 0 (transfer with source hold at server 1): both 100.
  EXPECT_NEAR(r.raw_cost, (1.0 + 100.0 * 1.0) + 1.0, 1e-9);
}

}  // namespace
}  // namespace dpg
