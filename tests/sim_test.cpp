// Tests for the replay engine.
#include <gtest/gtest.h>

#include "sim/replay.hpp"
#include "sim/report.hpp"
#include "solver/optimal_offline.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-9;

TEST(Replay, EmptyPlansAreFeasibleAndFree) {
  const ReplayMetrics m = replay_plans({}, CostModel{1, 1, 0.8}, 3);
  EXPECT_TRUE(m.feasible);
  EXPECT_EQ(m.total_cost, 0.0);
  EXPECT_EQ(m.service_count, 0u);
}

TEST(Replay, ClassifiesCacheHitsVersusTransferArrivals) {
  Flow flow;
  flow.points.push_back({0, 1.0});  // served by the origin cache line
  flow.points.push_back({1, 2.0});  // served by a transfer at 2.0
  Schedule schedule;
  schedule.add_segment(0, 0.0, 2.0);
  schedule.add_transfer(0, 1, 2.0);
  const ReplayMetrics m =
      replay_plans({FlowPlan{flow, schedule, "demo"}}, CostModel{1, 1, 0.8}, 2);
  ASSERT_TRUE(m.feasible) << m.issue;
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.transfer_arrivals, 1u);
  EXPECT_NEAR(m.cache_hit_ratio(), 0.5, kTol);
  EXPECT_EQ(m.transfer_count, 1u);
  EXPECT_NEAR(m.total_cache_time, 2.0, kTol);
}

TEST(Replay, ReportsInfeasiblePlanWithLabel) {
  Flow flow;
  flow.points.push_back({2, 1.0});
  Schedule schedule;  // nothing scheduled at all
  const ReplayMetrics m = replay_plans(
      {FlowPlan{flow, schedule, "broken item"}}, CostModel{1, 1, 0.8}, 3);
  EXPECT_FALSE(m.feasible);
  EXPECT_NE(m.issue.find("broken item"), std::string::npos);
}

TEST(Replay, AggregatesAcrossPlansAndTracksPeakCopies) {
  // Two flows each holding a copy over [0, 2] on different servers.
  Flow f1;
  f1.points.push_back({0, 2.0});
  Schedule s1;
  s1.add_segment(0, 0.0, 2.0);
  Flow f2;
  f2.points.push_back({1, 2.0});
  Schedule s2;
  s2.add_segment(0, 0.0, 1.0);
  s2.add_transfer(0, 1, 1.0);
  s2.add_segment(1, 1.0, 2.0);
  const CostModel model{1, 1, 0.8};
  const ReplayMetrics m = replay_plans(
      {FlowPlan{f1, s1, "a"}, FlowPlan{f2, s2, "b"}}, model, 2);
  ASSERT_TRUE(m.feasible) << m.issue;
  EXPECT_NEAR(m.total_cache_time, 4.0, kTol);
  EXPECT_NEAR(m.per_server_cache_time[0], 3.0, kTol);
  EXPECT_NEAR(m.per_server_cache_time[1], 1.0, kTol);
  EXPECT_EQ(m.peak_concurrent_copies, 2u);
  EXPECT_NEAR(m.total_cost, s1.cost(model) + s2.cost(model), kTol);
}

TEST(Replay, MatchesSolverCostOnRealPlans) {
  Rng rng(5);
  const CostModel model{1.0, 1.5, 0.8};
  for (int trial = 0; trial < 20; ++trial) {
    const Flow flow = testing::random_flow(rng, 25, 4);
    const SolveResult solved = solve_optimal_offline(flow, model, 4);
    const ReplayMetrics m =
        replay_plans({FlowPlan{flow, solved.schedule, "dp"}}, model, 4);
    ASSERT_TRUE(m.feasible) << m.issue;
    ASSERT_NEAR(m.total_cost, solved.cost, 1e-9);
    ASSERT_EQ(m.service_count, flow.size());
    ASSERT_EQ(m.cache_hits + m.transfer_arrivals, flow.size());
  }
}


TEST(ReplayReport, RendersFeasibleSummary) {
  Flow flow;
  flow.points.push_back({0, 1.0});
  flow.points.push_back({1, 2.0});
  Schedule schedule;
  schedule.add_segment(0, 0.0, 2.0);
  schedule.add_transfer(0, 1, 2.0);
  const ReplayMetrics m =
      replay_plans({FlowPlan{flow, schedule, "demo"}}, CostModel{1, 1, 0.8}, 2);
  const std::string report = render_replay_report(m);
  EXPECT_NE(report.find("feasible"), std::string::npos);
  EXPECT_NE(report.find("wire transfers    : 1"), std::string::npos);
  EXPECT_NE(report.find("busiest servers"), std::string::npos);
  EXPECT_NE(report.find("s0"), std::string::npos);
}

TEST(ReplayReport, SurfacesInfeasibility) {
  Flow flow;
  flow.points.push_back({2, 1.0});
  const ReplayMetrics m = replay_plans(
      {FlowPlan{flow, Schedule{}, "broken"}}, CostModel{1, 1, 0.8}, 3);
  const std::string report = render_replay_report(m);
  EXPECT_NE(report.find("INFEASIBLE"), std::string::npos);
  EXPECT_NE(report.find("broken"), std::string::npos);
}

TEST(Replay, PerServerPeakCopiesAreTracked) {
  // Two plans overlapping on server 0 over [0, 1].
  Flow f1;
  f1.points.push_back({0, 1.0});
  Schedule s1;
  s1.add_segment(0, 0.0, 1.0);
  Flow f2;
  f2.points.push_back({0, 0.5});
  Schedule s2;
  s2.add_segment(0, 0.0, 0.5);
  const ReplayMetrics m = replay_plans(
      {FlowPlan{f1, s1, "a"}, FlowPlan{f2, s2, "b"}}, CostModel{1, 1, 0.8}, 2);
  ASSERT_TRUE(m.feasible) << m.issue;
  ASSERT_EQ(m.per_server_peak_copies.size(), 2u);
  EXPECT_EQ(m.per_server_peak_copies[0], 2u);
  EXPECT_EQ(m.per_server_peak_copies[1], 0u);
}

}  // namespace
}  // namespace dpg
