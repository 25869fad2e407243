// Unit and property tests for the full DP_Greedy pipeline (Algorithm 1).
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/baselines.hpp"
#include "solver/dp_greedy.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-9;

TEST(DpGreedy, NoPairsMeansPureOptimalBaseline) {
  // With θ = 1 (strict) nothing is packed, so DP_Greedy degenerates to the
  // per-item optimal DP and must match the Optimal baseline exactly.
  Rng rng(4);
  const RequestSequence seq = testing::random_sequence(rng, 100, 5, 6, 0.5);
  const CostModel model{1.0, 2.0, 0.8};
  DpGreedyOptions options;
  options.theta = 1.0;
  const DpGreedyResult dpg = solve_dp_greedy(seq, model, options);
  const OptimalBaselineResult opt = solve_optimal_baseline(seq, model);
  EXPECT_TRUE(dpg.packages.empty());
  EXPECT_NEAR(dpg.total_cost, opt.total_cost, kTol);
  EXPECT_NEAR(dpg.ave_cost, opt.ave_cost, kTol);
}

TEST(DpGreedy, ParallelAndSerialResultsAreIdentical) {
  Rng rng(8);
  const RequestSequence seq = testing::random_sequence(rng, 200, 6, 8, 0.5);
  const CostModel model{1.0, 2.0, 0.6};
  DpGreedyOptions serial;
  serial.theta = 0.1;
  DpGreedyOptions parallel_opts = serial;
  ThreadPool pool(4);
  parallel_opts.pool = &pool;
  const DpGreedyResult a = solve_dp_greedy(seq, model, serial);
  const DpGreedyResult b = solve_dp_greedy(seq, model, parallel_opts);
  ASSERT_EQ(a.packages.size(), b.packages.size());
  EXPECT_NEAR(a.total_cost, b.total_cost, kTol);
  for (std::size_t i = 0; i < a.packages.size(); ++i) {
    EXPECT_NEAR(a.packages[i].total_cost(), b.packages[i].total_cost(), kTol);
  }
}

TEST(DpGreedy, PackageSchedulesAreFeasible) {
  Rng rng(12);
  std::size_t schedules_checked = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const RequestSequence seq = testing::random_sequence(rng, 80, 4, 6, 0.6);
    const CostModel model{1.0, 1.5, 0.8};
    DpGreedyOptions options;
    options.theta = 0.05;
    const DpGreedyResult result = solve_dp_greedy(seq, model, options);
    // A direct solve keeps its plans: each schedule serves a flow, so a
    // non-empty flow with an empty schedule would make the check vacuous.
    const auto expect_feasible = [&](const Schedule& schedule,
                                     const Flow& flow, ScheduleCounts counts) {
      const ValidationResult v = schedule.validate(flow);
      ASSERT_TRUE(v.ok) << v.message;
      EXPECT_EQ(schedule.segments().size(), counts.segments);
      EXPECT_EQ(schedule.transfers().size(), counts.transfers);
      if (flow.empty()) return;
      ASSERT_FALSE(schedule.segments().empty() &&
                   schedule.transfers().empty());
      ++schedules_checked;
    };
    for (const PackageReport& report : result.packages) {
      const Flow flow = make_package_flow(seq, report.pair.a, report.pair.b);
      ASSERT_EQ(report.package_flow.size(), flow.size());
      expect_feasible(report.package_schedule, flow, report.package_counts);
    }
    for (const SingleItemReport& report : result.singles) {
      const Flow flow = make_item_flow(seq, report.item);
      ASSERT_EQ(report.flow.size(), flow.size());
      expect_feasible(report.schedule, flow, report.schedule_counts);
    }
  }
  EXPECT_GT(schedules_checked, 0u);
}

TEST(DpGreedy, DroppedPlansKeepTheirCounts) {
  Rng rng(13);
  const RequestSequence seq = testing::random_sequence(rng, 120, 5, 6, 0.6);
  const CostModel model{1.0, 1.5, 0.8};
  DpGreedyOptions kept;
  kept.theta = 0.05;
  DpGreedyOptions dropped = kept;
  dropped.keep_plans = false;
  const DpGreedyResult a = solve_dp_greedy(seq, model, kept);
  const DpGreedyResult b = solve_dp_greedy(seq, model, dropped);
  EXPECT_EQ(a.total_cost, b.total_cost);
  ASSERT_EQ(a.packages.size(), b.packages.size());
  ASSERT_FALSE(a.packages.empty());
  for (std::size_t i = 0; i < a.packages.size(); ++i) {
    const PackageReport& with = a.packages[i];
    const PackageReport& without = b.packages[i];
    EXPECT_TRUE(without.package_schedule.segments().empty());
    EXPECT_TRUE(without.package_schedule.transfers().empty());
    EXPECT_TRUE(without.package_flow.empty());
    EXPECT_EQ(with.package_counts.segments, without.package_counts.segments);
    EXPECT_EQ(with.package_counts.transfers,
              without.package_counts.transfers);
    EXPECT_EQ(with.services.size(), without.services.size());
  }
  for (std::size_t i = 0; i < a.singles.size(); ++i) {
    EXPECT_TRUE(b.singles[i].flow.empty());
    EXPECT_EQ(a.singles[i].schedule_counts.segments,
              b.singles[i].schedule_counts.segments);
    EXPECT_EQ(a.singles[i].schedule_counts.transfers,
              b.singles[i].schedule_counts.transfers);
  }
}

TEST(DpGreedy, AveCostUsesTotalItemAccesses) {
  const RequestSequence seq = testing::running_example_sequence();
  const CostModel model = testing::running_example_model();
  DpGreedyOptions options;
  options.theta = 0.4;
  const DpGreedyResult result = solve_dp_greedy(seq, model, options);
  EXPECT_NEAR(result.ave_cost * static_cast<double>(result.total_item_accesses),
              result.total_cost, kTol);
}

TEST(DpGreedy, SingletonCostsNeverExceedPackageFetch) {
  // Every greedy decision is bounded by the 2αλ package-fetch constant
  // (Observation 2): that option is always available.
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    const RequestSequence seq = testing::random_sequence(rng, 100, 5, 4, 0.5);
    const CostModel model{1.0, 3.0, 0.5};
    DpGreedyOptions options;
    options.theta = 0.01;
    const DpGreedyResult result = solve_dp_greedy(seq, model, options);
    for (const PackageReport& report : result.packages) {
      for (const SingletonService& s : report.services) {
        ASSERT_LE(s.cost, model.package_fetch_cost() + kTol);
      }
    }
  }
}

TEST(DpGreedy, HighThetaYieldsFewerPackagesThanLowTheta) {
  Rng rng(30);
  const RequestSequence seq = testing::random_sequence(rng, 300, 4, 8, 0.5);
  const CostModel model{1.0, 1.0, 0.8};
  DpGreedyOptions low;
  low.theta = 0.01;
  DpGreedyOptions high;
  high.theta = 0.6;
  const auto low_result = solve_dp_greedy(seq, model, low);
  const auto high_result = solve_dp_greedy(seq, model, high);
  EXPECT_GE(low_result.packages.size(), high_result.packages.size());
}

TEST(DpGreedy, RejectsBadTheta) {
  const RequestSequence seq = testing::running_example_sequence();
  DpGreedyOptions options;
  options.theta = 1.5;
  EXPECT_THROW(
      (void)solve_dp_greedy(seq, testing::running_example_model(), options),
      InvalidArgument);
}

// Small-α regimes should favour packing; DP_Greedy with packing enabled must
// then beat the non-packing Optimal baseline on strongly correlated traces.
TEST(DpGreedy, BeatsOptimalBaselineWhenAlphaIsSmallAndCorrelationHigh) {
  Rng rng(77);
  SequenceBuilder builder(5, 2);
  Time t = 0.0;
  for (int i = 0; i < 120; ++i) {
    t += 0.5;
    const auto server = static_cast<ServerId>(rng.next_below(5));
    if (rng.next_bool(0.85)) {
      builder.add(server, t, {0, 1});
    } else {
      builder.add(server, t, {rng.next_bool(0.5) ? ItemId{0} : ItemId{1}});
    }
  }
  const RequestSequence seq = std::move(builder).build();
  const CostModel model{1.0, 2.0, 0.3};  // strong discount
  DpGreedyOptions options;
  options.theta = 0.3;
  const DpGreedyResult dpg = solve_dp_greedy(seq, model, options);
  const OptimalBaselineResult opt = solve_optimal_baseline(seq, model);
  ASSERT_EQ(dpg.packages.size(), 1u);
  EXPECT_LT(dpg.total_cost, opt.total_cost);
}

}  // namespace
}  // namespace dpg
