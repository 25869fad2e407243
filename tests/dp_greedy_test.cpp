// Unit and property tests for the full DP_Greedy pipeline (Algorithm 1).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/baselines.hpp"
#include "solver/dp_greedy.hpp"
#include "solver/group_solver.hpp"
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

/// The non-cache choices of `services`, in order: the charge list they
/// imply.
std::vector<ServeChoice> charges_of(const std::vector<SingletonService>& services) {
  std::vector<ServeChoice> charges;
  for (const SingletonService& s : services) {
    if (s.choice != ServeChoice::kCacheSameServer) charges.push_back(s.choice);
  }
  return charges;
}

void expect_counts_eq(ScheduleCounts want, ScheduleCounts got,
                      const std::string& context) {
  EXPECT_EQ(want.segments, got.segments) << context;
  EXPECT_EQ(want.transfers, got.transfers) << context;
}

TEST(DpGreedy, DroppedPlansKeepTheirCounts) {
  // Without plans no schedule is built and no greedy decision is kept: each
  // package keeps its counted schedule counts and its charge list, which
  // must equal the built schedule's counts and the kept decisions' non-cache
  // choices, in order.
  Rng rng(13);
  const RequestSequence seq = testing::random_sequence(rng, 120, 5, 6, 0.6);
  const CostModel model{1.0, 1.5, 0.8};
  for (const bool kernels : {true, false}) {
    DpGreedyOptions kept;
    kept.theta = 0.05;
    kept.dp.use_kernels = kernels;
    DpGreedyOptions dropped = kept;
    dropped.keep_plans = false;
    const DpGreedyResult a = solve_dp_greedy(seq, model, kept);
    const DpGreedyResult b = solve_dp_greedy(seq, model, dropped);
    const std::string path = kernels ? "kernels" : "scalar";
    EXPECT_EQ(a.total_cost, b.total_cost) << path;
    ASSERT_EQ(a.packages.size(), b.packages.size()) << path;
    ASSERT_FALSE(a.packages.empty()) << path;
    for (std::size_t i = 0; i < a.packages.size(); ++i) {
      const PackageReport& with = a.packages[i];
      const PackageReport& without = b.packages[i];
      const std::string context = path + ", package " + std::to_string(i);
      EXPECT_TRUE(without.package_schedule.segments().empty()) << context;
      EXPECT_TRUE(without.package_schedule.transfers().empty()) << context;
      EXPECT_TRUE(without.package_flow.empty()) << context;
      expect_counts_eq(with.package_schedule.counts(), with.package_counts,
                       context);
      expect_counts_eq(with.package_schedule.counts(), without.package_counts,
                       context);
      EXPECT_TRUE(without.services.empty()) << context;
      EXPECT_EQ(with.services.size(),
                with.total_accesses - 2 * with.co_request_count)
          << context;
      EXPECT_EQ(charges_of(with.services), with.charges) << context;
      EXPECT_EQ(with.charges, without.charges) << context;
      EXPECT_EQ(with.singleton_cost, without.singleton_cost) << context;
    }
    for (std::size_t i = 0; i < a.singles.size(); ++i) {
      const std::string context = path + ", single " + std::to_string(i);
      EXPECT_TRUE(b.singles[i].flow.empty()) << context;
      EXPECT_TRUE(b.singles[i].schedule.segments().empty()) << context;
      expect_counts_eq(a.singles[i].schedule.counts(),
                       a.singles[i].schedule_counts, context);
      expect_counts_eq(a.singles[i].schedule.counts(),
                       b.singles[i].schedule_counts, context);
    }
  }
}

TEST(DpGreedy, EverySolverCountsWhatItWouldBuild) {
  // For every flow of every solver whose Phase 2 runs the offline DP, the
  // counts kept without plans equal Schedule::counts() of the plan kept
  // with them.
  Rng rng(29);
  const RequestSequence seq = testing::random_sequence(rng, 150, 6, 8, 0.6);
  const CostModel model{1.0, 1.5, 0.8};
  const OptimalOfflineOptions dp;

  const OptimalBaselineResult opt_with =
      solve_optimal_baseline(seq, model, dp, nullptr, true);
  const OptimalBaselineResult opt_without =
      solve_optimal_baseline(seq, model, dp, nullptr, false);
  ASSERT_EQ(opt_with.items.size(), opt_without.items.size());
  for (std::size_t i = 0; i < opt_with.items.size(); ++i) {
    expect_counts_eq(opt_with.items[i].schedule.counts(),
                     opt_without.items[i].schedule_counts,
                     "optimal_baseline item " + std::to_string(i));
  }

  const PackageServedResult ps_with =
      solve_package_served(seq, model, 0.05, dp, nullptr, true);
  const PackageServedResult ps_without =
      solve_package_served(seq, model, 0.05, dp, nullptr, false);
  ASSERT_EQ(ps_with.pairs.size(), ps_without.pairs.size());
  ASSERT_FALSE(ps_with.pairs.empty());
  for (std::size_t i = 0; i < ps_with.pairs.size(); ++i) {
    EXPECT_TRUE(ps_without.pairs[i].schedule.segments().empty());
    expect_counts_eq(ps_with.pairs[i].schedule.counts(),
                     ps_without.pairs[i].schedule_counts,
                     "package_served pair " + std::to_string(i));
  }
  for (std::size_t i = 0; i < ps_with.singles.size(); ++i) {
    expect_counts_eq(ps_with.singles[i].schedule.counts(),
                     ps_without.singles[i].schedule_counts,
                     "package_served single " + std::to_string(i));
  }

  GroupDpGreedyOptions group;
  group.theta = 0.05;
  GroupDpGreedyOptions group_dropped = group;
  group_dropped.keep_plans = false;
  const GroupDpGreedyResult g_with = solve_group_dp_greedy(seq, model, group);
  const GroupDpGreedyResult g_without =
      solve_group_dp_greedy(seq, model, group_dropped);
  ASSERT_EQ(g_with.groups.size(), g_without.groups.size());
  ASSERT_FALSE(g_with.groups.empty());
  for (std::size_t i = 0; i < g_with.groups.size(); ++i) {
    EXPECT_TRUE(g_without.groups[i].package_schedule.segments().empty());
    expect_counts_eq(g_with.groups[i].package_schedule.counts(),
                     g_without.groups[i].package_counts,
                     "group " + std::to_string(i));
  }
  for (std::size_t i = 0; i < g_with.singles.size(); ++i) {
    expect_counts_eq(g_with.singles[i].schedule.counts(),
                     g_without.singles[i].schedule_counts,
                     "group single " + std::to_string(i));
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
