// Golden reproduction of the paper's running example (Section V-C, Fig. 7).
// Every number asserted here is taken verbatim from the paper.
#include <gtest/gtest.h>

#include "solver/correlation.hpp"
#include "solver/dp_greedy.hpp"
#include "solver/optimal_offline.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

using testing::running_example_model;
using testing::running_example_sequence;

constexpr double kTol = 1e-9;

TEST(RunningExample, JaccardIsThreeSevenths) {
  const RequestSequence seq = running_example_sequence();
  const CorrelationAnalysis analysis(seq);
  EXPECT_EQ(seq.item_frequency(0), 5u);
  EXPECT_EQ(seq.item_frequency(1), 5u);
  EXPECT_EQ(seq.pair_frequency(0, 1), 3u);
  EXPECT_NEAR(analysis.jaccard(0, 1), 3.0 / 7.0, kTol);
}

TEST(RunningExample, PairIsPackedAtThetaPointFour) {
  const RequestSequence seq = running_example_sequence();
  const CorrelationAnalysis analysis(seq);
  const Packing packing = greedy_pairing(analysis, /*theta=*/0.4);
  ASSERT_EQ(packing.pairs.size(), 1u);
  EXPECT_EQ(packing.pairs[0].a, 0u);
  EXPECT_EQ(packing.pairs[0].b, 1u);
  EXPECT_TRUE(packing.singles.empty());
}

// Step 4 of Section V-C: the package requests (0.8, 1.4, 4.0) served by the
// optimal off-line algorithm at the 2α rate.
TEST(RunningExample, PackageDpCostIs896) {
  const RequestSequence seq = running_example_sequence();
  const CostModel model = running_example_model();
  const Flow package = make_package_flow(seq, 0, 1);
  ASSERT_EQ(package.size(), 3u);
  const SolveResult solved =
      solve_optimal_offline(package, model, seq.server_count());
  EXPECT_NEAR(solved.raw_cost, 5.6, kTol);  // 8.96 / (2·0.8)
  EXPECT_NEAR(solved.cost, 8.96, kTol);

  const ValidationResult validation = solved.schedule.validate(package);
  EXPECT_TRUE(validation.ok) << validation.message;
  EXPECT_NEAR(solved.schedule.raw_cost(model), 5.6, kTol);
}

// Steps 5–6: the intermediate per-request costs of the DP for the package.
// The paper's C(0.8)=2.88, C(1.4)=3.84, C(4.0)=8.96 are prefix costs; we
// check them by solving the prefix flows.
TEST(RunningExample, PackageDpPrefixCosts) {
  const RequestSequence seq = running_example_sequence();
  const CostModel model = running_example_model();
  Flow package = make_package_flow(seq, 0, 1);

  Flow prefix1{{package.points[0]}, 2};
  EXPECT_NEAR(solve_optimal_offline(prefix1, model, 4).cost, 2.88, kTol);

  Flow prefix2{{package.points[0], package.points[1]}, 2};
  EXPECT_NEAR(solve_optimal_offline(prefix2, model, 4).cost, 3.84, kTol);
}

// Steps 5–6: greedy service of the single-item requests of the package.
TEST(RunningExample, SingletonGreedyCosts) {
  const RequestSequence seq = running_example_sequence();
  const CostModel model = running_example_model();
  const PackageReport report =
      solve_pair_package(seq, model, ItemPair{0, 1, 3.0 / 7.0});

  // d1: 0.5 served by transfer (1.5), 2.6 by package fetch (2αλ = 1.6).
  // d2: 1.1 served by transfer (1.3), 3.2 by package fetch (1.6).
  ASSERT_EQ(report.services.size(), 4u);
  const auto find_service = [&](ItemId item, Time time) {
    for (const SingletonService& s : report.services) {
      if (s.item == item && s.time == time) return s;
    }
    ADD_FAILURE() << "service not found";
    return SingletonService{};
  };
  const SingletonService d1_first = find_service(0, 0.5);
  EXPECT_EQ(d1_first.choice, ServeChoice::kTransferFromPrev);
  EXPECT_NEAR(d1_first.cost, 1.5, kTol);

  const SingletonService d1_second = find_service(0, 2.6);
  EXPECT_EQ(d1_second.choice, ServeChoice::kPackageFetch);
  EXPECT_NEAR(d1_second.cost, 1.6, kTol);

  const SingletonService d2_first = find_service(1, 1.1);
  EXPECT_EQ(d2_first.choice, ServeChoice::kTransferFromPrev);
  EXPECT_NEAR(d2_first.cost, 1.3, kTol);

  const SingletonService d2_second = find_service(1, 3.2);
  EXPECT_EQ(d2_second.choice, ServeChoice::kPackageFetch);
  EXPECT_NEAR(d2_second.cost, 1.6, kTol);

  EXPECT_NEAR(report.singleton_cost, 3.1 + 2.9, kTol);
  EXPECT_NEAR(report.package_cost, 8.96, kTol);
  EXPECT_NEAR(report.total_cost(), 14.96, kTol);
}

// Step 7: the grand total 14.96 and the ave_cost of Algorithm 1.
TEST(RunningExample, EndToEndTotalIs1496) {
  const RequestSequence seq = running_example_sequence();
  const CostModel model = running_example_model();
  DpGreedyOptions options;
  options.theta = 0.4;
  const DpGreedyResult result = solve_dp_greedy(seq, model, options);

  ASSERT_EQ(result.packages.size(), 1u);
  EXPECT_TRUE(result.singles.empty());
  EXPECT_NEAR(result.total_cost, 14.96, kTol);
  EXPECT_EQ(result.total_item_accesses, 10u);
  EXPECT_NEAR(result.ave_cost, 1.496, kTol);
}

}  // namespace
}  // namespace dpg
