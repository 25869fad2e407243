// Unit tests for the Optimal (non-packing) and Package_Served baselines.
#include <gtest/gtest.h>

#include "parallel/thread_pool.hpp"
#include "solver/baselines.hpp"
#include "solver/optimal_offline.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-9;

TEST(OptimalBaseline, SumsPerItemDpCosts) {
  Rng rng(3);
  const RequestSequence seq = testing::random_sequence(rng, 80, 4, 5, 0.4);
  const CostModel model{1.0, 1.0, 0.8};
  const OptimalBaselineResult result = solve_optimal_baseline(seq, model);
  Cost expected = 0.0;
  for (ItemId item = 0; item < 5; ++item) {
    expected +=
        solve_optimal_offline(make_item_flow(seq, item), model, 4).cost;
  }
  EXPECT_NEAR(result.total_cost, expected, kTol);
  EXPECT_EQ(result.items.size(), 5u);
}

TEST(OptimalBaseline, PairAveCostMatchesManualAggregate) {
  const RequestSequence seq = testing::running_example_sequence();
  const CostModel model = testing::running_example_model();
  const OptimalBaselineResult result = solve_optimal_baseline(seq, model);
  const double manual =
      (result.items[0].cost + result.items[1].cost) /
      static_cast<double>(seq.item_frequency(0) + seq.item_frequency(1));
  EXPECT_NEAR(result.pair_ave_cost(0, 1), manual, kTol);
}

TEST(OptimalBaseline, ParallelMatchesSerial) {
  Rng rng(6);
  const RequestSequence seq = testing::random_sequence(rng, 150, 5, 8, 0.3);
  const CostModel model{2.0, 3.0, 0.7};
  ThreadPool pool(3);
  const auto serial = solve_optimal_baseline(seq, model);
  const auto parallel = solve_optimal_baseline(seq, model, {}, &pool);
  EXPECT_NEAR(serial.total_cost, parallel.total_cost, kTol);
}

TEST(PackageServed, UnionFlowCoversEveryTouchingRequest) {
  const RequestSequence seq = testing::running_example_sequence();
  const Flow flow = make_union_flow(seq, {0, 1});
  EXPECT_EQ(flow.size(), seq.size());  // every request touches d1 or d2
  EXPECT_EQ(flow.group_size, 2u);
}

TEST(PackageServed, CostIsDiscountedDpOverUnionFlow) {
  const RequestSequence seq = testing::running_example_sequence();
  const CostModel model = testing::running_example_model();
  const PackageServedPair pair =
      solve_pair_package_served(seq, model, ItemPair{0, 1, 3.0 / 7.0});
  const Flow flow = make_union_flow(seq, {0, 1});
  const SolveResult direct = solve_optimal_offline(flow, model, 4);
  EXPECT_NEAR(pair.cost, direct.cost, kTol);
  EXPECT_NEAR(pair.cost, 2.0 * model.alpha * direct.raw_cost, kTol);
  EXPECT_EQ(pair.total_accesses, 10u);
}

TEST(PackageServed, InclusiveThresholdPacksBoundaryPairs) {
  // A pair with J exactly equal to θ: Package_Served (inclusive) packs it.
  SequenceBuilder builder(2, 2);
  Time t = 0.0;
  builder.add(0, t += 1.0, {0, 1});
  builder.add(0, t += 1.0, {0});
  builder.add(0, t += 1.0, {1});  // J = 1/3
  const RequestSequence seq = std::move(builder).build();
  const CostModel model{1.0, 1.0, 0.8};
  const PackageServedResult result =
      solve_package_served(seq, model, 1.0 / 3.0);
  EXPECT_EQ(result.pairs.size(), 1u);
}

TEST(PackageServed, WholeTraceDecomposition) {
  Rng rng(15);
  const RequestSequence seq = testing::random_sequence(rng, 120, 4, 6, 0.6);
  const CostModel model{1.0, 1.0, 0.4};
  const PackageServedResult result = solve_package_served(seq, model, 0.1);
  Cost manual = 0.0;
  for (const PackageServedPair& p : result.pairs) manual += p.cost;
  for (const SingleItemReport& s : result.singles) manual += s.cost;
  EXPECT_NEAR(result.total_cost, manual, kTol);
  // The packing partitions the items.
  EXPECT_EQ(result.pairs.size() * 2 + result.singles.size(), 6u);
}

TEST(PackageServed, SmallAlphaBeatsOptimalOnFullyCorrelatedTrace) {
  // When every request asks for both items and α is small, always-packing
  // is strictly better than the non-packing Optimal.
  SequenceBuilder builder(3, 2);
  Rng rng(44);
  Time t = 0.0;
  for (int i = 0; i < 60; ++i) {
    builder.add(static_cast<ServerId>(rng.next_below(3)), t += 0.5, {0, 1});
  }
  const RequestSequence seq = std::move(builder).build();
  const CostModel model{1.0, 1.0, 0.2};
  const PackageServedResult packed = solve_package_served(seq, model, 0.5);
  const OptimalBaselineResult optimal = solve_optimal_baseline(seq, model);
  ASSERT_EQ(packed.pairs.size(), 1u);
  EXPECT_LT(packed.total_cost, optimal.total_cost);
  // And the relation flips for α close to 1 only in the presence of
  // single-item requests; fully co-accessed traces keep packing ahead:
  const CostModel big_alpha{1.0, 1.0, 1.0};
  const PackageServedResult packed_big =
      solve_package_served(seq, big_alpha, 0.5);
  const OptimalBaselineResult optimal_big =
      solve_optimal_baseline(seq, big_alpha);
  EXPECT_LE(packed_big.total_cost, optimal_big.total_cost + kTol);
}

}  // namespace
}  // namespace dpg
