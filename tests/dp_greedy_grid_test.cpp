// Parameterized consistency grid for DP_Greedy across (θ, α, λ) — the
// bookkeeping identities every configuration must satisfy.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "solver/dp_greedy.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

class DpGreedyGrid
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(DpGreedyGrid, AccountingIdentitiesHold) {
  const auto [theta, alpha, lambda] = GetParam();
  Rng rng(0x9E3779B9);
  const CostModel model{1.0, lambda, alpha};
  DpGreedyOptions options;
  options.theta = theta;
  for (int trial = 0; trial < 5; ++trial) {
    const RequestSequence seq = testing::random_sequence(rng, 120, 5, 6, 0.5);
    const DpGreedyResult result = solve_dp_greedy(seq, model, options);

    // 1) Total decomposes exactly into package + single parts.
    Cost sum = 0.0;
    for (const PackageReport& p : result.packages) sum += p.total_cost();
    for (const SingleItemReport& s : result.singles) sum += s.cost;
    ASSERT_NEAR(result.total_cost, sum, 1e-9);

    // 2) ave_cost is total over Σ|d_i|.
    ASSERT_EQ(result.total_item_accesses, seq.total_item_accesses());
    ASSERT_NEAR(result.ave_cost * static_cast<double>(result.total_item_accesses),
                result.total_cost, 1e-9);

    // 3) The packing partitions the item universe.
    std::set<ItemId> seen;
    for (const ItemPair& pair : result.packing.pairs) {
      ASSERT_TRUE(seen.insert(pair.a).second);
      ASSERT_TRUE(seen.insert(pair.b).second);
      ASSERT_GT(pair.jaccard, theta);  // Algorithm 1 line 16 (strict)
    }
    for (const ItemId item : result.packing.singles) {
      ASSERT_TRUE(seen.insert(item).second);
    }
    ASSERT_EQ(seen.size(), seq.item_count());

    // 4) Per-package accounting: accesses and service records line up.
    for (const PackageReport& p : result.packages) {
      ASSERT_EQ(p.total_accesses, seq.item_frequency(p.pair.a) +
                                      seq.item_frequency(p.pair.b));
      // Every singleton service belongs to the pair and its request really
      // contains exactly one of the two items.
      for (const SingletonService& s : p.services) {
        ASSERT_TRUE(s.item == p.pair.a || s.item == p.pair.b);
        const Request r = seq[seq.row_of_event(s.item, s.time)];
        const ItemId other = s.item == p.pair.a ? p.pair.b : p.pair.a;
        ASSERT_TRUE(r.contains(s.item));
        ASSERT_FALSE(r.contains(other));
        ASSERT_GE(s.cost, 0.0);
      }
      // co-requests + singleton services == total accesses.
      ASSERT_EQ(2 * p.co_request_count + p.services.size(), p.total_accesses);
    }

    // 5) Costs are finite and non-negative throughout.
    ASSERT_GE(result.total_cost, 0.0);
    ASSERT_TRUE(std::isfinite(result.total_cost));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DpGreedyGrid,
    ::testing::Combine(::testing::Values(0.0, 0.3, 0.7, 1.0),
                       ::testing::Values(0.2, 0.5, 0.8, 1.0),
                       ::testing::Values(0.25, 1.0, 4.0)));

}  // namespace
}  // namespace dpg
