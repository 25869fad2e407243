// Determinism of the parallel Phase-2 fan-out: solve_dp_greedy over a
// ThreadPool must be bit-identical to the serial path — same total cost,
// same packing, same per-package/per-single schedules — because packages
// are independent and each worker chunk only touches its own slots.
#include <gtest/gtest.h>

#include "parallel/thread_pool.hpp"
#include "solver/dp_greedy.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

/// A flow with service points is never served by an empty schedule, so an
/// empty one would mean the solve dropped its plan and the comparison below
/// compared nothing.
void expect_kept(const Schedule& schedule, std::size_t service_points) {
  if (service_points == 0) return;
  ASSERT_FALSE(schedule.segments().empty() && schedule.transfers().empty())
      << "a flow of " << service_points << " points has an empty schedule";
}

void expect_same_result(const DpGreedyResult& serial,
                        const DpGreedyResult& pooled) {
  // Bit-identical totals: the same doubles summed in the same order.
  ASSERT_EQ(serial.total_cost, pooled.total_cost);
  ASSERT_EQ(serial.ave_cost, pooled.ave_cost);

  ASSERT_EQ(serial.packing.pairs.size(), pooled.packing.pairs.size());
  for (std::size_t i = 0; i < serial.packing.pairs.size(); ++i) {
    ASSERT_EQ(serial.packing.pairs[i].a, pooled.packing.pairs[i].a);
    ASSERT_EQ(serial.packing.pairs[i].b, pooled.packing.pairs[i].b);
    ASSERT_EQ(serial.packing.pairs[i].jaccard, pooled.packing.pairs[i].jaccard);
  }
  ASSERT_EQ(serial.packing.singles, pooled.packing.singles);

  ASSERT_EQ(serial.packages.size(), pooled.packages.size());
  for (std::size_t i = 0; i < serial.packages.size(); ++i) {
    const PackageReport& s = serial.packages[i];
    const PackageReport& p = pooled.packages[i];
    ASSERT_EQ(s.package_cost, p.package_cost);
    ASSERT_EQ(s.singleton_cost, p.singleton_cost);
    ASSERT_EQ(s.co_request_count, p.co_request_count);
    ASSERT_EQ(s.services.size(), p.services.size());
    for (std::size_t j = 0; j < s.services.size(); ++j) {
      ASSERT_EQ(s.services[j].time, p.services[j].time);
      ASSERT_EQ(s.services[j].choice, p.services[j].choice);
      ASSERT_EQ(s.services[j].cost, p.services[j].cost);
    }
    expect_kept(s.package_schedule, s.co_request_count);
    expect_kept(p.package_schedule, p.co_request_count);
    testing::expect_same_schedule(s.package_schedule, p.package_schedule);
  }

  ASSERT_EQ(serial.singles.size(), pooled.singles.size());
  for (std::size_t i = 0; i < serial.singles.size(); ++i) {
    ASSERT_EQ(serial.singles[i].item, pooled.singles[i].item);
    ASSERT_EQ(serial.singles[i].cost, pooled.singles[i].cost);
    expect_kept(serial.singles[i].schedule, serial.singles[i].accesses);
    expect_kept(pooled.singles[i].schedule, pooled.singles[i].accesses);
    testing::expect_same_schedule(serial.singles[i].schedule,
                         pooled.singles[i].schedule);
  }
}

TEST(Determinism, PooledDpGreedyMatchesSerialBitForBit) {
  ThreadPool pool(4);
  const CostModel model{1.0, 1.5, 0.8};
  // θ = 0.2 forms no package on these traces; θ = 0 packs every co-accessed
  // pair, so the package schedules and singleton decisions are compared too.
  for (const double theta : {0.2, 0.0}) {
    for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
      Rng rng(seed);
      const RequestSequence seq =
          testing::random_sequence(rng, 600, 8, 20, 0.5);

      DpGreedyOptions serial_options;
      serial_options.theta = theta;
      DpGreedyOptions pooled_options = serial_options;
      pooled_options.pool = &pool;

      const DpGreedyResult serial = solve_dp_greedy(seq, model, serial_options);
      const DpGreedyResult pooled = solve_dp_greedy(seq, model, pooled_options);
      if (theta == 0.0) {
        ASSERT_FALSE(serial.packages.empty());
      }
      expect_same_result(serial, pooled);
    }
  }
}

TEST(Determinism, SparseModeWithPoolMatchesSerialDense) {
  // The strongest cross-cut: sparse sharded Phase 1 + pooled Phase 2 against
  // dense serial everything.
  ThreadPool pool(3);
  const CostModel model{1.0, 1.0, 0.8};
  for (const std::uint64_t seed : {5ull, 6ull, 7ull}) {
    Rng rng(seed);
    const RequestSequence seq =
        testing::random_sequence(rng, 500, 6, 16, 0.6);

    DpGreedyOptions dense_serial;
    dense_serial.theta = 0.25;
    dense_serial.correlation.mode = CorrelationOptions::Mode::kDense;

    DpGreedyOptions sparse_pooled;
    sparse_pooled.theta = 0.25;
    sparse_pooled.correlation.mode = CorrelationOptions::Mode::kSparse;
    sparse_pooled.pool = &pool;

    const DpGreedyResult a = solve_dp_greedy(seq, model, dense_serial);
    const DpGreedyResult b = solve_dp_greedy(seq, model, sparse_pooled);
    expect_same_result(a, b);
  }
}

TEST(Determinism, RepeatedPooledRunsAreIdentical) {
  ThreadPool pool(4);
  const CostModel model{1.0, 2.0, 0.7};
  Rng rng(99);
  const RequestSequence seq = testing::random_sequence(rng, 400, 5, 12, 0.5);
  DpGreedyOptions options;
  options.theta = 0.3;
  options.pool = &pool;
  const DpGreedyResult first = solve_dp_greedy(seq, model, options);
  for (int run = 0; run < 3; ++run) {
    expect_same_result(first, solve_dp_greedy(seq, model, options));
  }
}

}  // namespace
}  // namespace dpg
