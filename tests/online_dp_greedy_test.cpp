// Tests for the online DP_Greedy extension.
#include <gtest/gtest.h>

#include "solver/dp_greedy.hpp"
#include "solver/online.hpp"
#include "solver/online_dp_greedy.hpp"
#include "solver/online_state.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-9;

TEST(OnlineDpGreedy, DeterministicPerInput) {
  Rng rng(5);
  const RequestSequence seq = testing::random_sequence(rng, 300, 5, 6, 0.5);
  const CostModel model{1.0, 2.0, 0.8};
  const OnlineDpGreedyResult a = solve_online_dp_greedy(seq, model);
  const OnlineDpGreedyResult b = solve_online_dp_greedy(seq, model);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.pack_events, b.pack_events);
}

TEST(OnlineDpGreedy, ThetaOneNeverPacksAndMatchesPerItemBreakEven) {
  Rng rng(9);
  const RequestSequence seq = testing::random_sequence(rng, 250, 4, 5, 0.5);
  const CostModel model{1.0, 1.5, 0.8};
  OnlineDpGreedyOptions options;
  options.theta = 1.0;  // windowed J can never strictly exceed 1
  const OnlineDpGreedyResult online = solve_online_dp_greedy(seq, model, options);
  EXPECT_EQ(online.pack_events, 0u);

  Cost expected = 0.0;
  for (ItemId item = 0; item < seq.item_count(); ++item) {
    expected += solve_online_break_even(make_item_flow(seq, item), model,
                                        seq.server_count())
                    .raw_cost;
  }
  EXPECT_NEAR(online.total_cost, expected, kTol);
}

TEST(OnlineDpGreedy, PacksStronglyCorrelatedPairs) {
  // Two items always requested together: the windowed J hits 1 quickly.
  SequenceBuilder builder(4, 2);
  Rng rng(3);
  Time t = 0.0;
  for (int i = 0; i < 300; ++i) {
    builder.add(static_cast<ServerId>(rng.next_below(4)), t += 0.5, {0, 1});
  }
  const RequestSequence seq = std::move(builder).build();
  const CostModel model{1.0, 2.0, 0.4};
  OnlineDpGreedyOptions options;
  options.theta = 0.5;
  const OnlineDpGreedyResult online = solve_online_dp_greedy(seq, model, options);
  EXPECT_GE(online.pack_events, 1u);
  EXPECT_EQ(online.unpack_events, 0u);

  // With a deep discount, packing online must beat never-packing online.
  OnlineDpGreedyOptions never;
  never.theta = 1.0;
  const OnlineDpGreedyResult unpacked = solve_online_dp_greedy(seq, model, never);
  EXPECT_LT(online.total_cost, unpacked.total_cost);
}

TEST(OnlineDpGreedy, NeverBelowThePackedModelLowerBound) {
  // Any feasible service (online included) costs at least α·Σ C_iopt
  // (Lemma 1's bound applies to every schedule of the packed model).
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const RequestSequence seq = testing::random_sequence(rng, 150, 4, 4, 0.6);
    const CostModel model{1.0, 2.0, 0.7};
    const OnlineDpGreedyResult online = solve_online_dp_greedy(seq, model);
    Cost bound = 0.0;
    for (ItemId item = 0; item < seq.item_count(); ++item) {
      bound += solve_optimal_offline(make_item_flow(seq, item), model,
                                     seq.server_count())
                   .raw_cost;
    }
    ASSERT_GE(online.total_cost, model.alpha * bound - kTol);
  }
}

TEST(OnlineDpGreedy, UnpacksWhenCorrelationDecays) {
  // First half: items 0,1 co-requested; second half: strictly separate and
  // spatially divergent.
  SequenceBuilder builder(6, 2);
  Rng rng(7);
  Time t = 0.0;
  for (int i = 0; i < 200; ++i) {
    builder.add(static_cast<ServerId>(rng.next_below(6)), t += 0.5, {0, 1});
  }
  for (int i = 0; i < 200; ++i) {
    const bool first = rng.next_bool(0.5);
    builder.add(first ? 0 : 5, t += 0.5,
                {first ? ItemId{0} : ItemId{1}});
  }
  const RequestSequence seq = std::move(builder).build();
  const CostModel model{1.0, 2.0, 0.6};
  OnlineDpGreedyOptions options;
  options.theta = 0.5;
  options.window = 100;
  const OnlineDpGreedyResult online = solve_online_dp_greedy(seq, model, options);
  EXPECT_GE(online.pack_events, 1u);
  EXPECT_GE(online.unpack_events, 1u);
}

// The epoch's dissolve rule, one branch at a time: θ = 0.5 packs a pair
// above J = 0.5 and splits it below J = 0.25, with a window of four rows
// and an epoch every fourth push.
OnlineDpGreedyOptions hysteresis_options(double theta) {
  OnlineDpGreedyOptions options;
  options.theta = theta;
  options.window = 4;
  options.repack_interval = 4;
  return options;
}

/// Pushes one epoch of rows at server 0, one time unit apart after `t`;
/// returns the epoch's decision (the last push's).
OnlineDpGreedyState::Decision push_epoch(
    OnlineDpGreedyState& state, Time& t,
    std::initializer_list<std::vector<ItemId>> rows) {
  OnlineDpGreedyState::Decision last;
  for (const std::vector<ItemId>& row : rows) {
    last = state.push(0, t += 1.0, row);
  }
  return last;
}

TEST(OnlineDpGreedyState, PackageInTheHysteresisBandSurvivesAnEpoch) {
  const CostModel model{1.0, 1.0, 0.8};
  OnlineDpGreedyState state(model, hysteresis_options(0.5), 3);
  Time t = 0.0;
  EXPECT_EQ(push_epoch(state, t, {{0, 1}, {0, 1}, {0, 1}, {0, 1}}).pack_events,
            1u);
  // The window now holds {0,1}, {0}, {1}, {2}: the pair still co-occurs,
  // at J = 1/3, below θ but not below θ/2.
  const OnlineDpGreedyState::Decision epoch =
      push_epoch(state, t, {{0, 1}, {0}, {1}, {2}});
  EXPECT_TRUE(epoch.repacked);
  EXPECT_EQ(state.window().co_frequency(0, 1), 1u);
  EXPECT_EQ(state.window().jaccard(0, 1), 1.0 / 3.0);
  EXPECT_EQ(epoch.unpack_events, 0u);
  EXPECT_EQ(state.live_packages(), 1u);
}

TEST(OnlineDpGreedyState, PackageThatLeftTheWindowSplitsOnlyAboveThetaZero) {
  const CostModel model{1.0, 1.0, 0.8};
  for (const double theta : {0.5, 0.0}) {
    OnlineDpGreedyState state(model, hysteresis_options(theta), 3);
    Time t = 0.0;
    EXPECT_EQ(
        push_epoch(state, t, {{0, 1}, {0, 1}, {0, 1}, {0, 1}}).pack_events,
        1u)
        << "theta=" << theta;
    // An epoch that reads the live pair at J = 1 first, so the J read
    // below is the current window's, not one an earlier epoch left.
    EXPECT_EQ(
        push_epoch(state, t, {{0, 1}, {0, 1}, {0, 1}, {0, 1}}).unpack_events,
        0u);
    // No row of the window holds both items, so the pair is absent from
    // the window's pair counts and reads J = 0: below θ/2 = 0.25, and not
    // below θ/2 = 0.
    const OnlineDpGreedyState::Decision epoch =
        push_epoch(state, t, {{0}, {2}, {2}, {2}});
    EXPECT_TRUE(epoch.repacked);
    EXPECT_EQ(state.window().co_frequency(0, 1), 0u);
    EXPECT_EQ(state.window().jaccard(0, 1), 0.0);
    const std::size_t splits = theta > 0.0 ? 1u : 0u;
    EXPECT_EQ(epoch.unpack_events, splits) << "theta=" << theta;
    EXPECT_EQ(state.live_packages(), 1u - splits) << "theta=" << theta;
  }
}

TEST(OnlineDpGreedy, ValidatesOptions) {
  const RequestSequence seq = testing::running_example_sequence();
  const CostModel model = testing::running_example_model();
  OnlineDpGreedyOptions bad_theta;
  bad_theta.theta = 2.0;
  EXPECT_THROW((void)solve_online_dp_greedy(seq, model, bad_theta),
               InvalidArgument);
  OnlineDpGreedyOptions bad_window;
  bad_window.window = 0;
  EXPECT_THROW((void)solve_online_dp_greedy(seq, model, bad_window),
               InvalidArgument);
}

TEST(OnlineDpGreedy, ReportsAccessAccounting) {
  const RequestSequence seq = testing::running_example_sequence();
  const CostModel model = testing::running_example_model();
  const OnlineDpGreedyResult online = solve_online_dp_greedy(seq, model);
  EXPECT_EQ(online.total_item_accesses, 10u);
  EXPECT_NEAR(online.ave_cost * 10.0, online.total_cost, kTol);
}

}  // namespace
}  // namespace dpg
