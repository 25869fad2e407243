// Unit tests for flow extraction.
#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "util/error.hpp"

namespace dpg {
namespace {

RequestSequence sample() {
  return RequestSequence(
      3, 3,
      {RequestDraft{0, 1.0, {0, 1}}, RequestDraft{1, 2.0, {1}}, RequestDraft{2, 3.0, {0, 1}},
       RequestDraft{1, 4.0, {2}}, RequestDraft{0, 5.0, {0, 1, 2}}});
}

TEST(Flow, ItemFlowPicksContainingRequests) {
  const Flow flow = make_item_flow(sample(), 0);
  ASSERT_EQ(flow.size(), 3u);
  EXPECT_EQ(flow.points[0].time, 1.0);
  EXPECT_EQ(flow.points[1].time, 3.0);
  EXPECT_EQ(flow.points[2].time, 5.0);
  EXPECT_EQ(flow.points[1].server, 2u);
  EXPECT_EQ(flow.group_size, 1u);
}

TEST(Flow, PackageFlowRequiresBothItems) {
  const Flow flow = make_package_flow(sample(), 0, 1);
  ASSERT_EQ(flow.size(), 3u);
  EXPECT_EQ(flow.group_size, 2u);
  EXPECT_EQ(flow.points[0].time, 1.0);
  EXPECT_EQ(flow.points[2].time, 5.0);
}

TEST(Flow, GroupFlowRequiresAllItems) {
  const Flow flow = make_group_flow(sample(), {0, 1, 2});
  ASSERT_EQ(flow.size(), 1u);
  EXPECT_EQ(flow.points[0].time, 5.0);
  EXPECT_EQ(flow.group_size, 3u);
}

TEST(Flow, UnionFlowTakesAnyItem) {
  const Flow flow = make_union_flow(sample(), {0, 2});
  ASSERT_EQ(flow.size(), 4u);  // 1.0, 3.0, 4.0, 5.0
  EXPECT_EQ(flow.points[2].time, 4.0);
  EXPECT_EQ(flow.group_size, 2u);
}

TEST(Flow, SingletonGroupFlowEqualsItemFlow) {
  const Flow a = make_group_flow(sample(), {1});
  const Flow b = make_item_flow(sample(), 1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points[i].time, b.points[i].time);
  }
}

TEST(Flow, EmptyGroupRejected) {
  EXPECT_THROW((void)make_group_flow(sample(), {}), InvalidArgument);
  EXPECT_THROW((void)make_union_flow(sample(), {}), InvalidArgument);
}

TEST(Flow, ValidateCatchesNonIncreasingTimes) {
  Flow flow;
  flow.points.push_back({0, 1.0});
  flow.points.push_back({1, 1.0});
  EXPECT_THROW(validate_flow(flow), InvalidArgument);
  Flow zero;
  zero.points.push_back({0, 0.0});
  EXPECT_THROW(validate_flow(zero), InvalidArgument);
  Flow empty;
  EXPECT_NO_THROW(validate_flow(empty));
}

}  // namespace
}  // namespace dpg
