// Tests for schedule CSV/DOT export.
#include <gtest/gtest.h>

#include "core/schedule_export.hpp"
#include "util/error.hpp"

namespace dpg {
namespace {

Schedule sample_schedule() {
  Schedule s(2);
  s.add_segment(0, 0.0, 1.4);
  s.add_segment(1, 0.8, 4.0);
  s.add_transfer(0, 1, 0.8);
  return s;
}

TEST(ScheduleExport, CsvRoundTripPreservesStructure) {
  const Schedule original = sample_schedule();
  const Schedule restored = schedule_from_csv(schedule_to_csv(original), 2);
  ASSERT_EQ(restored.segments().size(), original.segments().size());
  ASSERT_EQ(restored.transfers().size(), original.transfers().size());
  for (std::size_t i = 0; i < original.segments().size(); ++i) {
    EXPECT_EQ(restored.segments()[i].server, original.segments()[i].server);
    EXPECT_DOUBLE_EQ(restored.segments()[i].begin, original.segments()[i].begin);
    EXPECT_DOUBLE_EQ(restored.segments()[i].end, original.segments()[i].end);
  }
  EXPECT_EQ(restored.transfers()[0].from, 0u);
  EXPECT_EQ(restored.transfers()[0].to, 1u);
  EXPECT_EQ(restored.group_size(), 2u);
  const CostModel model{1, 1, 0.8};
  EXPECT_DOUBLE_EQ(restored.cost(model), original.cost(model));
}

TEST(ScheduleExport, CsvRejectsUnknownKind) {
  EXPECT_THROW(
      (void)schedule_from_csv("kind,server,from,begin,end\nwarp,0,,1,2\n"),
      IoError);
}

TEST(ScheduleExport, DotContainsEveryPiece) {
  Flow flow;
  flow.points.push_back({1, 0.8});
  const std::string dot = schedule_to_dot(sample_schedule(), flow, "demo");
  EXPECT_NE(dot.find("digraph \"demo\""), std::string::npos);
  EXPECT_NE(dot.find("cache 1.400"), std::string::npos);
  EXPECT_NE(dot.find("cache 3.200"), std::string::npos);
  EXPECT_NE(dot.find("transfer"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);  // service point
  EXPECT_EQ(dot.back(), '\n');
}

TEST(ScheduleExport, EmptyScheduleRoundTrips) {
  const Schedule empty;
  const Schedule restored = schedule_from_csv(schedule_to_csv(empty));
  EXPECT_TRUE(restored.segments().empty());
  EXPECT_TRUE(restored.transfers().empty());
}

}  // namespace
}  // namespace dpg
