// Schedule costing, feasibility validation, and the golden costs of the
// paper's Fig. 1 and Fig. 2 example schedules.
#include <gtest/gtest.h>

#include "core/schedule.hpp"
#include "util/error.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-9;

TEST(Schedule, CacheTimeUnionsOverlapsPerServer) {
  Schedule s;
  s.add_segment(0, 0.0, 2.0);
  s.add_segment(0, 1.0, 3.0);   // overlaps -> union [0,3]
  s.add_segment(1, 1.0, 2.0);   // disjoint server
  EXPECT_NEAR(s.total_cache_time(), 4.0, kTol);
}

TEST(Schedule, ZeroLengthSegmentsAreDropped) {
  Schedule s;
  s.add_segment(0, 1.0, 1.0);
  EXPECT_TRUE(s.segments().empty());
}

TEST(Schedule, RejectsIllFormedPieces) {
  Schedule s;
  EXPECT_THROW(s.add_segment(0, 2.0, 1.0), InvalidArgument);
  EXPECT_THROW(s.add_segment(0, -1.0, 1.0), InvalidArgument);
  EXPECT_THROW(s.add_transfer(1, 1, 1.0), InvalidArgument);
  EXPECT_THROW(s.add_transfer(0, 1, -1.0), InvalidArgument);
}

TEST(ScheduleCounter, CountsWhatTheScheduleKeepsAndRejectsTheSame) {
  Schedule s;
  ScheduleCounter c;
  const auto both = [&](auto add) {
    add(s);
    add(c);
  };
  both([](auto& out) { out.add_segment(0, 0.0, 2.0); });
  both([](auto& out) { out.add_segment(1, 1.0, 1.0); });  // zero length
  both([](auto& out) { out.add_transfer(0, 1, 1.0); });
  both([](auto& out) { out.add_segment(1, 1.0, 3.0); });
  EXPECT_EQ(c.counts().segments, s.counts().segments);
  EXPECT_EQ(c.counts().transfers, s.counts().transfers);
  EXPECT_EQ(c.counts().segments, 2u);
  EXPECT_EQ(c.counts().transfers, 1u);

  EXPECT_THROW(c.add_segment(0, 2.0, 1.0), InvalidArgument);
  EXPECT_THROW(c.add_segment(0, -1.0, 1.0), InvalidArgument);
  EXPECT_THROW(c.add_transfer(1, 1, 1.0), InvalidArgument);
  EXPECT_THROW(c.add_transfer(0, 1, -1.0), InvalidArgument);
  EXPECT_EQ(c.counts().segments, 2u);
  EXPECT_EQ(c.counts().transfers, 1u);
}

// Fig. 1: single item, cache intervals of lengths 1.4 + 3.5 + 0.3 and four
// transfers: C = (1.4+3.5+0.3)μ + 4λ.
TEST(ScheduleGolden, Figure1Cost) {
  const CostModel model{1.0, 1.0, 0.8};
  Schedule s(1);
  s.add_segment(0, 0.0, 1.4);
  s.add_segment(1, 1.0, 4.5);
  s.add_segment(2, 4.2, 4.5);
  s.add_transfer(0, 1, 1.0);
  s.add_transfer(0, 3, 1.4);
  s.add_transfer(1, 2, 4.2);
  s.add_transfer(1, 3, 4.5);
  EXPECT_NEAR(s.raw_cost(model), (1.4 + 3.5 + 0.3) + 4.0, kTol);
  EXPECT_NEAR(s.cost(model), s.raw_cost(model), kTol);  // single item
}

// Fig. 2: a package schedule ((0.8+3.2)μ + 2λ)·2α plus individual services
// (0.5+0.3+1.2+1.8)μ + 4λ.
TEST(ScheduleGolden, Figure2Cost) {
  const CostModel model{1.0, 1.0, 0.8};
  Schedule package(2);
  package.add_segment(0, 0.0, 0.8);
  package.add_segment(1, 0.8, 4.0);
  package.add_transfer(0, 1, 0.8);
  package.add_transfer(1, 0, 1.4);
  EXPECT_NEAR(package.cost(model), ((0.8 + 3.2) + 2.0) * 2.0 * 0.8, kTol);

  Schedule singles(1);
  singles.add_segment(0, 0.0, 0.5);
  singles.add_segment(1, 0.8, 1.1);
  singles.add_segment(1, 1.4, 2.6);
  singles.add_segment(1, 1.4, 3.2);
  singles.add_transfer(0, 2, 0.5);
  singles.add_transfer(1, 3, 1.1);
  singles.add_transfer(1, 2, 2.6);
  singles.add_transfer(1, 2, 3.2);
  // (0.5 + 0.3 + 1.8)μ with the [1.4,2.6] line inside [1.4,3.2]... the
  // paper's figure draws separate per-item lines; price them separately:
  Schedule d1_line(1);
  d1_line.add_segment(1, 1.4, 2.6);
  Schedule d2_line(1);
  d2_line.add_segment(1, 1.4, 3.2);
  const double individual_cache = 0.5 + 0.3 + 1.2 + 1.8;
  EXPECT_NEAR(0.5 + 0.3 + d1_line.total_cache_time() + d2_line.total_cache_time(),
              individual_cache, kTol);
  const double total =
      ((0.8 + 3.2) + 2.0) * 2.0 * 0.8 + individual_cache + 4.0;
  EXPECT_NEAR(package.cost(model) + individual_cache + 4.0 * model.lambda,
              total, kTol);
}

TEST(ScheduleValidate, AcceptsGroundedChain) {
  Schedule s;
  s.add_segment(0, 0.0, 1.0);
  s.add_transfer(0, 1, 1.0);
  s.add_segment(1, 1.0, 2.0);
  Flow flow;
  flow.points.push_back({1, 2.0, 0});
  const ValidationResult v = s.validate(flow);
  EXPECT_TRUE(v.ok) << v.message;
}

TEST(ScheduleValidate, RejectsUngroundedSegment) {
  Schedule s;
  s.add_segment(2, 1.0, 2.0);  // no copy ever reached server 2
  Flow flow;
  flow.points.push_back({2, 2.0, 0});
  const ValidationResult v = s.validate(flow);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.message.find("ungrounded cache segment"), std::string::npos);
}

TEST(ScheduleValidate, RejectsUngroundedTransfer) {
  Schedule s;
  s.add_transfer(1, 2, 1.0);  // nothing at server 1 at t=1
  const ValidationResult v = s.validate(Flow{});
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.message.find("ungrounded transfer"), std::string::npos);
}

TEST(ScheduleValidate, RejectsUncoveredServicePoint) {
  Schedule s;
  s.add_segment(0, 0.0, 1.0);
  Flow flow;
  flow.points.push_back({1, 0.5, 0});
  const ValidationResult v = s.validate(flow);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.message.find("not covered"), std::string::npos);
}

TEST(ScheduleValidate, ResolvesSameInstantChains) {
  // transfer 0->1 at t=1, then 1->2 at t=1, then a segment at server 2
  // starting t=1: all at the same instant, grounded transitively.
  Schedule s;
  s.add_segment(0, 0.0, 1.0);
  s.add_transfer(0, 1, 1.0);
  s.add_transfer(1, 2, 1.0);
  s.add_segment(2, 1.0, 3.0);
  Flow flow;
  flow.points.push_back({2, 3.0, 0});
  const ValidationResult v = s.validate(flow);
  EXPECT_TRUE(v.ok) << v.message;
}

TEST(ScheduleValidate, OriginPointOnlyCoversTimeZero) {
  Schedule s;  // empty schedule
  Flow flow;
  flow.points.push_back({kOriginServer, 1.0, 0});
  const ValidationResult v = s.validate(flow);
  EXPECT_FALSE(v.ok);  // the copy is not held at the origin past t=0
}

TEST(Schedule, AppendMergesPieces) {
  Schedule a;
  a.add_segment(0, 0.0, 1.0);
  Schedule b;
  b.add_transfer(0, 1, 1.0);
  a.append(b);
  EXPECT_EQ(a.segments().size(), 1u);
  EXPECT_EQ(a.transfers().size(), 1u);
}

TEST(Schedule, RenderShowsLanes) {
  Schedule s;
  s.add_segment(0, 0.0, 1.0);
  s.add_transfer(0, 1, 1.0);
  const std::string art = s.render(2);
  EXPECT_NE(art.find("s0 |"), std::string::npos);
  EXPECT_NE(art.find('='), std::string::npos);
  EXPECT_NE(art.find('*'), std::string::npos);
}

}  // namespace
}  // namespace dpg
