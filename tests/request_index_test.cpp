// The Section-V pre-scan structures (Fig. 8): Q_j lists and p(i).
#include <gtest/gtest.h>

#include "core/request_index.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

Flow fig8_like_flow() {
  // Servers: 0 (origin), 1, 2, 3; nodes at 0.5@2, 0.8@1, 1.4@0, 2.6@2, 4.0@1.
  Flow flow;
  flow.points.push_back({2, 0.5, 0});
  flow.points.push_back({1, 0.8, 1});
  flow.points.push_back({0, 1.4, 2});
  flow.points.push_back({2, 2.6, 3});
  flow.points.push_back({1, 4.0, 4});
  return flow;
}

TEST(RequestIndex, OriginIsNodeZero) {
  const RequestIndex index(fig8_like_flow(), 4);
  EXPECT_EQ(index.node_count(), 6u);
  EXPECT_EQ(index.server_of(0), kOriginServer);
  EXPECT_EQ(index.time_of(0), 0.0);
}

TEST(RequestIndex, PrevSameServerIsMostRecentStrictlyBefore) {
  const RequestIndex index(fig8_like_flow(), 4);
  // Node 1 (0.5@2) and node 2 (0.8@1) are their servers' first visits.
  EXPECT_EQ(index.prev_same_server(1), RequestIndex::kNone);
  EXPECT_EQ(index.prev_same_server(2), RequestIndex::kNone);
  // Node 4 (2.6@2): server 2 last visited by node 1 (0.5).
  EXPECT_EQ(index.prev_same_server(4), 1);
  // Node 5 (4.0@1): p(i) is node 2 (0.8@1).
  EXPECT_EQ(index.prev_same_server(5), 2);
}

TEST(RequestIndex, PrevSameServerExcludesTheNodeItself) {
  const RequestIndex index(fig8_like_flow(), 4);
  // Node 3 sits on server 0; its p(i) must be the origin, not itself.
  EXPECT_EQ(index.prev_same_server(3), 0);
}

TEST(RequestIndex, PrevSameServerMatchesABackwardScan) {
  // p(i) is read off the Q_j lists; check it against the definition — the
  // nearest earlier node on the same server — on random flows of 1–200
  // points over 1–8 servers, rebuilding one index in place throughout.
  Rng rng(1515);
  RequestIndex index;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t servers = 1 + rng.next_below(8);
    const std::size_t points = 1 + rng.next_below(200);
    Flow flow;
    Time time = 0.0;
    for (std::size_t p = 0; p < points; ++p) {
      time += rng.next_double(0.1, 1.1);
      flow.points.push_back(
          {static_cast<ServerId>(rng.next_below(servers)), time, p});
    }
    index.rebuild(flow, servers);
    ASSERT_EQ(index.node_count(), points + 1);
    for (std::size_t i = 0; i < index.node_count(); ++i) {
      std::int32_t expected = RequestIndex::kNone;
      for (std::size_t j = i; j-- > 0;) {
        if (index.server_of(j) == index.server_of(i)) {
          expected = static_cast<std::int32_t>(j);
          break;
        }
      }
      ASSERT_EQ(index.prev_same_server(i), expected)
          << "trial " << trial << " node " << i;
    }
  }
}

TEST(RequestIndex, QueueLinksWalkPerServerHistory) {
  const RequestIndex index(fig8_like_flow(), 4);
  // Server 2's queue: node 1 (0.5) then node 4 (2.6).
  EXPECT_EQ(index.q_tail(2), 4);
  EXPECT_EQ(index.q_prev(4), 1);
  EXPECT_EQ(index.q_prev(1), RequestIndex::kNone);
  EXPECT_EQ(index.q_next(1), 4);
  EXPECT_EQ(index.q_next(4), RequestIndex::kNone);
  // Server 0's queue: origin (node 0) then node 3 (1.4).
  EXPECT_EQ(index.q_tail(0), 3);
  EXPECT_EQ(index.q_prev(3), 0);
  // Server 3 never visited.
  EXPECT_EQ(index.q_tail(3), RequestIndex::kNone);
}

TEST(RequestIndex, RejectsBadInputs) {
  EXPECT_THROW(RequestIndex(fig8_like_flow(), 0), InvalidArgument);
  EXPECT_THROW(RequestIndex(fig8_like_flow(), 2),  // server 3 out of range
               InvalidArgument);
  Flow bad;
  bad.points.push_back({0, 2.0, 0});
  bad.points.push_back({0, 1.0, 1});
  EXPECT_THROW(RequestIndex(bad, 1), InvalidArgument);
}

TEST(RequestIndex, EmptyFlowHasJustTheOrigin) {
  const RequestIndex index(Flow{}, 3);
  EXPECT_EQ(index.node_count(), 1u);
  EXPECT_EQ(index.q_tail(0), 0);
  EXPECT_EQ(index.prev_same_server(0), RequestIndex::kNone);
}

}  // namespace
}  // namespace dpg
