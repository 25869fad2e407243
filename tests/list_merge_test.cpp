// Phase 2 reads item membership off merged per-item request lists
// (RequestSequence::merge_item_lists) instead of asking each request.  This
// suite checks every list-merge result against a scan of every row written
// here, on random traces shaped to hit the merge's edge cases: rows of 1–4
// items over a 30-item universe, one item that is never requested, and two
// item blocks whose cross pairs never co-occur.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "solver/dp_greedy.hpp"
#include "solver/group_solver.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

constexpr std::size_t kItems = 30;
constexpr ItemId kNeverRequested = 29;

/// Rows of 1–4 items drawn from one of two blocks (items 0–13, 14–28), so
/// no row holds items of both blocks and item 29 appears in no row.
RequestSequence block_trace(std::uint64_t seed, std::size_t rows,
                            std::size_t servers) {
  Rng rng(seed);
  SequenceBuilder builder(servers, kItems);
  Time time = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    time += rng.next_double(0.05, 1.0);
    const bool upper = rng.next_bool(0.5);
    const ItemId base = upper ? 14 : 0;
    const std::uint64_t width = upper ? 15 : 14;
    builder.begin_request(static_cast<ServerId>(rng.next_below(servers)),
                          time);
    const std::uint64_t count = 1 + rng.next_below(4);
    for (std::uint64_t c = 0; c < count; ++c) {
      builder.push_item(base + static_cast<ItemId>(rng.next_below(width)));
    }
    builder.end_request();  // sorts and drops repeats
  }
  return std::move(builder).build();
}

/// How many of `items` request `index` holds, from its own item list.
std::size_t held_by_row(const RequestSequence& seq, std::size_t index,
                        const std::vector<ItemId>& items) {
  const std::span<const ItemId> row = seq.items_of(index);
  return static_cast<std::size_t>(
      std::count_if(items.begin(), items.end(), [&row](ItemId item) {
        return std::find(row.begin(), row.end(), item) != row.end();
      }));
}

/// The flow of every request holding at least `min_held` of `items`
/// (all of them: the intersection; one: the union), by a scan of every row.
Flow scanned_flow(const RequestSequence& seq, const std::vector<ItemId>& items,
                  std::size_t min_held) {
  Flow flow;
  flow.group_size = items.size();
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (held_by_row(seq, i, items) >= min_held) {
      flow.points.push_back({seq.server_of(i), seq.time_of(i), i});
    }
  }
  return flow;
}

void expect_same_flow(const Flow& want, const Flow& got,
                      const std::string& context) {
  EXPECT_EQ(want.group_size, got.group_size) << context;
  ASSERT_EQ(want.size(), got.size()) << context;
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(want.points[p].server, got.points[p].server) << context;
    EXPECT_EQ(want.points[p].time, got.points[p].time) << context;
    EXPECT_EQ(want.points[p].request_index, got.points[p].request_index)
        << context;
  }
}

std::string group_name(const std::vector<ItemId>& items) {
  std::string name = "{";
  for (const ItemId item : items) name += std::to_string(item) + ",";
  return name + "}";
}

/// Random groups of 2–4 distinct items in random order, some spanning both
/// blocks or holding the never-requested item.
std::vector<std::vector<ItemId>> random_groups(Rng& rng, std::size_t count) {
  std::vector<std::vector<ItemId>> groups;
  for (std::size_t g = 0; g < count; ++g) {
    std::vector<ItemId> all(kItems);
    for (std::size_t i = 0; i < kItems; ++i) all[i] = static_cast<ItemId>(i);
    rng.shuffle(std::span<ItemId>(all));
    all.resize(2 + rng.next_below(3));
    groups.push_back(std::move(all));
  }
  return groups;
}

TEST(ListMerge, TracesHitTheEdgeCases) {
  const RequestSequence seq = block_trace(1, 2000, 6);
  EXPECT_EQ(seq.item_frequency(kNeverRequested), 0u);
  EXPECT_EQ(seq.pair_frequency(0, 14), 0u);
  EXPECT_GT(seq.pair_frequency(0, 1), 0u);
}

TEST(ListMerge, PackageFlowsMatchARowScan) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RequestSequence seq = block_trace(seed, 1500, 6);
    Flow reused;  // the in-place builder must reset a used buffer
    for (ItemId a = 0; a < kItems; ++a) {
      for (ItemId b = 0; b < kItems; ++b) {
        if (a == b) continue;
        const std::string context = "seed " + std::to_string(seed) + " {" +
                                    std::to_string(a) + "," +
                                    std::to_string(b) + "}";
        const Flow want = scanned_flow(seq, {a, b}, 2);
        expect_same_flow(want, make_package_flow(seq, a, b), context);
        make_package_flow(seq, a, b, reused);
        expect_same_flow(want, reused, context + " in place");
        EXPECT_EQ(seq.pair_frequency(a, b), want.size()) << context;
      }
    }
  }
}

TEST(ListMerge, GroupFlowsMatchARowScan) {
  Rng rng(77);
  // One group has more items than merge_item_lists keeps on the stack.
  std::vector<ItemId> wide;
  for (ItemId item = 0; item < kItems; item += 2) wide.push_back(item);
  ASSERT_GT(wide.size(), RequestSequence::kInlineMergeItems);
  for (const std::uint64_t seed : {4ull, 5ull}) {
    const RequestSequence seq = block_trace(seed, 1500, 5);
    std::vector<std::vector<ItemId>> groups = random_groups(rng, 300);
    groups.push_back(wide);
    for (const std::vector<ItemId>& group : groups) {
      const std::string context =
          "seed " + std::to_string(seed) + " " + group_name(group);
      expect_same_flow(scanned_flow(seq, group, group.size()),
                       make_group_flow(seq, group), context + " intersection");
      expect_same_flow(scanned_flow(seq, group, 1),
                       make_union_flow(seq, group), context + " union");
    }
  }
}

/// The kernel walk of a package (one merge that builds the flow and makes
/// both items' greedy decisions) against the scalar reference (flow build,
/// then one loop per item asking each request for the partner): costs,
/// decisions, charges, flow and schedule counts must agree bit for bit.
void expect_kernel_walk_matches_scalar(const RequestSequence& seq,
                                       const CostModel& model, ItemId a,
                                       ItemId b, const std::string& context) {
  OptimalOfflineOptions scalar;
  scalar.use_kernels = false;
  const OptimalOfflineOptions kernel;
  const ItemPair pair{a, b, 0.0};
  const PackageReport want = solve_pair_package(seq, model, pair, scalar);
  const PackageReport got = solve_pair_package(seq, model, pair, kernel);
  EXPECT_EQ(want.package_cost, got.package_cost) << context;
  EXPECT_EQ(want.singleton_cost, got.singleton_cost) << context;
  EXPECT_EQ(want.co_request_count, got.co_request_count) << context;
  EXPECT_EQ(want.package_counts.segments, got.package_counts.segments)
      << context;
  EXPECT_EQ(want.package_counts.transfers, got.package_counts.transfers)
      << context;
  expect_same_flow(want.package_flow, got.package_flow, context + " flow");
  ASSERT_EQ(want.services.size(), got.services.size()) << context;
  for (std::size_t s = 0; s < want.services.size(); ++s) {
    EXPECT_EQ(want.services[s].request_index, got.services[s].request_index)
        << context;
    EXPECT_EQ(want.services[s].item, got.services[s].item) << context;
    EXPECT_EQ(want.services[s].choice, got.services[s].choice) << context;
    EXPECT_EQ(want.services[s].cost, got.services[s].cost) << context;
  }
  EXPECT_EQ(want.charges, got.charges) << context;
  // Singleton events are exactly the item's rows without the partner.
  const std::size_t singles = seq.item_frequency(a) + seq.item_frequency(b) -
                              2 * seq.pair_frequency(a, b);
  EXPECT_EQ(got.services.size(), singles) << context;
}

TEST(ListMerge, KernelSingletonsMatchTheScalarReference) {
  // Every ordered pair of the block traces: pairs within a block, pairs
  // across the blocks (no co-requests) and pairs with the never-requested
  // item; at μ > 0 and at μ = 0, where every cache option that exists is
  // free and ties decide.
  for (const CostModel& model :
       {CostModel{1.0, 1.5, 0.8}, CostModel{0.0, 1.5, 0.8}}) {
    for (const std::uint64_t seed : {7ull, 8ull}) {
      const RequestSequence seq = block_trace(seed, 1200, 6);
      for (ItemId a = 0; a < kItems; ++a) {
        for (ItemId b = 0; b < kItems; ++b) {
          if (a == b) continue;
          expect_kernel_walk_matches_scalar(
              seq, model, a, b,
              "mu " + std::to_string(model.mu) + " seed " +
                  std::to_string(seed) + " {" + std::to_string(a) + "," +
                  std::to_string(b) + "}");
        }
      }
    }
  }
}

TEST(ListMerge, KernelWalkHandlesTheDegenerateShapes) {
  // Item 1 is only ever requested with item 0, items 2 and 3 never share a
  // request, and several requests sit at the origin server 0, whose copy
  // every item holds from time 0.
  SequenceBuilder builder(3, 4);
  builder.add(0, 0.5, {0, 1});
  builder.add(1, 1.0, {0});
  builder.add(0, 1.5, {2});
  builder.add(2, 2.0, {3});
  builder.add(0, 2.5, {0, 1});
  builder.add(1, 3.0, {2});
  builder.add(0, 3.5, {0});
  builder.add(2, 4.0, {3});
  builder.add(0, 4.5, {3});
  builder.add(1, 5.0, {0, 1});
  const RequestSequence seq = std::move(builder).build();
  for (const CostModel& model :
       {CostModel{1.0, 1.5, 0.8}, CostModel{0.0, 1.5, 0.8},
        CostModel{1.0, 0.0, 0.8}}) {
    const std::string rates = "mu " + std::to_string(model.mu) + " lambda " +
                              std::to_string(model.lambda);
    for (const auto& [a, b] : {std::pair<ItemId, ItemId>{0, 1}, {1, 0},
                               {2, 3}, {3, 2}, {0, 2}}) {
      expect_kernel_walk_matches_scalar(
          seq, model, a, b,
          rates + " {" + std::to_string(a) + "," + std::to_string(b) + "}");
    }
    // Item 1 makes no greedy decision in its package; items 2 and 3 share
    // no request, so their package flow is empty and costs nothing.
    const PackageReport mates = solve_pair_package(seq, model, {1, 0, 0.0});
    EXPECT_EQ(mates.co_request_count, 3u) << rates;
    EXPECT_EQ(mates.services.size(), 2u) << rates;
    for (const SingletonService& s : mates.services) {
      EXPECT_EQ(s.item, 0u) << rates;
    }
    const PackageReport apart = solve_pair_package(seq, model, {2, 3, 0.0});
    EXPECT_EQ(apart.co_request_count, 0u) << rates;
    EXPECT_EQ(apart.package_cost, 0.0) << rates;
    EXPECT_EQ(apart.services.size(), 5u) << rates;
  }
  // The origin copy serves item 2's first request at server 0 from cache,
  // for μ · 1.5.
  const PackageReport origin =
      solve_pair_package(seq, CostModel{1.0, 1.5, 0.8}, {2, 3, 0.0});
  ASSERT_FALSE(origin.services.empty());
  EXPECT_EQ(origin.services.front().choice, ServeChoice::kCacheSameServer);
  EXPECT_EQ(origin.services.front().cost, 1.5);
}

/// The partial-request pass of the group solver as a walk of every row:
/// each request holding some but not all of the group's items costs the
/// cheaper of serving its present items one by one (cache or transfer, in
/// the row's item order) and fetching the whole package.
struct PartialTotals {
  Cost cost = 0.0;
  Cost transfer_cost = 0.0;
  std::size_t transfer_events = 0;
};

PartialTotals partial_by_row_walk(const RequestSequence& seq,
                                  const CostModel& model,
                                  const std::vector<ItemId>& group) {
  const Cost package_fetch =
      static_cast<double>(group.size()) * model.alpha * model.lambda;
  std::vector<Time> prev_time(group.size(), 0.0);
  std::vector<std::vector<Time>> last_on_server(
      group.size(), std::vector<Time>(seq.server_count(), -1.0));
  for (auto& per_server : last_on_server) per_server[kOriginServer] = 0.0;
  PartialTotals totals;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const ServerId server = seq.server_of(i);
    const Time time = seq.time_of(i);
    std::vector<std::size_t> present;
    for (const ItemId item : seq.items_of(i)) {
      const auto at = std::find(group.begin(), group.end(), item);
      if (at != group.end()) {
        present.push_back(static_cast<std::size_t>(at - group.begin()));
      }
    }
    if (!present.empty() && present.size() < group.size()) {
      Cost individual = 0.0;
      Cost transfer = 0.0;
      std::size_t events = 0;
      for (const std::size_t slot : present) {
        const Time last = last_on_server[slot][server];
        const Cost cache =
            last >= 0.0 ? model.mu * (time - last) : kInfiniteCost;
        const Cost hop = model.mu * (time - prev_time[slot]) + model.lambda;
        if (cache <= hop) {
          individual += cache;
        } else {
          individual += hop;
          transfer += model.lambda;
          ++events;
        }
      }
      totals.cost += std::min(individual, package_fetch);
      if (individual <= package_fetch) {
        totals.transfer_cost += transfer;
        totals.transfer_events += events;
      } else {
        totals.transfer_cost += package_fetch;
        ++totals.transfer_events;
      }
    }
    for (const std::size_t slot : present) {
      prev_time[slot] = time;
      last_on_server[slot][server] = time;
    }
  }
  return totals;
}

TEST(ListMerge, GroupPartialPassMatchesARowWalk) {
  const CostModel model{1.0, 2.0, 0.7};
  Rng rng(91);
  const RequestSequence seq = block_trace(9, 1500, 6);
  for (const std::vector<ItemId>& group : random_groups(rng, 120)) {
    const GroupReport report = solve_group_package(seq, model, group);
    const PartialTotals want = partial_by_row_walk(seq, model, group);
    const std::string context = group_name(group);
    EXPECT_EQ(report.partial_cost, want.cost) << context;
    EXPECT_EQ(report.partial_transfer_cost, want.transfer_cost) << context;
    EXPECT_EQ(report.partial_transfer_events, want.transfer_events)
        << context;
    EXPECT_EQ(report.full_request_count,
              scanned_flow(seq, group, group.size()).size())
        << context;
  }
}

TEST(ListMerge, GroupPartialSumsFollowTheRequestItemOrder) {
  // The last request holds three of the four group items, whose cache costs
  // 4.7, 4.6 and 1.3 add to different doubles in ascending and descending
  // order (the partial cost is 14.400000000000002 one way and
  // 14.399999999999999 the other).  The merge must add them in the
  // request's own ascending item order, as the row walk does, whatever the
  // group's order.
  SequenceBuilder builder(2, 4);
  builder.add(0, 0.1, {0});
  builder.add(0, 0.2, {1});
  builder.add(0, 3.5, {2});
  builder.add(0, 4.8, {0, 1, 2});
  const RequestSequence seq = std::move(builder).build();
  const CostModel model{1.0, 5.0, 0.8};
  for (const std::vector<ItemId>& group :
       {std::vector<ItemId>{0, 1, 2, 3}, std::vector<ItemId>{3, 2, 1, 0},
        std::vector<ItemId>{2, 0, 3, 1}}) {
    const GroupReport report = solve_group_package(seq, model, group);
    const PartialTotals want = partial_by_row_walk(seq, model, group);
    EXPECT_EQ(report.partial_cost, want.cost) << group_name(group);
    EXPECT_EQ(report.partial_cost, 14.400000000000002) << group_name(group);
  }
}

TEST(ListMerge, GroupSolverRejectsRepeatedItems) {
  const RequestSequence seq = block_trace(10, 100, 3);
  EXPECT_THROW((void)solve_group_package(seq, CostModel{1, 1, 0.8}, {3, 3}),
               InvalidArgument);
}

}  // namespace
}  // namespace dpg
