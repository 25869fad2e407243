// Heap traffic of the online decision path and of counted plans, counted
// exactly.
//
// A global operator new/delete override local to this binary (as in
// bench/bm_phase1.cpp) bumps one relaxed atomic per allocation, so "no
// allocation" is a count of 0, not an estimate.  Three claims rest on it:
//   * ReplicaList behaves as std::vector<ReplicaCopy> under the operations
//     the flows use, and allocates only past its inline capacity;
//   * once warm, OnlineDpGreedyState::push allocates nothing, however many
//     packs, splits and transfers it makes, while every flow stays within
//     the inline capacity;
//   * a per-item policy whose plan is only counted builds no schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/request_index.hpp"
#include "engine/registry.hpp"
#include "solver/greedy.hpp"
#include "solver/online.hpp"
#include "solver/online_state.hpp"
#include "solver/replica_list.hpp"
#include "solver/workspace.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size > 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size > 0 ? size : alignment) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dpg {
namespace {

std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}

constexpr std::size_t kInline = ReplicaList::kInlineReplicas;

void expect_same(const ReplicaList& list, const std::vector<ReplicaCopy>& ref,
                 const std::string& label) {
  ASSERT_EQ(list.size(), ref.size()) << label;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(list[i].server, ref[i].server) << label << " copy " << i;
    EXPECT_EQ(list[i].since, ref[i].since) << label << " copy " << i;
    EXPECT_EQ(list[i].last_use, ref[i].last_use) << label << " copy " << i;
  }
}

TEST(ReplicaList, MatchesVectorUnderRandomPushSwapRemoveAndClear) {
  // Each round drifts the size up past the inline capacity and back down
  // below it, with the odd clear and move in between, and compares the
  // list with a vector after every operation.
  Rng rng(1717);
  std::size_t spills = 0;
  std::size_t shrinks_while_spilled = 0;
  std::size_t clears_from_spilled = 0;
  for (int round = 0; round < 200; ++round) {
    ReplicaList list;
    std::vector<ReplicaCopy> ref;
    const double grow = rng.next_double(0.3, 0.7);
    for (int op = 0; op < 300; ++op) {
      const std::string label =
          "round " + std::to_string(round) + " op " + std::to_string(op);
      const double pick = rng.next_double();
      if (pick < 0.02) {
        if (list.spilled()) ++clears_from_spilled;
        list.clear();
        ref.clear();
        EXPECT_FALSE(list.spilled()) << label;
      } else if (pick < 0.04) {
        ReplicaList moved(std::move(list));
        list = std::move(moved);
      } else if (pick < 0.04 + grow || ref.empty()) {
        const auto t = static_cast<Time>(op);
        const ReplicaCopy copy{static_cast<ServerId>(rng.next_below(50)), t,
                               t + rng.next_double()};
        const bool was_spilled = list.spilled();
        list.push_back(copy);
        ref.push_back(copy);
        if (!was_spilled && list.spilled()) ++spills;
      } else {
        const auto i = static_cast<std::size_t>(rng.next_below(ref.size()));
        list.erase_swap(i);
        ref[i] = ref.back();
        ref.pop_back();
        if (list.spilled() && ref.size() <= kInline) ++shrinks_while_spilled;
      }
      expect_same(list, ref, label);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The boundary was crossed both ways many times.
  EXPECT_GT(spills, 100u);
  EXPECT_GT(shrinks_while_spilled, 100u);
  EXPECT_GT(clears_from_spilled, 10u);
}

TEST(ReplicaList, AllocatesOnlyPastTheInlineCapacity) {
  ReplicaList list;
  const std::uint64_t before = allocations_now();
  for (std::size_t i = 0; i < kInline; ++i) {
    list.push_back(ReplicaCopy{static_cast<ServerId>(i), 1.0, 2.0});
  }
  list.erase_swap(0);
  list.clear();
  list.push_back(ReplicaCopy{7, 1.0, 1.0});
  EXPECT_EQ(allocations_now(), before);
  EXPECT_FALSE(list.spilled());

  for (std::size_t i = 1; i <= kInline; ++i) {
    list.push_back(ReplicaCopy{static_cast<ServerId>(i), 1.0, 2.0});
  }
  EXPECT_TRUE(list.spilled());
  EXPECT_EQ(allocations_now(), before + 1);
  // clear() hands the buffer back: a restarted flow keeps no high water.
  list.clear();
  EXPECT_FALSE(list.spilled());
}

/// The row at step `i` of a 48-row period: for 24 rows items 0 and 1 are
/// requested together, as are 2 and 3, with every third row one item
/// alone; for the next 24 rows the pairs are 0 with 2 and 1 with 3.  The
/// pairs pack and split every half period, and the rows move round three
/// servers, so flows transfer and fetch packages while none holds more
/// than three copies.
std::vector<ItemId> period_row(std::size_t i) {
  const std::size_t step = i % 48;
  const bool first_half = step < 24;
  const ItemId a = step % 2 == 0 ? 0 : (first_half ? 2 : 1);
  const ItemId b = first_half ? a + 1 : a + 2;
  if (step % 3 == 2) return {step % 4 < 2 ? a : b};
  return {a, b};
}

TEST(OnlineDpGreedyState, WarmPushesThatPackSplitAndTransferAllocateNothing) {
  const CostModel model{/*mu=*/1.0, /*lambda=*/1.0, /*alpha=*/0.8};
  OnlineDpGreedyOptions options;
  options.theta = 0.5;
  options.window = 8;
  options.repack_interval = 4;
  OnlineDpGreedyState state(model, options, 4);
  // Ten periods of warm-up, enough for the window ring, the pair map and
  // the epoch scratch to reach their largest shape, then 10,000 pushes.
  constexpr std::size_t kWarm = 480;
  constexpr std::size_t kMeasured = 10000;
  std::vector<std::vector<ItemId>> rows;
  rows.reserve(kWarm + kMeasured);
  for (std::size_t r = 0; r < kWarm + kMeasured; ++r) {
    rows.push_back(period_row(r));
  }
  OnlineDpGreedyState::Decision total;
  std::uint64_t before = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r == kWarm) before = allocations_now();
    const OnlineDpGreedyState::Decision d =
        state.push(static_cast<ServerId>(r % 3),
                   0.25 * static_cast<Time>(r + 1), rows[r]);
    if (r < kWarm) continue;
    total.pack_events += d.pack_events;
    total.unpack_events += d.unpack_events;
    total.transfers += d.transfers;
    total.package_fetches += d.package_fetches;
  }
  EXPECT_EQ(allocations_now() - before, 0u);
  // The pushes did decide: pairs formed and dissolved, copies moved.
  EXPECT_GT(total.pack_events, 100u);
  EXPECT_GT(total.unpack_events, 100u);
  EXPECT_GT(total.transfers, 1000u);
  EXPECT_GT(total.package_fetches, 100u);
}

TEST(PerItemPlans, CountedSolvesBuildNoSchedule) {
  // Without build_schedule the plan goes into a ScheduleCounter: chain and
  // the break-even rule allocate nothing at all (three servers keep every
  // replica inline), and greedy only its RequestIndex.  A built plan
  // allocates, so the count can see one.
  Rng rng(21);
  const Flow flow = testing::random_flow(rng, 500, 3);
  const CostModel model{1.0, 1.0, 0.8};

  std::uint64_t before = allocations_now();
  const SolveResult chain = solve_chain(flow, model, false);
  const SolveResult online = solve_online_break_even(flow, model, 3, {}, false);
  EXPECT_EQ(allocations_now() - before, 0u);
  EXPECT_GT(chain.counts.segments, 0u);
  EXPECT_GT(online.counts.transfers, 0u);

  before = allocations_now();
  { const RequestIndex index(flow, 3); }
  const std::uint64_t index_allocs = allocations_now() - before;
  before = allocations_now();
  const SolveResult greedy = solve_greedy(flow, model, 3, false);
  EXPECT_EQ(allocations_now() - before, index_allocs);
  EXPECT_GT(greedy.counts.segments, 0u);

  before = allocations_now();
  EXPECT_EQ(solve_chain(flow, model).schedule.counts().segments,
            chain.counts.segments);
  EXPECT_GT(allocations_now() - before, 0u);
}

TEST(PerItemPlans, RegistryRunWithoutPlansBuildsNoSchedule) {
  // keep_schedules off reaches every item's solve: a warm run allocates a
  // handful of times, not once per item for its schedule.  Three servers
  // keep every break-even replica inline.
  Rng rng(22);
  const RequestSequence seq = testing::random_sequence(rng, 4000, 3, 200);
  const CostModel model{1.0, 1.0, 0.8};
  SolverConfig config;
  config.keep_schedules = false;
  for (const char* name : {"chain", "online_break_even"}) {
    const std::unique_ptr<Solver> solver = builtin_registry().create(name);
    (void)solver->run(seq, model, config);
    const std::uint64_t before = allocations_now();
    const RunReport report = solver->run(seq, model, config);
    EXPECT_LT(allocations_now() - before, seq.item_count()) << name;
    EXPECT_GT(report.cache_segments, seq.item_count()) << name;
  }
}

TEST(PerItemPlans, GreedyRebuildsTheWorkspaceIndexInPlace) {
  // Given a workspace, greedy rebuilds its RequestIndex instead of a fresh
  // one: a warm counted solve allocates nothing, with the same answer, and
  // a warm registry run without plans stays below one allocation per item,
  // as chain's does.
  Rng rng(23);
  const Flow flow = testing::random_flow(rng, 500, 3);
  const CostModel model{1.0, 1.0, 0.8};
  const SolveResult fresh = solve_greedy(flow, model, 3, false);
  SolverWorkspace workspace;
  (void)solve_greedy(flow, model, 3, false, &workspace);
  const std::uint64_t before = allocations_now();
  const SolveResult warm = solve_greedy(flow, model, 3, false, &workspace);
  EXPECT_EQ(allocations_now() - before, 0u);
  EXPECT_EQ(warm.raw_cost, fresh.raw_cost);
  EXPECT_EQ(warm.counts.segments, fresh.counts.segments);
  EXPECT_EQ(warm.counts.transfers, fresh.counts.transfers);

  const RequestSequence seq = testing::random_sequence(rng, 4000, 3, 200);
  SolverConfig config;
  config.keep_schedules = false;
  const std::unique_ptr<Solver> solver = builtin_registry().create("greedy");
  (void)solver->run(seq, model, config);
  const std::uint64_t run_before = allocations_now();
  (void)solver->run(seq, model, config);
  EXPECT_LT(allocations_now() - run_before, seq.item_count());
}

}  // namespace
}  // namespace dpg
