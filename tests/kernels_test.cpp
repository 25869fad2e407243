// The branch-light DP kernels (solver/kernels.hpp) against their scalar
// references: every kernel must return the same BITS, not just values
// within a tolerance — the kernels replace the reference loops inside
// solve_optimal_offline, and Phase-2 totals are sums of thousands of these
// primitives, so any ulp of drift compounds.  Ties are exercised on
// purpose (quantized random values), and the window-minimum ring is
// additionally checked against the SuffixMin stack.
#include <gtest/gtest.h>

#include "test_support.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/request_index.hpp"
#include "solver/kernels.hpp"
#include "solver/optimal_offline.hpp"
#include "solver/workspace.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

using kernels::WindowMinRing;

/// Random value columns with deliberate equal runs: quantizing to eighths
/// makes ties common, which is where argmin rules diverge if wrong.
std::vector<double> quantized_column(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = 0.125 * static_cast<double>(rng.next_int(-16, 16));
  }
  return v;
}

/// A column of distinct values (with high probability): each value is the
/// minimum of some window, so a window that drops one value shows.
std::vector<double> distinct_column(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.next_double(-1.0, 1.0);
  return v;
}

/// The scalar reference: min of v over [lo, hi), +∞ for an empty window.
double scan_min(const std::vector<double>& v, std::size_t lo,
                std::size_t hi) {
  double best = kInfiniteCost;
  for (std::size_t k = lo; k < hi; ++k) best = std::min(best, v[k]);
  return best;
}

TEST(Kernels, ActiveIsaIsReported) {
  const std::string isa = kernels::active_isa();
  EXPECT_TRUE(isa == "sse2" || isa == "scalar") << isa;
}

TEST(Kernels, WindowMinMatchesScalarOnTieHeavyColumns) {
  // After each push, random windows the ring may answer — empty ones,
  // single values, and widths up to kSlots − 1 reaching kSlots − 1 pushes
  // back — and random suffixes of any width from WindowMin, which cuts the
  // wide ones into blocks, against a scan over columns several rings long,
  // tie-heavy in even rounds and distinct in odd ones.
  Rng rng(101);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.next_int(1, 600));
    const std::vector<double> v = round % 2 == 0 ? quantized_column(rng, n)
                                                 : distinct_column(rng, n);
    WindowMinRing ring;
    WindowMin windows;
    for (std::size_t j = 0; j < n; ++j) {
      ring.push(j, v[j]);
      windows.push(v[j]);
      const std::size_t oldest =
          j + 2 >= WindowMinRing::kSlots ? j + 2 - WindowMinRing::kSlots : 0;
      for (int query = 0; query < 4; ++query) {
        const std::size_t lo = oldest + rng.next_below(j + 2 - oldest);
        const std::size_t hi = lo + rng.next_below(j + 2 - lo);
        ASSERT_EQ(ring.min_of(lo, hi), scan_min(v, lo, hi))
            << "round " << round << " push " << j << " [" << lo << ", "
            << hi << ")";
        const std::size_t from = rng.next_below(j + 2);
        ASSERT_EQ(windows.min_from(from), scan_min(v, from, j + 1))
            << "round " << round << " push " << j << " from " << from;
      }
      // The widest window the ring serves, and the one-value window.
      ASSERT_EQ(ring.min_of(oldest, j + 1), scan_min(v, oldest, j + 1))
          << "round " << round << " push " << j;
      ASSERT_EQ(ring.min_of(j, j + 1), v[j]) << "round " << round;
    }
  }
}

TEST(Kernels, WindowMinMatchesSuffixMinStack) {
  // WindowMin answers what the SuffixMin stack answers, at every suffix
  // after every push: ring windows below kRingWindow values, block-cut
  // windows from there on, and a WindowMin reused after clear(); on
  // tie-heavy and on distinct columns.
  Rng rng(102);
  WindowMin windows;
  for (int round = 0; round < 30; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.next_int(2, 400));
    const std::vector<double> v = round % 2 == 0 ? quantized_column(rng, n)
                                                 : distinct_column(rng, n);
    windows.clear();
    SuffixMin suffix;
    for (std::size_t i = 0; i < n; ++i) {
      windows.push(v[i]);
      suffix.push(static_cast<std::int32_t>(i), v[i]);
      for (std::size_t lo = 0; lo <= i; ++lo) {
        ASSERT_EQ(windows.min_from(lo),
                  suffix.query(static_cast<std::int32_t>(lo)).second)
            << "round " << round << " push " << i << " lo " << lo;
      }
    }
  }
}

TEST(Kernels, WindowMinSingleElement) {
  WindowMinRing ring;
  ring.push(0, 4.0);
  EXPECT_EQ(ring.min_of(0, 1), 4.0);
  EXPECT_EQ(ring.min_of(0, 0), kInfiniteCost);  // empty: the +∞ half
  EXPECT_EQ(ring.min_of(1, 1), kInfiniteCost);
  WindowMin windows;
  EXPECT_EQ(windows.min_from(0), kInfiniteCost);
  windows.push(4.0);
  EXPECT_EQ(windows.min_from(0), 4.0);
  EXPECT_EQ(windows.min_from(1), kInfiniteCost);
}

/// Node 0 is the origin on server 0.  Nodes 1 and 2 visit server 1, node 3
/// returns to server 0.  At μ = 0 every v_k is 0, so D(3)'s window [0, 3)
/// is one three-way tie.
Flow tied_window_flow() {
  Flow flow;
  flow.points = {{1, 1.0}, {1, 2.0}, {0, 3.0}};
  return flow;
}

TEST(Kernels, WindowMinTiePicksLatestIndex) {
  // D(3) wins (1 against Tr's 2).  The latest tie, k = 2, keeps node 1's
  // transfer and node 2's own cache link as the Tr steps before it: three
  // segments.  The earliest, k = 0, would serve nodes 1 and 2 as
  // intermediates off the line: two segments.
  const CostModel model{0.0, 1.0, 0.8};
  OptimalOfflineOptions kernel;
  OptimalOfflineOptions reference;
  reference.use_kernels = false;
  const SolveResult got =
      solve_optimal_offline(tied_window_flow(), model, 2, kernel);
  const SolveResult want =
      solve_optimal_offline(tied_window_flow(), model, 2, reference);
  EXPECT_EQ(got.raw_cost, 1.0);
  EXPECT_EQ(got.counts.segments, 3u);
  EXPECT_EQ(got.counts.transfers, 1u);
  EXPECT_EQ(want.counts.segments, 3u);
}

TEST(Kernels, LinkCostsHandlesMissingPrevAndZeroMu) {
  // Node 1 is server 1's first visit, node 2 returns to the origin's
  // server, node 3 to node 1's.
  const std::vector<ServicePoint> points = {{1, 1.0}, {0, 2.5}, {1, 4.0}};
  std::vector<std::int32_t> last(2);
  std::vector<Time> t(4);
  std::vector<ServerId> s(4);
  std::vector<std::int32_t> prev(4);
  std::vector<Cost> base(4);
  std::vector<Cost> w_prefix(4);
  std::vector<std::int32_t> local(4);
  const kernels::NodeColumns out{t.data(),    s.data(),
                                 prev.data(), base.data(),
                                 w_prefix.data(), local.data()};
  // μ = 0 with a missing p(j) must yield ∞, not 0·∞ = NaN.
  kernels::prescan_flow(points, 2, 0.0, 1.5, last.data(), out);
  EXPECT_EQ(prev, (std::vector<std::int32_t>{-1, -1, 0, 1}));
  EXPECT_EQ(base[1], kInfiniteCost);
  EXPECT_FALSE(std::isnan(base[1]));
  EXPECT_EQ(base[2], 1.5);  // link 0 + W(1) = λ
  EXPECT_EQ(w_prefix[3], 1.5);
  // Free links beat λ on every return; a first visit has no link.
  EXPECT_EQ(local, (std::vector<std::int32_t>{0, 0, 1, 2}));
  kernels::prescan_flow(points, 2, 2.0, 10.0, last.data(), out);
  EXPECT_EQ(base[2], 2.0 * 2.5 + 10.0);
  EXPECT_EQ(base[3], 2.0 * 3.0 + (10.0 + 5.0));
  EXPECT_EQ(w_prefix[3], 10.0 + 5.0 + 6.0);
  EXPECT_EQ(local, (std::vector<std::int32_t>{0, 0, 1, 2}));
  EXPECT_EQ(t, (std::vector<Time>{0.0, 1.0, 2.5, 4.0}));
  EXPECT_EQ(s, (std::vector<ServerId>{0, 1, 0, 1}));
  // A link equal to λ is a transfer's, not a local one: 2 · 2.5 = 5.
  kernels::prescan_flow(points, 2, 2.0, 5.0, last.data(), out);
  EXPECT_EQ(local, (std::vector<std::int32_t>{0, 0, 0, 0}));
  // λ = 0: no link is cheaper, not even a free one.
  kernels::prescan_flow(points, 2, 0.0, 0.0, last.data(), out);
  EXPECT_EQ(local, (std::vector<std::int32_t>{0, 0, 0, 0}));
  // A server id past server_count is rejected, as RequestIndex does.
  EXPECT_THROW(
      kernels::prescan_flow(points, 1, 1.0, 1.0, last.data(), out),
      InvalidArgument);
}

TEST(Kernels, PrescanStepRejectsWhatValidateFlowRejects) {
  // The step keeps validate_flow's checks, with its message: a time that
  // repeats, falls back, is 0 or NaN throws.
  std::vector<std::int32_t> last(2);
  std::vector<Time> t(4);
  std::vector<ServerId> s(4);
  std::vector<std::int32_t> prev(4);
  std::vector<Cost> base(4);
  std::vector<Cost> w_prefix(4);
  std::vector<std::int32_t> local(4);
  const kernels::NodeColumns out{t.data(),    s.data(),
                                 prev.data(), base.data(),
                                 w_prefix.data(), local.data()};
  const std::string message =
      "Flow: service times must be strictly increasing and positive";
  for (const std::vector<Time>& times :
       {std::vector<Time>{1.0, 1.0}, std::vector<Time>{2.0, 1.5},
        std::vector<Time>{0.0}, std::vector<Time>{1.0, std::nan("")}}) {
    kernels::FlowPrescan scan(out, 2, 1.0, 1.0, last.data());
    try {
      for (const Time time : times) scan.step(1, time);
      ADD_FAILURE() << "times accepted, first " << times.front();
    } catch (const InvalidArgument& error) {
      EXPECT_EQ(std::string(error.what()), message);
    }
    Flow flow;
    for (const Time time : times) flow.points.push_back({1, time});
    EXPECT_THROW(validate_flow(flow), InvalidArgument);
  }
  kernels::FlowPrescan scan(out, 2, 1.0, 1.0, last.data());
  scan.step(1, 0.5);
  scan.step(0, 0.75);
  EXPECT_EQ(scan.nodes(), 3u);
}

TEST(Kernels, WAndPrefixMatchesScalarWithInfinities) {
  // The fused pre-scan against the reference's separate passes: the
  // RequestIndex pre-scan, then the literal w/W loop, including λ = 0 and
  // μ = 0 (first visits keep w = λ and an ∞ base).
  Rng rng(103);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.next_int(1, 120));
    const std::size_t servers = static_cast<std::size_t>(rng.next_int(1, 9));
    const Flow flow = testing::random_flow(rng, n, servers);
    const double lambda = 0.25 * static_cast<double>(rng.next_int(0, 12));
    const double mu = 0.5 * static_cast<double>(rng.next_int(0, 4));
    const RequestIndex index(flow, servers);
    const std::size_t nodes = n + 1;
    std::vector<Cost> w_ref(nodes, 0.0);
    std::vector<Cost> base_ref(nodes, kInfiniteCost);
    // L: the backtrack's local-link test, counted node by node.
    std::vector<std::int32_t> local_ref(nodes, 0);
    for (std::size_t j = 1; j < nodes; ++j) {
      const std::int32_t pj = index.prev_same_server(j);
      Cost link = kInfiniteCost;
      bool local_chosen = false;
      if (pj >= 0) {
        link = mu * (index.time_of(j) -
                     index.time_of(static_cast<std::size_t>(pj)));
        base_ref[j] = link + w_ref[j - 1];
        local_chosen = link < lambda;
      }
      w_ref[j] = w_ref[j - 1] + std::min(lambda, link);
      local_ref[j] = local_ref[j - 1] + (local_chosen ? 1 : 0);
    }
    std::vector<std::int32_t> last(servers);
    std::vector<Time> t(nodes);
    std::vector<ServerId> s(nodes);
    std::vector<std::int32_t> prev(nodes);
    std::vector<Cost> base(nodes);
    std::vector<Cost> w_prefix(nodes);
    std::vector<std::int32_t> local(nodes);
    kernels::prescan_flow(flow.points, servers, mu, lambda, last.data(),
                          kernels::NodeColumns{t.data(), s.data(),
                                               prev.data(), base.data(),
                                               w_prefix.data(),
                                               local.data()});
    for (std::size_t j = 0; j < nodes; ++j) {
      ASSERT_EQ(t[j], index.time_of(j)) << "round " << round << " j " << j;
      ASSERT_EQ(s[j], index.server_of(j)) << "round " << round << " j " << j;
      ASSERT_EQ(prev[j], index.prev_same_server(j))
          << "round " << round << " j " << j;
      ASSERT_EQ(base[j], base_ref[j]) << "round " << round << " j " << j;
      ASSERT_EQ(w_prefix[j], w_ref[j]) << "round " << round << " j " << j;
      ASSERT_EQ(local[j], local_ref[j]) << "round " << round << " j " << j;
    }
  }
}

TEST(Kernels, ServeChoice3MatchesReferenceChain) {
  const auto reference = [](Cost cache, Cost transfer, Cost package,
                            Cost* cost) {
    // The original if/else chain from dp_greedy's singleton pass.
    if (cache <= transfer && cache <= package) {
      *cost = cache;
      return kernels::kChoiceCache;
    }
    if (transfer <= package) {
      *cost = transfer;
      return kernels::kChoiceTransfer;
    }
    *cost = package;
    return kernels::kChoicePackage;
  };
  Rng rng(104);
  for (int round = 0; round < 2000; ++round) {
    const auto pick = [&rng] {
      return rng.next_bool(0.1)
                 ? kInfiniteCost
                 : 0.5 * static_cast<double>(rng.next_int(0, 8));
    };
    const Cost cache = pick(), transfer = pick(), package = pick();
    Cost want_cost = 0.0, got_cost = 0.0;
    const auto want = reference(cache, transfer, package, &want_cost);
    const auto got = kernels::serve_choice3(cache, transfer, package,
                                            &got_cost);
    ASSERT_EQ(got, want) << cache << " " << transfer << " " << package;
    ASSERT_EQ(got_cost, want_cost);
  }
}

TEST(Kernels, MinCacheTransferChargesLambdaOnlyOnStrictWin) {
  bool took_transfer = true;
  EXPECT_EQ(kernels::min_cache_transfer(2.0, 2.0, &took_transfer), 2.0);
  EXPECT_FALSE(took_transfer);  // a tie counts as cache
  EXPECT_EQ(kernels::min_cache_transfer(3.0, 2.0, &took_transfer), 2.0);
  EXPECT_TRUE(took_transfer);
  EXPECT_EQ(kernels::min_cache_transfer(kInfiniteCost, 2.0, &took_transfer),
            2.0);
  EXPECT_TRUE(took_transfer);
}

TEST(Kernels, JaccardRowMatchesPairwiseFormula) {
  const std::size_t freq[] = {4, 0, 3, 5};
  const std::size_t co_row[] = {4, 0, 2, 0};
  double out[4] = {-1.0, -1.0, -1.0, -1.0};
  kernels::jaccard_row(freq, co_row, /*freq_a=*/4, /*b_begin=*/1, 4, out);
  EXPECT_EQ(out[0], -1.0);  // below b_begin: untouched
  EXPECT_EQ(out[1], 0.0);   // empty union
  EXPECT_EQ(out[2], 2.0 / 5.0);
  EXPECT_EQ(out[3], 0.0);
}

// ---------------------------------------------------------------------------
// The kernels inside the DP: solve_optimal_offline with use_kernels on and
// off must agree on every bit of the raw cost, the priced cost, the counts
// and the built schedule.

void expect_same_solve(const Flow& flow, const CostModel& model,
                       std::size_t server_count, const std::string& context) {
  OptimalOfflineOptions with_kernels;
  with_kernels.use_kernels = true;
  OptimalOfflineOptions without;
  without.use_kernels = false;
  const SolveResult a =
      solve_optimal_offline(flow, model, server_count, with_kernels);
  const SolveResult b =
      solve_optimal_offline(flow, model, server_count, without);
  ASSERT_EQ(a.cost, b.cost) << context;
  ASSERT_EQ(a.raw_cost, b.raw_cost) << context;
  ASSERT_EQ(a.schedule.segments().size(), b.schedule.segments().size())
      << context;
  for (std::size_t s = 0; s < a.schedule.segments().size(); ++s) {
    ASSERT_EQ(a.schedule.segments()[s].server, b.schedule.segments()[s].server)
        << context;
    ASSERT_EQ(a.schedule.segments()[s].begin, b.schedule.segments()[s].begin)
        << context;
    ASSERT_EQ(a.schedule.segments()[s].end, b.schedule.segments()[s].end)
        << context;
  }
  ASSERT_EQ(a.schedule.transfers().size(), b.schedule.transfers().size())
      << context;
  for (std::size_t t = 0; t < a.schedule.transfers().size(); ++t) {
    ASSERT_EQ(a.schedule.transfers()[t].from, b.schedule.transfers()[t].from)
        << context;
    ASSERT_EQ(a.schedule.transfers()[t].to, b.schedule.transfers()[t].to)
        << context;
    ASSERT_EQ(a.schedule.transfers()[t].time, b.schedule.transfers()[t].time)
        << context;
  }
  // Counted instead of built: the same counts on both paths.
  const SolveResult ca = solve_optimal_offline(flow, model, server_count,
                                               with_kernels,
                                               /*build_schedule=*/false);
  const SolveResult cb = solve_optimal_offline(
      flow, model, server_count, without, /*build_schedule=*/false);
  ASSERT_EQ(ca.raw_cost, a.raw_cost) << context;
  ASSERT_EQ(ca.counts.segments, a.counts.segments) << context;
  ASSERT_EQ(ca.counts.transfers, a.counts.transfers) << context;
  ASSERT_EQ(cb.counts.segments, b.counts.segments) << context;
  ASSERT_EQ(cb.counts.transfers, b.counts.transfers) << context;
}

/// The rates the DP cases sweep: λ from cheaper than most cache links to
/// dearer than most, at μ = 1, and μ = 0, where caching is free and every
/// window is one long tie.
std::vector<CostModel> swept_models() {
  std::vector<CostModel> models;
  for (const double mu : {1.0, 0.0}) {
    for (const double lambda : {0.2, 1.0, 8.0}) {
      models.push_back(CostModel{mu, lambda, 0.8});
    }
  }
  return models;
}

std::string rates(const CostModel& model) {
  return "mu " + std::to_string(model.mu) + " lambda " +
         std::to_string(model.lambda);
}

TEST(KernelDp, FuzzedFlowsAreBitIdentical) {
  Rng rng(105);
  CostModel model = testing::running_example_model();
  for (int round = 0; round < 150; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.next_int(1, 220));
    const std::size_t servers = static_cast<std::size_t>(rng.next_int(1, 12));
    const Flow flow = testing::random_flow(rng, n, servers);
    expect_same_solve(flow, model, servers,
                      "round " + std::to_string(round));
  }
}

TEST(KernelDp, WideWindowsCrossTheSuffixMinBackstop) {
  // Few servers and many points per server stretch some D(i) windows past
  // kRingWindow, onto the block minima and the SuffixMin stack; both sides
  // of the limit must agree with the scalar DP.
  Rng rng(106);
  CostModel model = testing::running_example_model();
  const Flow flow = testing::random_flow(rng, 3 * kernels::kRingWindow, 2);
  expect_same_solve(flow, model, 2, "wide windows");
}

TEST(KernelDp, ExtremeCostRatiosAreBitIdentical) {
  Rng rng(107);
  for (const double mu : {0.0, 0.01, 1.0, 100.0}) {
    for (const double lambda : {0.0, 1.0, 50.0}) {
      CostModel model;
      model.mu = mu;
      model.lambda = lambda;
      const Flow flow = testing::random_flow(rng, 120, 4);
      expect_same_solve(flow, model, 4,
                        "mu=" + std::to_string(mu) +
                            " lambda=" + std::to_string(lambda));
    }
  }
}

TEST(KernelDp, FirstVisitsAndWidthOneWindows) {
  // Servers first visited late in the flow (an ∞ base, the empty window),
  // and runs of one server (width-1 windows: v_{i−1} alone).
  Rng rng(108);
  for (const CostModel& model : swept_models()) {
    for (int round = 0; round < 20; ++round) {
      Flow flow;
      Time t = 0.0;
      ServerId server = 0;
      for (std::size_t i = 0; i < 300; ++i) {
        t += 0.125 * static_cast<Time>(rng.next_int(1, 16));
        if (rng.next_bool(0.4)) {
          // A fresh server now and then: about one visit in ten is a first.
          server = rng.next_bool(0.25)
                       ? static_cast<ServerId>(1 + i)
                       : static_cast<ServerId>(rng.next_below(6));
        }
        flow.points.push_back({server, t});
      }
      expect_same_solve(flow, model, 302,
                        rates(model) + " round " + std::to_string(round));
    }
  }
}

/// A flow whose windows all have `width` nodes once every server is seen:
/// round-robin over servers 1..width, with quantized random gaps (so v
/// ties are common) and, at `detour_rate`, a visit to server width + 1
/// that stretches the windows around it by one.
Flow round_robin_flow(Rng& rng, std::size_t width, std::size_t n,
                      double detour_rate) {
  Flow flow;
  Time t = 0.0;
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += 0.125 * static_cast<Time>(rng.next_int(1, 16));
    ServerId server;
    if (rng.next_bool(detour_rate)) {
      server = static_cast<ServerId>(width + 1);
    } else {
      server = static_cast<ServerId>(1 + next);
      next = (next + 1) % width;
    }
    flow.points.push_back({server, t});
  }
  return flow;
}

TEST(KernelDp, WindowWidthsAroundTheRingLimit) {
  // Widths just below, at and just above kRingWindow (the last ring
  // window and the first block-minima one), and around the wide path's
  // block size, on flows long enough to close many blocks.
  const std::size_t limit = kernels::kRingWindow;
  const std::size_t block = kernels::kWideBlock;
  Rng rng(109);
  for (const std::size_t width :
       {block - 1, block, block + 1, limit - 1, limit, limit + 1,
        2 * block + 1, limit + block - 1, 2 * limit + 1}) {
    for (const CostModel& model : swept_models()) {
      for (const double detours : {0.0, 0.05}) {
        const Flow flow = round_robin_flow(rng, width, 6 * width, detours);
        expect_same_solve(flow, model, width + 2,
                          rates(model) + " width " + std::to_string(width) +
                              " detours " + std::to_string(detours));
      }
    }
  }
}

TEST(KernelDp, WideWindowsAtThreeHundredServers) {
  // m = 300: almost every window is wider than kRingWindow, and its
  // minimum may sit in p(i)'s block, in the closed blocks after it, or in
  // the newest block.  At μ = 0.01 a cache line across 300 requests costs
  // about 3, so lines over wide windows win against λ = 8 and the minimum
  // sets the cost.
  Rng rng(110);
  std::vector<CostModel> models = swept_models();
  for (const double lambda : {0.2, 1.0, 8.0}) {
    models.push_back(CostModel{0.01, lambda, 0.8});
  }
  for (const CostModel& model : models) {
    for (int round = 0; round < 4; ++round) {
      const Flow flow = testing::random_flow(rng, 2500, 300);
      expect_same_solve(flow, model, 300,
                        rates(model) + " round " + std::to_string(round));
    }
  }
}

TEST(KernelDp, ZeroMuWindowsAreAllTies) {
  // μ = 0: every v_k in a window is equal, so only the latest-tie split
  // reproduces the reference schedule.
  Rng rng(111);
  const CostModel model{0.0, 1.0, 0.8};
  for (int round = 0; round < 60; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.next_int(2, 400));
    const std::size_t servers = static_cast<std::size_t>(rng.next_int(2, 40));
    expect_same_solve(testing::random_flow(rng, n, servers), model, servers,
                      "round " + std::to_string(round));
  }
}

TEST(KernelDp, PackageFlowsArePricedAtTwoAlpha) {
  // group_size 2: the kernel cost is 2α times its raw cost, as on the
  // reference path.
  Rng rng(112);
  for (const CostModel& model : swept_models()) {
    const Flow flow = testing::random_flow(rng, 400, 20, /*group_size=*/2);
    expect_same_solve(flow, model, 20, rates(model));
    const SolveResult solved = solve_optimal_offline(flow, model, 20);
    EXPECT_EQ(solved.cost, 2.0 * model.alpha * solved.raw_cost)
        << rates(model);
  }
}

}  // namespace
}  // namespace dpg
