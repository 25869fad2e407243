// Branch-light kernels for the Phase-2 hot loops.
//
// solve_optimal_offline spends its time on the chain from one DP cell to
// the next: C(i) needs min_{k in [p(i), i)} v_k with v_k = C(k) − W(k), and
// v_i needs C(i).  The kernel path keeps that chain free of data-dependent
// branches:
//
//   * the pre-scan (FlowPrescan, one step per point) finds p(i) and writes
//     W, base(i) = μ·(t_i − t_{p(i)}) + W(i−1) and the local-link count
//     L(i), storing the ∞ base of a server's first visit directly
//     (multiplying μ into an ∞ Δt would manufacture NaNs at μ = 0).  Phase
//     2's walks step it as they read each request (prescan_walk);
//     prescan_flow steps it over a built flow;
//   * the forward pass computes only the minimum VALUE of v over the window,
//     from a WindowMin (solver/workspace.hpp).  Windows of at most
//     kRingWindow nodes read two overlapping power-of-two blocks of a
//     WindowMinRing in O(1).  Wider ones are cut at kWideBlock boundaries:
//     the rest of p(i)'s block, then the closed blocks after it from the
//     SuffixMin stack over block minima in O(log n), then the newest block
//     from the ring.  The structure holds v up to i − 2, and v_{i−1} joins
//     the minimum as a register, so the loop-carried chain is a
//     subtraction, two mins, an add and a min;
//   * per node the pass stores only whether D(i) won and that minimum.  The
//     backtrack recovers the split as the LATEST k in [p(i), i) whose v_k
//     equals the minimum — the tie rule of SuffixMin (its push pops `>=`,
//     keeping the newest of any equal run) and of the reference loops.  The
//     scan runs backward from i − 1 over nodes the backtrack then walks as
//     intermediates anyway, so it is O(n) per flow in all.  A plan that is
//     not kept is counted without the walk: a D(i) step with split k serves
//     L(i−1) − L(k) of the nodes between k and i by their local links and
//     the rest by side transfers.
//
// The worst case stays O(n log n) per flow: the ring costs O(1) per push and
// query, closing a block O(kWideBlock) once per kWideBlock pushes, the stack
// O(1) amortized per block and O(log n) per query, and no per-node scan in
// the forward pass is longer than a fixed constant.  Every result is
// bit-identical to the reference loops: min over finite doubles is exact in
// IEEE-754, so the minimum has the same bits however it is grouped, and the
// recovered split is the reference's argmin.
//
// Package walks (walk_package in solver/dp_greedy.cpp) merge a pair's two
// items' events by time with merge_two_event_lists, which advances its
// cursors by comparison results; item walks (solve_single_item) read one
// item's events in order.  Both read contiguous per-item columns
// (RequestSequence::events_for_item), not rows, and step the pre-scan with
// each point; a kept plan also appends the point to the flow.
//
// Cross-checked bit for bit against the `--no-kernels` reference loops,
// which read each request from its row, in tests/kernels_test.cpp and
// tests/kernel_equivalence_test.cpp, and the event merge against the
// k-list merge in tests/list_merge_test.cpp; the
// >=2x single-thread gate lives in bench/bm_solvers.cpp (`dp_kernel`
// section of BENCH_solvers.json).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "core/flow.hpp"
#include "core/types.hpp"
#include "util/error.hpp"

#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define DPG_KERNELS_SSE2 1
#else
#define DPG_KERNELS_SSE2 0
#endif

namespace dpg::kernels {

/// Name of the instruction set the kernels compile to (for telemetry and
/// bench provenance).
[[nodiscard]] inline const char* active_isa() noexcept {
#if DPG_KERNELS_SSE2
  return "sse2";
#else
  return "scalar";
#endif
}

/// `take ? x : 0.0` through a bit mask: the same bits as the ternary, with
/// no branch for the compiler to emit on an unpredictable `take`.
[[nodiscard]] inline double select_or_zero(bool take, double x) noexcept {
  const std::uint64_t mask = std::uint64_t{0} - std::uint64_t{take};
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) & mask);
}

// ---------------------------------------------------------------------------
// Fused pre-scan: p(i), link, w, W and L, one step per point.

/// The node columns the kernel DP reads, one entry per node: node 0 is the
/// origin (server kOriginServer at time 0), node i the flow's point i − 1.
struct NodeColumns {
  Time* times;
  ServerId* servers;
  std::int32_t* prev;  // p(i), or -1 on a server's first visit
  Cost* base;          // μ·(t_i − t_{p(i)}) + W(i−1), ∞ without p(i)
  Cost* w_prefix;      // W(i) = w(1) + ... + w(i)
  /// L(i): the nodes j <= i whose local link is cheaper than a transfer,
  /// μ·(t_j − t_{p(j)}) < λ — the test the backtrack makes.
  std::int32_t* local_links;
};

/// The pre-scan as a per-point step: each step(server, time) appends the
/// flow's next point as node nodes(), so a walk that reads a flow's
/// events can fill the columns as it goes, without building the flow.
/// `last_visit` (server_count entries) is the per-server scratch.  base and
/// W carry the reference's bits: link = μ·Δt is added to W(i−1) first, and
/// W(i) = W(i−1) + min(λ, link).  Each step keeps the checks of a built
/// flow: the server id is in range (as RequestIndex::rebuild checks) and
/// the time is > 0 and above the one before (as validate_flow checks);
/// either throws InvalidArgument.
class FlowPrescan {
 public:
  FlowPrescan(const NodeColumns& out, std::size_t server_count, double mu,
              double lambda, std::int32_t* last_visit)
      : out_(out),
        last_visit_(last_visit),
        server_count_(server_count),
        mu_(mu),
        lambda_(lambda) {
    require(server_count > kOriginServer, "prescan_flow: need >= 1 server");
    std::fill(last_visit, last_visit + server_count, std::int32_t{-1});
    last_visit[kOriginServer] = 0;
    out.times[0] = 0.0;
    out.servers[0] = kOriginServer;
    out.prev[0] = -1;
    out.base[0] = kInfiniteCost;
    out.w_prefix[0] = 0.0;
    out.local_links[0] = 0;
  }

  void step(ServerId server, Time time) {
    require(server < server_count_,
            "prescan_flow: service point server out of range");
    require(time > last_time_,
            "Flow: service times must be strictly increasing and positive");
    const std::size_t i = nodes_++;
    const std::int32_t p = last_visit_[server];
    last_visit_[server] = static_cast<std::int32_t>(i);
    const auto p_node = static_cast<std::size_t>(p);
    const Cost link =
        p >= 0 ? mu_ * (time - out_.times[p_node]) : kInfiniteCost;
    out_.times[i] = time;
    out_.servers[i] = server;
    out_.prev[i] = p;
    out_.base[i] = link + w_prefix_;
    w_prefix_ += std::min(lambda_, link);
    out_.w_prefix[i] = w_prefix_;
    // A first visit's ∞ link is never below λ.
    local_links_ += link < lambda_ ? 1 : 0;
    out_.local_links[i] = local_links_;
    last_time_ = time;
  }

  /// Nodes written so far: the origin and one per point stepped.
  [[nodiscard]] std::size_t nodes() const noexcept { return nodes_; }

 private:
  NodeColumns out_;
  std::int32_t* last_visit_;
  std::size_t server_count_;
  double mu_;
  double lambda_;
  std::size_t nodes_ = 1;
  Time last_time_ = 0.0;
  Cost w_prefix_ = 0.0;
  std::int32_t local_links_ = 0;
};

/// Fills `out` for a flow's `points` (n = points + 1 nodes): one
/// FlowPrescan step per point.
inline void prescan_flow(std::span<const ServicePoint> points,
                         std::size_t server_count, double mu, double lambda,
                         std::int32_t* last_visit, const NodeColumns& out) {
  FlowPrescan scan(out, server_count, mu, lambda, last_visit);
  for (const ServicePoint& point : points) scan.step(point.server, point.time);
}

/// Phase 2's one walk per flow: runs `walk(visit)`, where each
/// visit(server, time) steps `scan` and, when `flow` is set (a kept plan),
/// also appends the point to it after clearing it.  The two visits are
/// separate instantiations, so the plans-off step carries no branch.
template <typename Walk>
void prescan_walk(FlowPrescan& scan, Flow* flow, Walk&& walk) {
  if (flow == nullptr) {
    walk([&scan](ServerId server, Time time) { scan.step(server, time); });
    return;
  }
  flow->points.clear();
  walk([&scan, flow](ServerId server, Time time) {
    scan.step(server, time);
    flow->points.push_back({server, time});
  });
}

// ---------------------------------------------------------------------------
// Window minimum of the most recent values, in O(1) without branches.

/// The minimum over any window of the last kSlots values pushed, from
/// power-of-two blocks: level L keeps min(v_k, ..., v_{k + 2^L − 1}) for
/// each block start k in a ring of kSlots entries.  push(j, x) completes
/// the block ending at j on every level from the one below (one min per
/// level), and min_of(lo, hi) takes the min of the two level-L blocks that
/// cover [lo, hi), L = ⌊log2(hi − lo)⌋.  Each level's row is 2·kSlots
/// long and its upper half holds +∞, which an empty window reads instead
/// of branching.
class WindowMinRing {
 public:
  static constexpr std::size_t kSlots = 128;
  /// Blocks of 1, 2, ..., 64 values: every window narrower than kSlots.
  static constexpr std::size_t kLevels = std::bit_width(kSlots - 1);

  WindowMinRing() noexcept {
    for (double (&level)[2 * kSlots] : levels_) {
      std::fill(std::begin(level), std::end(level), kInfiniteCost);
    }
  }

  /// Appends v_j = x.  Pushes come in index order, one per index.
  void push(std::size_t j, double x) noexcept {
    levels_[0][j & kMask] = x;
    double block = x;
    for (std::size_t level = 1; level < kLevels; ++level) {
      // The level-L block ending at j starts at j + 1 − 2^L; its upper
      // half is the level-(L−1) block just completed.  Early pushes
      // complete blocks that would start before index 0; no query reads
      // them before a real block of the same slot replaces them.
      const std::size_t slot = (j + 1 - (std::size_t{1} << level)) & kMask;
      block = std::min(levels_[level - 1][slot], block);
      levels_[level][slot] = block;
    }
  }

  /// v_j itself, for any of the last kSlots values pushed.
  [[nodiscard]] double value(std::size_t j) const noexcept {
    return levels_[0][j & kMask];
  }

  /// min(v_lo, ..., v_{hi−1}), or +∞ when lo == hi.  Needs hi − lo <
  /// kSlots, every index in [lo, hi) pushed, and no more than kSlots − 1
  /// pushes after lo (so no block of the window has been overwritten).
  [[nodiscard]] double min_of(std::size_t lo, std::size_t hi) const noexcept {
    const std::size_t width = hi - lo;
    // An empty window reads level 0 in the +∞ half: `infinite` is kSlots
    // or 0, and ORing it into a ring slot picks the half.
    const std::size_t infinite = std::size_t{width == 0} * kSlots;
    const auto level =
        static_cast<std::size_t>(std::bit_width(width | 1) - 1);
    const std::size_t first = (lo & kMask) | infinite;
    const std::size_t second =
        ((hi - (std::size_t{1} << level)) & kMask) | infinite;
    return std::min(levels_[level][first], levels_[level][second]);
  }

 private:
  static constexpr std::size_t kMask = kSlots - 1;
  double levels_[kLevels][2 * kSlots];
};

/// WindowMin (solver/workspace.hpp) reads windows of fewer than this many
/// values from the ring.  The forward pass asks for [p(i), i − 1), so D(i)
/// windows of at most kRingWindow nodes take the ring.  Windows are about
/// n/m nodes on average (a mean of 39, and 90% at most 97, on the
/// 2,000-taxi benchmark trace).
inline constexpr std::size_t kRingWindow = WindowMinRing::kSlots;

/// Wider windows are read in aligned blocks of this many values.
inline constexpr std::size_t kWideBlock = 64;
static_assert(2 * kWideBlock <= kRingWindow,
              "a wide window must hold a whole block past its first one");

// ---------------------------------------------------------------------------
// Event merge (Phase-2 package walks).

/// merge_item_lists at k = 2 (core/request.hpp) over two items' events,
/// merged by time: visit(holders, server, time) runs once per distinct
/// time of `a` and `b`, in ascending order, with holders {0}, {1} or
/// {0, 1} and `server` read from the first holder's event.  Times strictly
/// increase across a sequence's requests, so a time both lists hold is one
/// request holding both items.  Each step advances the cursors by its two
/// comparisons instead of branching on them.  The event columns are
/// contiguous, so the walk needs no prefetch.
template <typename Visit>
void merge_two_event_lists(ItemEvents a, ItemEvents b, Visit&& visit) {
  static constexpr std::size_t kHolders[2] = {0, 1};
  const std::span<const std::size_t> only_a(kHolders, 1);
  const std::span<const std::size_t> only_b(kHolders + 1, 1);
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < na && ib < nb) {
    const Time time_a = a.times[ia];
    const Time time_b = b.times[ib];
    const bool in_a = time_a <= time_b;
    const bool in_b = time_b <= time_a;
    const ServerId server = in_a ? a.servers[ia] : b.servers[ib];
    ia += in_a ? 1 : 0;
    ib += in_b ? 1 : 0;
    visit(std::span<const std::size_t>(kHolders + (in_a ? 0 : 1),
                                       (in_a ? 1u : 0u) + (in_b ? 1u : 0u)),
          server, in_a ? time_a : time_b);
  }
  for (; ia < na; ++ia) visit(only_a, a.servers[ia], a.times[ia]);
  for (; ib < nb; ++ib) visit(only_b, b.servers[ib], b.times[ib]);
}

// ---------------------------------------------------------------------------
// Greedy serve choices (Phase-2 singleton / partial-request passes).

/// Indices into the three-way serve choice, in reference tie order:
/// cache wins any tie, then transfer over package.
enum ServeChoiceIndex : std::uint8_t {
  kChoiceCache = 0,
  kChoiceTransfer = 1,
  kChoicePackage = 2,
};

/// The dp_greedy singleton decision as straight-line selects: cache if it
/// ties-or-beats both, else transfer if it ties-or-beats package, else
/// package.  Identical to the reference if/else chain.
[[nodiscard]] inline ServeChoiceIndex serve_choice3(Cost cache, Cost transfer,
                                                    Cost package,
                                                    Cost* cost) noexcept {
  const bool take_cache = cache <= transfer && cache <= package;
  const bool take_transfer = !take_cache && transfer <= package;
  *cost = take_cache ? cache : (take_transfer ? transfer : package);
  return take_cache ? kChoiceCache
                    : (take_transfer ? kChoiceTransfer : kChoicePackage);
}

/// The group-solver per-slot decision: cheaper of cache/transfer, flagging
/// a strict transfer win (the reference charges λ only on `transfer <
/// cache`, so a tie counts as cache).
[[nodiscard]] inline Cost min_cache_transfer(Cost cache, Cost transfer,
                                             bool* took_transfer) noexcept {
  *took_transfer = transfer < cache;
  return std::min(cache, transfer);
}

// ---------------------------------------------------------------------------
// Jaccard row (online repack candidate scan).

/// out[b] = |a ∩ b| / |a ∪ b| over windowed counts for b in [b_begin, k):
/// one dense row pass with the division blended against the empty-union
/// case, replacing the per-pair function call + branch of the reference
/// (jaccard_similarity in solver/correlation.cpp — same expression, same
/// bits).
inline void jaccard_row(const std::size_t* freq, const std::size_t* co_row,
                        std::size_t freq_a, std::size_t b_begin,
                        std::size_t k, double* out) {
  for (std::size_t b = b_begin; b < k; ++b) {
    const std::size_t co = co_row[b];
    const std::size_t union_size = freq_a + freq[b] - co;
    out[b] = union_size == 0 ? 0.0
                             : static_cast<double>(co) /
                                   static_cast<double>(union_size);
  }
}

}  // namespace dpg::kernels
