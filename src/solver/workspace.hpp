// Reusable scratch state for the per-flow solvers.
//
// Phase 2 of DP_Greedy runs one independent optimal-offline DP per package
// and per unpacked item.  Each solve needs the same family of buffers — the
// flow being built, the pre-scan node columns, the per-node DP records and
// the window minima — and a fresh solve would otherwise allocate all of them
// from scratch.  A SolverWorkspace owns that scratch; threading one through
// repeated solves makes the steady state allocation-free: every buffer is
// assign()ed/clear()ed in place and only grows when a flow larger than
// anything seen before arrives.
//
// Contract: a workspace may be reused across any number of solves of any
// flows (results are bit-identical to workspace-free solves — see
// tests/optimal_offline_test.cpp), but it must not be shared between
// concurrent solves.  In parallel Phase 2 each worker chunk owns one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "core/request_index.hpp"
#include "core/types.hpp"
#include "solver/kernels.hpp"

namespace dpg {

/// Per-node backtracking record of the offline DP (C(i) recurrence).
struct DpChoice {
  bool via_line = false;       // true: D(i) with split k; false: Tr(i)
  std::int32_t split_k = -1;   // predecessor state for the D choice
};

/// Monotonic-stack suffix-minimum structure over values v_k = C(k) − W(k).
/// Push happens in index order; query(l) returns min_{k in [l, last]} v_k.
/// After pops the stack keeps (index, value) with values strictly increasing
/// bottom→top, so the answer to query(l) is the first entry with index >= l.
class SuffixMin {
 public:
  void clear() noexcept { entries_.clear(); }

  void push(std::int32_t index, double value) {
    while (!entries_.empty() && entries_.back().second >= value) {
      entries_.pop_back();
    }
    entries_.emplace_back(index, value);
  }

  [[nodiscard]] std::pair<std::int32_t, double> query(std::int32_t lo) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), lo,
        [](const std::pair<std::int32_t, double>& e, std::int32_t l) {
          return e.first < l;
        });
    if (it == entries_.end()) return {-1, kInfiniteCost};
    return *it;
  }

 private:
  std::vector<std::pair<std::int32_t, double>> entries_;
};

/// The kernel DP's window minima: min_from(lo) = min(v_lo, ..., v_{n−1})
/// over the n values pushed so far, in index order.  A window of fewer
/// than kernels::kRingWindow values is two blocks of the ring: O(1), no
/// branch.  A wider one is cut at kernels::kWideBlock boundaries: the rest
/// of lo's block (suffix minima written when the block closed), the closed
/// blocks after it (a SuffixMin stack over block minima, one push per
/// block, O(log n) query), and the newest block's start (the ring again).
/// Same value as SuffixMin::query(lo).second, with no per-value stack push.
class WindowMin {
 public:
  /// Forgets every value; capacity is kept.
  void clear() noexcept {
    size_ = 0;
    blocks_.clear();
  }

  /// Appends v_n = x.
  void push(double x) {
    constexpr std::size_t kBlock = kernels::kWideBlock;
    ring_.push(size_, x);
    ++size_;
    if (size_ % kBlock != 0) return;
    // x closes its block: write the block's suffix minima from the ring,
    // which still holds the whole block, and push the block's minimum.
    if (block_suffix_.size() < size_) block_suffix_.resize(size_);
    double block_min = kInfiniteCost;
    for (std::size_t k = size_; k-- > size_ - kBlock;) {
      block_min = std::min(block_min, ring_.value(k));
      block_suffix_[k] = block_min;
    }
    blocks_.push(static_cast<std::int32_t>(size_ / kBlock - 1), block_min);
  }

  /// min(v_lo, ..., v_{n−1}); +∞ when lo == n.
  [[nodiscard]] double min_from(std::size_t lo) const {
    constexpr std::size_t kBlock = kernels::kWideBlock;
    if (size_ - lo < kernels::kRingWindow) return ring_.min_of(lo, size_);
    // lo's block closed at least a block before the newest value, so the
    // three parts cover [lo, n) (the last two may overlap) and nothing
    // outside it.
    const std::size_t newest_block = (size_ - 1) / kBlock * kBlock;
    const double closed_blocks =
        blocks_.query(static_cast<std::int32_t>(lo / kBlock + 1)).second;
    return std::min(block_suffix_[lo],
                    std::min(closed_blocks, ring_.min_of(newest_block, size_)));
  }

 private:
  kernels::WindowMinRing ring_;
  std::vector<double> block_suffix_;
  SuffixMin blocks_;
  std::size_t size_ = 0;
};

/// One greedy decision of a package's item, made during the one walk over
/// the pair's events and held until the walk ends, when the first item's
/// decisions are summed before the second's (solver/dp_greedy.cpp).
struct StagedDecision {
  Time time = 0.0;  // the request's time, which names it
  Cost cost = 0.0;
  std::uint8_t choice = 0;  // kernels::ServeChoiceIndex
};

/// The reusable scratch of one solver "lane".
struct SolverWorkspace {
  /// Flow-build buffer: Phase 2's kept-plan and reference walks and the
  /// per-item solvers' make_item_flow write here.
  Flow flow;

  /// Section-V pre-scan index, rebuilt in place per solve (the reference
  /// DP and the greedy baseline).
  RequestIndex index;

  // Reference-DP arrays, assign()ed per solve.
  std::vector<Cost> w;         // per-node intermediate service cost w(j)
  std::vector<Cost> w_prefix;  // prefix sums W(i); the kernel path's too
  std::vector<Cost> c;         // optimal costs C(i)
  std::vector<DpChoice> choice;
  SuffixMin suffix;

  // Kernel-path node columns (kernels::FlowPrescan) and per-node records:
  // v_k = C(k) − W(k), whether D(i) won, and D(i)'s window minimum, from
  // which the backtrack recovers the split.
  std::vector<Time> times;
  std::vector<ServerId> servers;
  std::vector<std::int32_t> prev;
  std::vector<Cost> base;
  std::vector<std::int32_t> local_links;
  std::vector<Cost> v;
  std::vector<std::uint8_t> via_line;
  std::vector<Cost> line_min;
  std::vector<std::int32_t> last_visit;  // per server, during the pre-scan
  WindowMin windows;

  /// The kernel path's node columns for a flow of up to `nodes` nodes over
  /// `server_count` servers.  The columns and per-node records only grow,
  /// so a walk can size them for its bound before it knows the flow's
  /// length, and a reused workspace never refills them.
  kernels::NodeColumns node_columns(std::size_t nodes,
                                    std::size_t server_count) {
    if (times.size() < nodes) {
      times.resize(nodes);
      servers.resize(nodes);
      prev.resize(nodes);
      base.resize(nodes);
      local_links.resize(nodes);
      v.resize(nodes);
      via_line.resize(nodes);
      line_min.resize(nodes);
    }
    if (w_prefix.size() < nodes) w_prefix.resize(nodes);
    if (last_visit.size() < server_count) last_visit.resize(server_count);
    return kernels::NodeColumns{times.data(),    servers.data(),
                                prev.data(),     base.data(),
                                w_prefix.data(), local_links.data()};
  }

  /// Per-server recency scratch of the Phase-2 greedy decisions: one
  /// item's (scalar reference) or a package's two items', interleaved.
  std::vector<Time> server_times;

  /// Both items' decisions of the package walk, one run per item.
  std::vector<StagedDecision> staged;
};

}  // namespace dpg
