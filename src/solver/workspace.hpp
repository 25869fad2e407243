// Reusable scratch state for the per-flow solvers.
//
// Phase 2 of DP_Greedy runs one independent optimal-offline DP per package
// and per unpacked item.  Each solve needs the same family of buffers — the
// flow being built, the Section-V pre-scan index, the w/W/C/choice arrays
// and the suffix-min stack — and a fresh solve would otherwise allocate all
// of them from scratch.  A SolverWorkspace owns that scratch; threading one
// through repeated solves makes the steady state allocation-free: every
// buffer is assign()ed/clear()ed in place and only grows when a flow larger
// than anything seen before arrives.
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

/// One greedy decision for the second item of a package, made during the
/// one walk over the pair's requests and held until the first item's
/// decisions are summed (solver/dp_greedy.cpp).
struct StagedDecision {
  std::size_t request_index = 0;
  Cost cost = 0.0;
  std::uint8_t choice = 0;  // kernels::ServeChoiceIndex
};

/// The reusable scratch of one solver "lane".
struct SolverWorkspace {
  /// Flow-build buffer: make_item_flow / make_package_flow write here.
  Flow flow;

  /// Section-V pre-scan index, rebuilt in place per solve.
  RequestIndex index;

  // Offline-DP arrays, assign()ed per solve.
  std::vector<Cost> w;         // per-node intermediate service cost w(j)
  std::vector<Cost> w_prefix;  // prefix sums W(i)
  std::vector<Cost> c;         // optimal costs C(i)
  std::vector<DpChoice> choice;
  SuffixMin suffix;

  // Kernel-path columns (solver/kernels.hpp): same-server predecessor,
  // link costs μ·Δt, and the dense v_k = C(k) − W(k) the window scan reads.
  std::vector<std::int32_t> prev;
  std::vector<Cost> link;
  std::vector<Cost> v;

  /// Per-server recency scratch of the Phase-2 greedy decisions: one
  /// item's (scalar reference) or a package's two items', interleaved.
  std::vector<Time> server_times;

  /// The second item's decisions of the package walk.
  std::vector<StagedDecision> staged;
};

}  // namespace dpg
