// Incremental sliding-window correlation for the online/streaming path.
//
// The offline Phase 1 (solver/correlation.hpp) counts pair co-occurrence
// over the whole trace in one batch pass.  WindowedCorrelation maintains the
// same statistics over only the last `window` requests, updated one request
// at a time: add() pushes a request's item set into a ring buffer, bumps its
// item frequencies and pair co-occurrence counts, and evicts the request
// that slid out of the window with the mirror-image decrements.  Pair counts
// live in the same sparse open-addressing PairCountMap the batch pass uses;
// a pair is erased when its last co-occurrence leaves the window, so memory
// is O(window · mean items/request + k + peak live pairs) — bounded by the
// item universe and the window, never by the stream length or by the pairs
// seen long ago.
//
// jaccard() computes exactly the expression of Eq. (5) via
// jaccard_similarity(), so a decision made from this class is bit-identical
// to one made from the dense k×k window matrix the pre-streaming
// implementation kept (see tests/streaming_engine_test.cpp's goldens).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "solver/correlation.hpp"

namespace dpg {

class WindowedCorrelation {
 public:
  /// `window` is the number of most recent requests retained (>= 1).
  WindowedCorrelation(std::size_t item_count, std::size_t window);

  /// Slides the window forward by one request: counts `items` (sorted,
  /// duplicate-free — a RequestSequence row) and evicts the request that
  /// fell off the back, if the window is full.
  void add(std::span<const ItemId> items);

  /// Grows the item universe to at least `item_count` (streaming fronts
  /// discover items as they arrive).  Never shrinks.
  void ensure_item_count(std::size_t item_count);

  [[nodiscard]] std::size_t item_count() const noexcept {
    return frequency_.size();
  }
  [[nodiscard]] std::size_t window() const noexcept { return window_; }
  /// Requests currently inside the window (== min(adds, window)).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// |d_a| restricted to the window.
  [[nodiscard]] std::size_t frequency(ItemId item) const noexcept {
    return frequency_[item];
  }
  /// |(d_a, d_b)| restricted to the window.
  [[nodiscard]] std::size_t co_frequency(ItemId a, ItemId b) const noexcept {
    return co_counts_.count(PairCountMap::pack(a, b));
  }
  /// Windowed Jaccard J(a, b) — Eq. (5) over the window's counts.
  [[nodiscard]] double jaccard(ItemId a, ItemId b) const noexcept {
    return jaccard_similarity(frequency_[a], frequency_[b],
                              co_frequency(a, b));
  }

  /// Invokes `fn(a, b, co)` for every pair with co_freq > 0 in the window,
  /// in unspecified order (a < b).  The candidate enumeration of an epoch
  /// re-pack: any pair that can clear a θ > 0 threshold co-occurs, so this
  /// visits every possible candidate.  The map stores only pairs live in
  /// the window, so the walk costs O(peak live pairs), not O(k²) and not
  /// O(pairs ever seen).
  template <typename Fn>
  void for_each_co_pair(Fn&& fn) const {
    co_counts_.for_each([&fn](std::uint64_t key, std::size_t count) {
      fn(PairCountMap::unpack_a(key), PairCountMap::unpack_b(key), count);
    });
  }

  /// Ring-slot reallocation events so far — the windowed analogue of the
  /// trace.build_allocs counter: constant once every slot has seen its
  /// largest row, observable proof the window reaches an allocation-free
  /// steady state.
  [[nodiscard]] std::uint64_t alloc_events() const noexcept {
    return alloc_events_;
  }

 private:
  void bump(std::span<const ItemId> items);
  void evict(std::span<const ItemId> items);

  std::size_t window_;
  std::size_t size_ = 0;  // occupied ring slots
  std::size_t head_ = 0;  // next slot to write (== oldest when full)
  std::vector<std::vector<ItemId>> ring_;  // capacity reused across laps
  std::vector<std::size_t> frequency_;     // per-item counts in the window
  PairCountMap co_counts_;                 // pair counts in the window
  std::uint64_t alloc_events_ = 0;
};

}  // namespace dpg
