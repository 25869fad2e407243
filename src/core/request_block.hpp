// RequestBlock — a bounded CSR slice of a request stream, the unit of work
// a serve decode shard hands to an engine partition.
//
// Same columnar shape as a RequestSequence (servers[], times[], one items
// pool indexed by offsets[]), but sized to a batch and reusable: the decode
// stage fills a block, the engine consumes it via push_batch, and the empty
// block travels back for refilling — steady state allocates nothing once
// the columns reach their working capacity.
//
// Two storage modes, mirroring RequestSequence:
//   * owned  — begin_row/push_item/end_row append into owned vectors (the
//     CSV decode path; end_row canonicalizes exactly like
//     SequenceBuilder::end_request, so rows leave sorted and unique);
//   * viewed — adopt() points the block at external CSR columns without
//     copying (the `.dpt` replay path slices the mmap'ed sequence columns
//     zero-copy; offsets may be absolute into the backing pool).
//
// Invariant either way: every row's item set is sorted and duplicate-free,
// which is what lets OnlineDpGreedyState::push_batch feed rows straight to
// the solver without a canonicalization pass.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/error.hpp"

namespace dpg {

class RequestBlock {
 public:
  RequestBlock() = default;

  /// Rows currently in the block.
  [[nodiscard]] std::size_t size() const noexcept {
    return viewed_ ? servers_v_.size() : servers_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Total item accesses across all rows.
  [[nodiscard]] std::size_t total_items() const noexcept {
    if (viewed_) return offsets_v_[size()] - offsets_v_[0];
    return items_pool_.size();
  }

  [[nodiscard]] ServerId server_of(std::size_t i) const noexcept {
    return viewed_ ? servers_v_[i] : servers_[i];
  }
  [[nodiscard]] Time time_of(std::size_t i) const noexcept {
    return viewed_ ? times_v_[i] : times_[i];
  }
  /// Row i's item set — sorted, duplicate-free.
  [[nodiscard]] std::span<const ItemId> items_of(std::size_t i) const noexcept {
    if (viewed_) {
      return {pool_base_ + offsets_v_[i], offsets_v_[i + 1] - offsets_v_[i]};
    }
    return {items_pool_.data() + item_offsets_[i],
            item_offsets_[i + 1] - item_offsets_[i]};
  }

  // --- owned mode (decode stage) -------------------------------------------

  /// Resets to an empty owned block, keeping column capacity for reuse.
  void clear() noexcept {
    viewed_ = false;
    row_open_ = false;
    servers_.clear();
    times_.clear();
    items_pool_.clear();
    item_offsets_.clear();
    servers_v_ = {};
    times_v_ = {};
    offsets_v_ = {};
    pool_base_ = nullptr;
  }

  /// Pre-sizes the owned columns for `rows` requests / `items` accesses.
  void reserve(std::size_t rows, std::size_t items) {
    servers_.reserve(rows);
    times_.reserve(rows);
    item_offsets_.reserve(rows + 1);
    items_pool_.reserve(items);
  }

  /// Streaming append: open a row, push its item ids, close it.  end_row
  /// sorts and deduplicates (the 1–2 item fast paths skip the sort call).
  void begin_row(ServerId server, Time time) {
    require(!viewed_, "RequestBlock: appending to a viewed block");
    require(!row_open_, "RequestBlock: begin_row with a row open");
    if (item_offsets_.empty()) item_offsets_.push_back(0);
    servers_.push_back(server);
    times_.push_back(time);
    row_open_ = true;
  }
  void push_item(ItemId item) {
    require(row_open_, "RequestBlock: push_item without begin_row");
    items_pool_.push_back(item);
  }
  void end_row() {
    require(row_open_, "RequestBlock: end_row without begin_row");
    row_open_ = false;
    const std::size_t begin = item_offsets_.back();
    const std::size_t count = items_pool_.size() - begin;
    if (count == 2) {
      ItemId& a = items_pool_[begin];
      ItemId& b = items_pool_[begin + 1];
      if (a > b) std::swap(a, b);
      if (a == b) items_pool_.pop_back();
    } else if (count > 2) {
      const auto first =
          items_pool_.begin() + static_cast<std::ptrdiff_t>(begin);
      std::sort(first, items_pool_.end());
      items_pool_.erase(std::unique(first, items_pool_.end()),
                        items_pool_.end());
    }
    item_offsets_.push_back(items_pool_.size());
  }

  /// Discards a half-open row (begin_row without end_row), restoring the
  /// block to its state before begin_row.  No-op when no row is open.  This
  /// is how the decode stage drops a row whose server/time parsed but whose
  /// item list turned out malformed, without poisoning the valid prefix.
  void abort_row() noexcept {
    if (!row_open_) return;
    row_open_ = false;
    servers_.pop_back();
    times_.pop_back();
    items_pool_.resize(item_offsets_.back());  // non-empty since begin_row
  }

  /// Convenience for tests and small fixtures (canonicalizes via end_row).
  void append_row(ServerId server, Time time, std::span<const ItemId> items) {
    begin_row(server, time);
    for (const ItemId item : items) push_item(item);
    end_row();
  }

  // --- viewed mode (zero-copy replay) --------------------------------------

  /// Points the block at external CSR columns without copying.  `offsets`
  /// has rows+1 entries and may index anywhere into the pool that `pool`
  /// spans (a sequence's absolute item_offsets work verbatim).  The caller
  /// keeps the backing storage alive while the block is in flight; rows
  /// must already be sorted and duplicate-free.
  void adopt(std::span<const ServerId> servers, std::span<const Time> times,
             std::span<const ItemOffset> offsets,
             std::span<const ItemId> pool) noexcept {
    viewed_ = true;
    row_open_ = false;
    servers_v_ = servers;
    times_v_ = times;
    offsets_v_ = offsets;
    pool_base_ = pool.data();
  }

 private:
  bool viewed_ = false;
  bool row_open_ = false;

  // Owned columns (decode path); capacity survives clear().
  std::vector<ServerId> servers_;
  std::vector<Time> times_;
  std::vector<ItemId> items_pool_;
  std::vector<std::size_t> item_offsets_;  // rows + 1 once any row closed

  // Views (replay path).
  std::span<const ServerId> servers_v_;
  std::span<const Time> times_v_;
  std::span<const ItemOffset> offsets_v_;
  const ItemId* pool_base_ = nullptr;
};

}  // namespace dpg
