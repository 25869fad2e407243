// The live replicas of one online flow (solver/online_state.hpp).
//
// Almost every flow holds one to four copies at a time: on the 2,000-taxi
// serve feed a serve finds one live copy 69% of the time, two 28%, three 3%,
// four 0.15% and five almost never.  ReplicaList stores up to
// kInlineReplicas copies in place and moves to the heap only when a flow
// outgrows them, so restarting a flow (a pack or a split) and serving it
// allocate nothing in the common case.  clear() hands a spilled buffer back,
// so a flow keeps no high-water capacity across restarts.
//
// Element order is std::vector's under every operation offered here —
// push_back appends, erase_swap moves the back element into the hole, clear
// empties — because the flow's cost sums run in copy order, and the
// full-precision goldens pin that order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/types.hpp"

namespace dpg {

/// One live replica of a flow.
struct ReplicaCopy {
  ServerId server;
  Time since;
  Time last_use;
};

class ReplicaList {
 public:
  /// Copies held without a heap buffer.
  static constexpr std::uint32_t kInlineReplicas = 4;

  ReplicaList() = default;
  ReplicaList(const ReplicaList&) = delete;
  ReplicaList& operator=(const ReplicaList&) = delete;

  ReplicaList(ReplicaList&& other) noexcept { take(other); }
  ReplicaList& operator=(ReplicaList&& other) noexcept {
    if (this != &other) take(other);
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// True while the copies live in a heap buffer.
  [[nodiscard]] bool spilled() const noexcept { return heap_ != nullptr; }

  [[nodiscard]] ReplicaCopy* begin() noexcept { return data(); }
  [[nodiscard]] ReplicaCopy* end() noexcept { return data() + size_; }
  [[nodiscard]] const ReplicaCopy* begin() const noexcept { return data(); }
  [[nodiscard]] const ReplicaCopy* end() const noexcept {
    return data() + size_;
  }
  [[nodiscard]] ReplicaCopy& operator[](std::size_t i) noexcept {
    return data()[i];
  }
  [[nodiscard]] const ReplicaCopy& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] ReplicaCopy& front() noexcept { return data()[0]; }
  [[nodiscard]] const ReplicaCopy& front() const noexcept {
    return data()[0];
  }

  void push_back(const ReplicaCopy& copy) {
    if (size_ == capacity_) grow();
    data()[size_++] = copy;
  }

  /// Removes copy i by moving the back copy into its place (vector's
  /// `v[i] = v.back(); v.pop_back();`).
  void erase_swap(std::size_t i) noexcept {
    ReplicaCopy* d = data();
    d[i] = d[size_ - 1];
    --size_;
  }

  /// Empties the list and releases a spilled buffer.
  void clear() noexcept {
    size_ = 0;
    heap_.reset();
    capacity_ = kInlineReplicas;
  }

 private:
  [[nodiscard]] ReplicaCopy* data() noexcept {
    return heap_ != nullptr ? heap_.get() : inline_;
  }
  [[nodiscard]] const ReplicaCopy* data() const noexcept {
    return heap_ != nullptr ? heap_.get() : inline_;
  }

  void grow() {
    const std::uint32_t capacity = 2 * capacity_;
    auto heap = std::make_unique_for_overwrite<ReplicaCopy[]>(capacity);
    std::copy_n(data(), size_, heap.get());
    heap_ = std::move(heap);
    capacity_ = capacity;
  }

  void take(ReplicaList& other) noexcept {
    heap_ = std::move(other.heap_);
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (heap_ == nullptr) std::copy_n(other.inline_, size_, inline_);
    other.size_ = 0;
    other.capacity_ = kInlineReplicas;
  }

  std::unique_ptr<ReplicaCopy[]> heap_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineReplicas;
  ReplicaCopy inline_[kInlineReplicas];
};

}  // namespace dpg
