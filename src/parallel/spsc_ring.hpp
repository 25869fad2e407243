// Bounded single-producer / single-consumer ring — the hand-off between a
// serve decode shard and an engine partition (engine/sharded_serve.hpp).
//
// The classic two-index design: the producer owns `head_` (next write slot),
// the consumer owns `tail_` (next read slot), each published with release
// stores and observed with acquire loads, so the slot contents written
// before a push are visible to the pop that claims them.  Both indices are
// monotonically increasing and reduced modulo the (power-of-two) capacity on
// access, which sidesteps the classic "full vs empty" ambiguity without
// wasting a slot.
//
// Why not a mutex + deque: the ring is on the ingest hot path, where a
// blocked producer means the trace decoder stalls.  Here the uncontended
// push/pop cost is two relaxed loads and one release store, no allocation,
// and the only waiting is explicit (the blocking push/pop variants spin
// briefly, then yield, then sleep — and count every wait as backpressure,
// so `ring.enqueue_blocked` / `ring.dequeue_blocked` in the metrics tell
// which stage is the bottleneck).
//
// Each index lives on its own cache line together with the owner's cached
// copy of the *other* index, so steady-state pushes/pops do not ping-pong a
// shared line: the producer re-reads the consumer's index only when the ring
// looks full against the cached value (and vice versa).
//
// Thread contract: exactly one producer thread calls try_push/push/close,
// exactly one consumer thread calls try_pop/pop.  size()/capacity() and the
// backpressure counters may be read from anywhere (relaxed).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace dpg {

// A fixed 64 rather than std::hardware_destructive_interference_size: the
// library's ABI must not vary with compiler version or -mtune (GCC warns
// about exactly that), and 64 is the destructive-interference granularity
// on every x86-64 and the common AArch64 cores.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Spin -> yield -> sleep, so a stalled peer costs microseconds of latency,
/// not a busy core.  Shared by the ring's blocking calls and the serve
/// runtime's partition sweep.
struct RingBackoff {
  unsigned round = 0;
  void wait() {
    if (round < 64) {
      // Busy spin: the peer is typically one batch away.
    } else if (round < 256) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ++round;
  }
};

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (>= 2).
  explicit SpscRing(std::size_t capacity) {
    require(capacity > 0, "SpscRing: capacity must be >= 1");
    std::size_t rounded = 2;
    while (rounded < capacity) rounded *= 2;
    mask_ = rounded - 1;
    slots_.resize(rounded);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Occupied slots right now (approximate under concurrency; exact when
  /// the other side is quiescent).
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t head = head_.index.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.index.load(std::memory_order_acquire);
    return static_cast<std::size_t>(head - tail);
  }

  /// Producer: attempts to move `value` into the ring.  False when full
  /// (value is left intact) or when the ring is closed.
  [[nodiscard]] bool try_push(T& value) {
    if (closed_.load(std::memory_order_relaxed)) return false;
    const std::uint64_t head = head_.index.load(std::memory_order_relaxed);
    if (head - head_.cached_other >= capacity()) {
      head_.cached_other = tail_.index.load(std::memory_order_acquire);
      if (head - head_.cached_other >= capacity()) return false;
    }
    slots_[static_cast<std::size_t>(head) & mask_] = std::move(value);
    head_.index.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer: blocking push.  Spins, yields, then sleeps until a slot
  /// frees up; each wait round counts once as backpressure.  Returns false
  /// only if the ring was closed while waiting (value left intact).
  bool push(T& value) {
    if (try_push(value)) return true;
    blocked_push_.fetch_add(1, std::memory_order_relaxed);
    RingBackoff backoff;
    while (!try_push(value)) {
      if (closed_.load(std::memory_order_acquire)) return false;
      backoff.wait();
    }
    return true;
  }

  /// Consumer: attempts to move the oldest element out.  False when empty.
  [[nodiscard]] bool try_pop(T& out) {
    const std::uint64_t tail = tail_.index.load(std::memory_order_relaxed);
    if (tail == tail_.cached_other) {
      tail_.cached_other = head_.index.load(std::memory_order_acquire);
      if (tail == tail_.cached_other) return false;
    }
    out = std::move(slots_[static_cast<std::size_t>(tail) & mask_]);
    tail_.index.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer: blocking pop.  Waits until an element arrives; returns false
  /// when the ring is closed *and* drained (the end-of-stream signal).
  bool pop(T& out) {
    if (try_pop(out)) return true;
    blocked_pop_.fetch_add(1, std::memory_order_relaxed);
    RingBackoff backoff;
    for (;;) {
      if (try_pop(out)) return true;
      // Order matters: re-check contents after observing the closed flag,
      // or elements pushed just before close() could be dropped.
      if (closed_.load(std::memory_order_acquire)) return try_pop(out);
      backoff.wait();
    }
  }

  /// Producer: signals end of stream.  Pending elements stay poppable; a
  /// blocked consumer wakes up and drains them, then pop() returns false.
  void close() noexcept { closed_.store(true, std::memory_order_release); }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  /// Backpressure counters: how many pushes/pops entered a blocking wait.
  [[nodiscard]] std::uint64_t push_blocked() const noexcept {
    return blocked_push_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t pop_blocked() const noexcept {
    return blocked_pop_.load(std::memory_order_relaxed);
  }

 private:
  /// An index plus its owner's cached copy of the peer index, padded to a
  /// cache line so producer and consumer never share one.
  struct alignas(kCacheLineBytes) PaddedIndex {
    std::atomic<std::uint64_t> index{0};
    std::uint64_t cached_other = 0;  // owner-thread private
  };

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  PaddedIndex head_;  // producer-owned
  PaddedIndex tail_;  // consumer-owned
  alignas(kCacheLineBytes) std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> blocked_push_{0};
  std::atomic<std::uint64_t> blocked_pop_{0};
};

}  // namespace dpg
