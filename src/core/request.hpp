// Requests and request sequences (Section III-A).
//
// A request r_i = <s_i, t_i, D_i> asks for the item subset D_i at server s_i
// at time t_i.  A RequestSequence is the offline input of the problem: the
// full spatio-temporal trajectory, strictly ordered by time (the paper
// assumes at most one request per time instance).
//
// Storage is a flat CSR (structure-of-arrays) layout: one servers_[] array,
// one times_[] array, and a single items pool indexed by item_offsets_[]
// (n + 1 entries), so walking a sequence touches contiguous memory and a
// sequence of n requests costs O(1) owning arrays instead of n item vectors.
// Each item's requests are also kept as *events*: per_item_offsets_[] (k + 1
// entries) cuts two pools, per_item_times_[] and per_item_servers_[], into
// one contiguous run per item in time order, so every flow reads an item's
// requests without gathering rows.  Times strictly increase across the
// rows, so an event's time names its request.  `Request` is a lightweight
// non-owning view into the row arrays.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "util/error.hpp"

namespace dpg {

/// One timed request for a subset of items at one server — a non-owning view
/// into a RequestSequence's CSR arrays (32 bytes, pass by value).
struct Request {
  ServerId server = 0;
  Time time = 0.0;
  std::span<const ItemId> items;  // sorted, unique

  [[nodiscard]] bool contains(ItemId item) const noexcept;
};

/// Build-side owning request used to construct sequences item-vector-first
/// (tests, small fixtures).  Bulk producers should prefer SequenceBuilder's
/// streaming API, which never materializes per-request vectors.
struct RequestDraft {
  ServerId server = 0;
  Time time = 0.0;
  std::vector<ItemId> items;
};

/// One item's requests in time order, as two parallel contiguous views:
/// times[j] and servers[j] are the time and server of the item's j-th
/// request (the request at time times[j]).
struct ItemEvents {
  std::span<const Time> times;
  std::span<const ServerId> servers;

  [[nodiscard]] std::size_t size() const noexcept { return times.size(); }
};

/// The seven columns of a RequestSequence, as non-owning views.  Used by
/// the binary trace reader (trace/dpt.cpp) to hand a sequence columns that
/// live in an mmap'ed file, and by callers that want the raw arrays.
struct SequenceColumns {
  std::span<const ServerId> servers;               // n
  std::span<const Time> times;                     // n
  std::span<const ItemId> items_pool;              // A = Σ|d_i|
  std::span<const ItemOffset> item_offsets;        // n + 1
  std::span<const std::size_t> per_item_offsets;   // k + 1
  std::span<const Time> per_item_times;            // A
  std::span<const ServerId> per_item_servers;      // A
};

/// The validated offline input: m servers, k items, n requests in strictly
/// increasing time order.  Item 0..k-1 all start on server 0 at time 0.
///
/// Storage is either *owned* (the usual constructors and SequenceBuilder) or
/// *borrowed* (adopt_columns): every accessor reads through span views that
/// point at the owned vectors or at an external buffer kept alive by a
/// type-erased keeper.  Borrowed sequences are what the `.dpt` mmap path
/// produces — opening a multi-GB trace touches no column bytes at all.
class RequestSequence {
 public:
  /// Validates and flattens into the CSR layout.  Requirements: strictly
  /// increasing times > 0, server ids < server_count, item ids < item_count,
  /// item sets non-empty / sorted / duplicate-free.  Throws InvalidArgument.
  RequestSequence(std::size_t server_count, std::size_t item_count,
                  std::vector<RequestDraft> requests);

  // Views must be re-pointed at the owned vectors whenever those move, so
  // copies/moves are explicit (all O(1) except the owning copy).
  RequestSequence(const RequestSequence& other);
  RequestSequence(RequestSequence&& other) noexcept;
  RequestSequence& operator=(const RequestSequence& other);
  RequestSequence& operator=(RequestSequence&& other) noexcept;
  ~RequestSequence() = default;

  /// Adopts externally stored columns without copying them.  `keeper` owns
  /// the storage (e.g. an mmap'ed file) and is held until every copy of the
  /// sequence is gone.  The column sizes are always checked.  The contents
  /// are trusted: the caller must have checked that both offsets columns
  /// start at 0, end at their pool's size and never decrease, that every id
  /// is in range, every row is non-empty with strictly ascending items, the
  /// times are strictly increasing, finite and > 0, each item has as many
  /// events as rows that hold it, and each item's event times are strictly
  /// ascending, finite and > 0 (the `.dpt` open checks all of it in its
  /// verification pass).  `verify_columns` also cross-checks the events and
  /// their offsets bit for bit against a rebuild from the rows, the one
  /// check that each event is the request it stands for.  Throws
  /// InvalidArgument on any inconsistency found.
  [[nodiscard]] static RequestSequence adopt_columns(
      std::size_t server_count, std::size_t item_count,
      const SequenceColumns& columns, std::shared_ptr<const void> keeper,
      bool verify_columns = false);

  [[nodiscard]] std::size_t server_count() const noexcept { return server_count_; }
  [[nodiscard]] std::size_t item_count() const noexcept { return item_count_; }
  [[nodiscard]] std::size_t size() const noexcept { return servers_v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return servers_v_.empty(); }

  /// True when the columns are views into an external buffer (mmap path).
  [[nodiscard]] bool borrows_storage() const noexcept {
    return keeper_ != nullptr;
  }

  [[nodiscard]] Request operator[](std::size_t i) const noexcept {
    return Request{servers_v_[i], times_v_[i], items_of(i)};
  }

  /// The item set of request `i` — a view into the contiguous items pool.
  [[nodiscard]] std::span<const ItemId> items_of(std::size_t i) const noexcept {
    return {items_pool_v_.data() + item_offsets_v_[i],
            item_offsets_v_[i + 1] - item_offsets_v_[i]};
  }
  [[nodiscard]] ServerId server_of(std::size_t i) const noexcept {
    return servers_v_[i];
  }
  [[nodiscard]] Time time_of(std::size_t i) const noexcept {
    return times_v_[i];
  }

  /// The raw column arrays (for vectorized passes over the whole sequence).
  [[nodiscard]] std::span<const ServerId> servers() const noexcept {
    return servers_v_;
  }
  [[nodiscard]] std::span<const Time> times() const noexcept {
    return times_v_;
  }

  /// All seven columns at once (what the `.dpt` writer serializes).
  [[nodiscard]] SequenceColumns columns() const noexcept {
    return SequenceColumns{servers_v_,          times_v_,
                           items_pool_v_,       item_offsets_v_,
                           per_item_offsets_v_, per_item_times_v_,
                           per_item_servers_v_};
  }

  /// Forward iterator yielding Request views by value.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Request;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Request;

    const_iterator() = default;
    [[nodiscard]] Request operator*() const noexcept { return (*seq_)[i_]; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator copy = *this;
      ++i_;
      return copy;
    }
    [[nodiscard]] bool operator==(const const_iterator&) const noexcept =
        default;

   private:
    friend class RequestSequence;
    const_iterator(const RequestSequence* seq, std::size_t i) noexcept
        : seq_(seq), i_(i) {}
    const RequestSequence* seq_ = nullptr;
    std::size_t i_ = 0;
  };

  /// Lightweight iterable over the sequence's Request views.
  class RequestRange {
   public:
    [[nodiscard]] const_iterator begin() const noexcept {
      return {seq_, 0};
    }
    [[nodiscard]] const_iterator end() const noexcept {
      return {seq_, seq_->size()};
    }
    [[nodiscard]] std::size_t size() const noexcept { return seq_->size(); }
    [[nodiscard]] bool empty() const noexcept { return seq_->empty(); }
    [[nodiscard]] Request operator[](std::size_t i) const noexcept {
      return (*seq_)[i];
    }

   private:
    friend class RequestSequence;
    explicit RequestRange(const RequestSequence* seq) noexcept : seq_(seq) {}
    const RequestSequence* seq_;
  };

  [[nodiscard]] RequestRange requests() const noexcept {
    return RequestRange{this};
  }

  /// Number of requests whose item set contains `item` (the |d_i| of Eq. 5).
  [[nodiscard]] std::size_t item_frequency(ItemId item) const;

  /// Number of requests containing both items (the |(d_i, d_j)| of Eq. 5):
  /// the times the two items' events share (times identify requests).
  [[nodiscard]] std::size_t pair_frequency(ItemId a, ItemId b) const;

  /// Walks the union of the events of `items` (events_for_item) in one
  /// merge by time: visit(holders, server, time) runs once per distinct
  /// request time, ascending, where `holders` names the positions in
  /// `items` of the items that request holds, ascending, and `server` is
  /// read from the first holder's event.  Times strictly increase across
  /// the rows, so a time several items' events hold is one request holding
  /// them all.  Membership is read off the events alone — no request's item
  /// list is touched — and the walk allocates nothing for up to
  /// kInlineMergeItems items.
  ///
  /// The package, group and union flows are built through it (core/flow.hpp):
  /// a package's co-requests are the times both items hold, a group's full
  /// requests those all k items hold, and a union flow every time visited.
  /// kernels::merge_two_event_lists is the same merge at k = 2.
  template <typename Visit>
  void merge_item_lists(std::span<const ItemId> items, Visit&& visit) const;

  /// Item count up to which merge_item_lists keeps its cursors on the stack.
  static constexpr std::size_t kInlineMergeItems = 8;

  /// Total item-accesses Σ_i |d_i| — the ave_cost denominator of Algorithm 1.
  [[nodiscard]] std::size_t total_item_accesses() const noexcept {
    return items_pool_v_.size();
  }

  /// The time and server of every request containing `item`, in time order
  /// — views into the per-item event pools.
  [[nodiscard]] ItemEvents events_for_item(ItemId item) const {
    require(item < item_count_, "events_for_item: item out of range");
    const std::size_t begin = per_item_offsets_v_[item];
    const std::size_t count = per_item_offsets_v_[item + 1] - begin;
    return {per_item_times_v_.subspan(begin, count),
            per_item_servers_v_.subspan(begin, count)};
  }

  /// The row of `item`'s request at `time`: a binary search of the time
  /// column, O(log n).  The `--no-kernels` reference reaches each request
  /// it reads this way, from the event's time to the row, so it reads
  /// server and item set from the rows themselves.  Throws InvalidArgument,
  /// naming the item and the time, when no request at `time` holds `item`.
  [[nodiscard]] std::size_t row_of_event(ItemId item, Time time) const;

  /// Human-readable one-line-per-request dump (debugging/tests).
  [[nodiscard]] std::string to_string() const;

 private:
  friend class SequenceBuilder;

  RequestSequence() = default;  // adopt_columns' blank slate

  /// Takes ownership of pre-flattened CSR arrays, then validates and builds
  /// the per-item events (SequenceBuilder's fast path).  `rows_normalized`
  /// asserts that every row is already sorted and duplicate-free
  /// (end_request()'s invariant), skipping that re-check.
  RequestSequence(std::size_t server_count, std::size_t item_count,
                  std::vector<ServerId> servers, std::vector<Time> times,
                  std::vector<ItemId> items_pool,
                  std::vector<ItemOffset> item_offsets, bool rows_normalized);

  /// Points the primary-column views at the owned vectors.
  void bind_owned_primary() noexcept;
  /// Points all seven views at the owned vectors (owning sequences only).
  void bind_owned_all() noexcept;
  /// Empties every view (a moved-from sequence).
  void clear_views() noexcept;
  /// Checks the row invariants through the views (throws InvalidArgument).
  void validate_columns(bool rows_normalized) const;
  /// Builds the owned per-item events from the primary views and binds
  /// their views; also range-checks item ids (rides on the counting pass).
  void build_item_events();

  std::size_t server_count_ = 0;
  std::size_t item_count_ = 0;

  // Owned storage — empty when the sequence borrows (keeper_ != nullptr).
  std::vector<ServerId> servers_;              // n
  std::vector<Time> times_;                    // n
  std::vector<ItemId> items_pool_;             // A = Σ|d_i|
  std::vector<ItemOffset> item_offsets_;       // n + 1
  std::vector<std::size_t> per_item_offsets_;  // k + 1
  std::vector<Time> per_item_times_;           // A
  std::vector<ServerId> per_item_servers_;     // A

  // Every accessor reads these views; they alias the vectors above or an
  // external buffer whose lifetime keeper_ pins.
  std::span<const ServerId> servers_v_;
  std::span<const Time> times_v_;
  std::span<const ItemId> items_pool_v_;
  std::span<const ItemOffset> item_offsets_v_;
  std::span<const std::size_t> per_item_offsets_v_;
  std::span<const Time> per_item_times_v_;
  std::span<const ServerId> per_item_servers_v_;
  std::shared_ptr<const void> keeper_;
};

namespace detail {

/// merge_item_lists' loop over k event lists, with caller-provided cursor,
/// head and holder arrays of k entries each.  Each step takes the earliest
/// head time and advances every list that holds it.  A finished list's head
/// reads +∞, above every event time (all are finite), so the earliest head
/// is +∞ once all k lists are done.
template <typename Visit>
void merge_event_lists(const ItemEvents* lists, std::size_t k,
                       std::size_t* cursors, Time* heads,
                       std::size_t* holders, Visit& visit) {
  constexpr Time kDone = std::numeric_limits<Time>::infinity();
  for (std::size_t j = 0; j < k; ++j) {
    cursors[j] = 0;
    heads[j] = lists[j].size() == 0 ? kDone : lists[j].times.front();
  }
  for (;;) {
    Time next = kDone;
    for (std::size_t j = 0; j < k; ++j) next = std::min(next, heads[j]);
    if (next == kDone) return;
    std::size_t held = 0;
    ServerId server = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (heads[j] != next) continue;
      if (held == 0) server = lists[j].servers[cursors[j]];
      holders[held++] = j;
      const std::size_t cursor = ++cursors[j];
      heads[j] = cursor < lists[j].size() ? lists[j].times[cursor] : kDone;
    }
    visit(std::span<const std::size_t>(holders, held), server, next);
  }
}

}  // namespace detail

template <typename Visit>
void RequestSequence::merge_item_lists(std::span<const ItemId> items,
                                       Visit&& visit) const {
  // Each case hands the loop arrays of its own: one pointer chosen at run
  // time between stack and heap arrays measured slower at k = 2.
  const std::size_t k = items.size();
  if (k <= kInlineMergeItems) {
    ItemEvents lists[kInlineMergeItems];
    std::size_t cursors[kInlineMergeItems] = {};
    Time heads[kInlineMergeItems] = {};
    std::size_t holders[kInlineMergeItems] = {};
    for (std::size_t j = 0; j < k; ++j) lists[j] = events_for_item(items[j]);
    detail::merge_event_lists(lists, k, cursors, heads, holders, visit);
    return;
  }
  // Larger groups (rare: complete-linkage groups are small) keep their
  // cursors on the heap.
  std::vector<ItemEvents> lists(k);
  std::vector<std::size_t> state(2 * k);  // cursors, then holders
  std::vector<Time> heads(k);
  for (std::size_t j = 0; j < k; ++j) lists[j] = events_for_item(items[j]);
  detail::merge_event_lists(lists.data(), k, state.data(), heads.data(),
                            state.data() + k, visit);
}

/// Convenience builder used heavily by tests, generators and the streaming
/// CSV parser: requests may be appended in any order and are sorted by time
/// on build(); times must still end up unique.
///
/// Appends go straight into the flat CSR arrays, so building an n-request
/// sequence performs O(1) amortized allocations (array doublings), not O(n).
class SequenceBuilder {
 public:
  SequenceBuilder(std::size_t server_count, std::size_t item_count);

  /// Pre-sizes the flat arrays for `request_count` rows holding
  /// `item_access_count` item ids in total.
  SequenceBuilder& reserve(std::size_t request_count,
                           std::size_t item_access_count);

  /// Appends one request; items are sorted and deduplicated.
  SequenceBuilder& add(ServerId server, Time time, std::vector<ItemId> items);

  /// Streaming append without a per-request vector: open a row, push its
  /// item ids, close it.  end_request() sorts and deduplicates the row.
  /// Defined inline — these are the per-row hot path of the CSV parser.
  SequenceBuilder& begin_request(ServerId server, Time time) {
    require(!row_open_, "SequenceBuilder: begin_request with a row open");
    push(servers_, server);
    push(times_, time);
    row_open_ = true;
    return *this;
  }
  SequenceBuilder& push_item(ItemId item) {
    require(row_open_, "SequenceBuilder: push_item without begin_request");
    push(items_pool_, item);
    return *this;
  }
  SequenceBuilder& end_request() {
    require(row_open_, "SequenceBuilder: end_request without begin_request");
    row_open_ = false;
    const std::size_t begin = item_offsets_.back();
    const std::size_t count = items_pool_.size() - begin;
    if (count == 2) {
      // The overwhelmingly common row shapes (1–2 items) skip the sort call.
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
    require(items_pool_.size() <= kMaxItemAccesses,
            "SequenceBuilder: a sequence holds at most 2^32 - 1 item "
            "accesses");
    push(item_offsets_, static_cast<ItemOffset>(items_pool_.size()));
    return *this;
  }

  /// Requests appended so far.
  [[nodiscard]] std::size_t size() const noexcept { return servers_.size(); }

  /// Number of array-capacity growth events so far — the builder's total
  /// allocation count (O(log n) with no reserve(), 0 after an adequate one).
  [[nodiscard]] std::uint64_t grow_events() const noexcept {
    return grow_events_;
  }

  /// Sorts, validates and produces the immutable sequence.
  [[nodiscard]] RequestSequence build() &&;

  /// build() with explicit final dimensions — used by parsers that discover
  /// the server/item universe while streaming rows in.
  [[nodiscard]] RequestSequence build_with_counts(std::size_t server_count,
                                                  std::size_t item_count) &&;

 private:
  template <typename Vector, typename Value>
  void push(Vector& vector, Value value) {
    if (vector.size() == vector.capacity()) ++grow_events_;
    vector.push_back(value);
  }

  std::size_t server_count_;
  std::size_t item_count_;
  std::vector<ServerId> servers_;
  std::vector<Time> times_;
  std::vector<ItemId> items_pool_;
  std::vector<ItemOffset> item_offsets_;  // always size() + 1 when closed
  std::uint64_t grow_events_ = 0;
  bool row_open_ = false;
};

}  // namespace dpg
