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
// The per-item inverted index is the same shape — one flat pool of request
// indices plus per_item_offsets_[] (k + 1 entries), built with a counting
// pass.  `Request` is a lightweight non-owning view into those arrays.
#pragma once

#include <algorithm>
#include <cstdint>
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

/// The six CSR columns of a RequestSequence, as non-owning views.  Used by
/// the binary trace reader (trace/dpt.cpp) to hand a sequence columns that
/// live in an mmap'ed file, and by callers that want the raw arrays.
struct SequenceColumns {
  std::span<const ServerId> servers;               // n
  std::span<const Time> times;                     // n
  std::span<const ItemId> items_pool;              // Σ|d_i|
  std::span<const std::size_t> item_offsets;       // n + 1
  std::span<const std::size_t> per_item_pool;      // Σ|d_i|
  std::span<const std::size_t> per_item_offsets;   // k + 1
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

  /// Adopts externally stored CSR columns without copying them.  `keeper`
  /// owns the storage (e.g. an mmap'ed file) and is held until every copy of
  /// the sequence is gone.  Structural consistency (sizes, offset bounds) is
  /// always checked; `verify_columns` additionally re-runs the full logical
  /// validation and cross-checks the provided inverted index against a
  /// rebuild — callers normally rely on the file checksums instead.
  /// Throws InvalidArgument on any inconsistency.
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

  /// All six CSR columns at once (what the `.dpt` writer serializes).
  [[nodiscard]] SequenceColumns columns() const noexcept {
    return SequenceColumns{servers_v_,        times_v_,
                           items_pool_v_,     item_offsets_v_,
                           per_item_pool_v_,  per_item_offsets_v_};
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
  /// a merge of the two items' request lists (merge_item_lists).
  [[nodiscard]] std::size_t pair_frequency(ItemId a, ItemId b) const;

  /// Walks the union of the request lists of `items` (indices_for_item) in
  /// one merge pass: visit(index, holders) runs once per distinct request
  /// index, in ascending (time) order, where `holders` names the positions
  /// in `items` of the items that request holds, ascending.  Membership is
  /// read off the sorted lists alone — no request's item list is touched —
  /// and the walk allocates nothing for up to kInlineMergeItems items.
  ///
  /// Phase 2 builds every flow through it: a package's co-requests are the
  /// indices both items hold, an item's singleton events those only it
  /// holds, a group's full requests those all k items hold, and a union
  /// flow every index visited.
  template <typename Visit>
  void merge_item_lists(std::span<const ItemId> items, Visit&& visit) const;

  /// Item count up to which merge_item_lists keeps its cursors on the stack.
  static constexpr std::size_t kInlineMergeItems = 8;

  /// Total item-accesses Σ_i |d_i| — the ave_cost denominator of Algorithm 1.
  [[nodiscard]] std::size_t total_item_accesses() const noexcept {
    return items_pool_v_.size();
  }

  /// Indices (into the sequence) of requests containing `item`, in time
  /// order — a view into the flat inverted-index pool.
  [[nodiscard]] std::span<const std::size_t> indices_for_item(ItemId item) const;

  /// Human-readable one-line-per-request dump (debugging/tests).
  [[nodiscard]] std::string to_string() const;

 private:
  friend class SequenceBuilder;

  RequestSequence() = default;  // adopt_columns' blank slate

  /// Takes ownership of pre-flattened CSR arrays, then validates and builds
  /// the per-item inverted index (SequenceBuilder's fast path).
  /// `rows_normalized` asserts that every row is already sorted and
  /// duplicate-free (end_request()'s invariant), skipping that re-check.
  RequestSequence(std::size_t server_count, std::size_t item_count,
                  std::vector<ServerId> servers, std::vector<Time> times,
                  std::vector<ItemId> items_pool,
                  std::vector<std::size_t> item_offsets, bool rows_normalized);

  /// Points the primary-column views at the owned vectors.
  void bind_owned_primary() noexcept;
  /// Points all six views at the owned vectors (owning sequences only).
  void bind_owned_all() noexcept;
  /// Checks the row invariants through the views (throws InvalidArgument).
  void validate_columns(bool rows_normalized) const;
  /// Builds the owned inverted index from the primary views and binds its
  /// views; also range-checks item ids (rides on the counting pass).
  void build_item_index();

  std::size_t server_count_ = 0;
  std::size_t item_count_ = 0;

  // Owned storage — empty when the sequence borrows (keeper_ != nullptr).
  std::vector<ServerId> servers_;            // n
  std::vector<Time> times_;                  // n
  std::vector<ItemId> items_pool_;           // Σ|d_i|
  std::vector<std::size_t> item_offsets_;    // n + 1
  std::vector<std::size_t> per_item_pool_;   // Σ|d_i| request indices
  std::vector<std::size_t> per_item_offsets_;  // k + 1

  // Every accessor reads these views; they alias the vectors above or an
  // external buffer whose lifetime keeper_ pins.
  std::span<const ServerId> servers_v_;
  std::span<const Time> times_v_;
  std::span<const ItemId> items_pool_v_;
  std::span<const std::size_t> item_offsets_v_;
  std::span<const std::size_t> per_item_pool_v_;
  std::span<const std::size_t> per_item_offsets_v_;
  std::shared_ptr<const void> keeper_;
};

namespace detail {

/// merge_item_lists' loop over k lists, with caller-provided cursor, head
/// and holder arrays of k entries each.  Each step takes the smallest head
/// and advances every list that holds it.  A finished list's head reads
/// kDone, above every request index, so the smallest head is kDone once
/// all k lists are done.
template <typename Visit>
void merge_sorted_lists(const std::span<const std::size_t>* lists,
                        std::size_t k, std::size_t* cursors,
                        std::size_t* heads, std::size_t* holders,
                        Visit& visit) {
  constexpr std::size_t kDone = static_cast<std::size_t>(-1);
  for (std::size_t j = 0; j < k; ++j) {
    cursors[j] = 0;
    heads[j] = lists[j].empty() ? kDone : lists[j].front();
  }
  for (;;) {
    std::size_t next = kDone;
    for (std::size_t j = 0; j < k; ++j) next = std::min(next, heads[j]);
    if (next == kDone) return;
    std::size_t held = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (heads[j] != next) continue;
      holders[held++] = j;
      const std::size_t cursor = ++cursors[j];
      heads[j] = cursor < lists[j].size() ? lists[j][cursor] : kDone;
    }
    visit(next, std::span<const std::size_t>(holders, held));
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
    std::span<const std::size_t> lists[kInlineMergeItems];
    std::size_t cursors[kInlineMergeItems] = {};
    std::size_t heads[kInlineMergeItems] = {};
    std::size_t holders[kInlineMergeItems] = {};
    for (std::size_t j = 0; j < k; ++j) lists[j] = indices_for_item(items[j]);
    detail::merge_sorted_lists(lists, k, cursors, heads, holders, visit);
    return;
  }
  // Larger groups (rare: complete-linkage groups are small) keep their
  // cursors on the heap.
  std::vector<std::span<const std::size_t>> lists(k);
  std::vector<std::size_t> state(3 * k);
  for (std::size_t j = 0; j < k; ++j) lists[j] = indices_for_item(items[j]);
  detail::merge_sorted_lists(lists.data(), k, state.data(), state.data() + k,
                             state.data() + 2 * k, visit);
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
    push(item_offsets_, items_pool_.size());
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
  std::vector<std::size_t> item_offsets_;  // always size() + 1 when closed
  std::uint64_t grow_events_ = 0;
  bool row_open_ = false;
};

}  // namespace dpg
