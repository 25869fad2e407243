#include "core/request.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dpg {

namespace {

const obs::Counter g_build_allocs = obs::counter("trace.build_allocs");
const obs::Counter g_sequences_built = obs::counter("trace.sequences_built");

}  // namespace

bool Request::contains(ItemId item) const noexcept {
  return std::binary_search(items.begin(), items.end(), item);
}

RequestSequence::RequestSequence(std::size_t server_count,
                                 std::size_t item_count,
                                 std::vector<RequestDraft> requests)
    : server_count_(server_count), item_count_(item_count) {
  std::size_t accesses = 0;
  for (const RequestDraft& r : requests) accesses += r.items.size();
  servers_.reserve(requests.size());
  times_.reserve(requests.size());
  items_pool_.reserve(accesses);
  item_offsets_.reserve(requests.size() + 1);
  item_offsets_.push_back(0);
  for (const RequestDraft& r : requests) {
    servers_.push_back(r.server);
    times_.push_back(r.time);
    items_pool_.insert(items_pool_.end(), r.items.begin(), r.items.end());
    item_offsets_.push_back(items_pool_.size());
  }
  bind_owned_primary();
  validate_columns(/*rows_normalized=*/false);
  build_item_index();
  g_sequences_built.add();
}

RequestSequence::RequestSequence(std::size_t server_count,
                                 std::size_t item_count,
                                 std::vector<ServerId> servers,
                                 std::vector<Time> times,
                                 std::vector<ItemId> items_pool,
                                 std::vector<std::size_t> item_offsets,
                                 bool rows_normalized)
    : server_count_(server_count),
      item_count_(item_count),
      servers_(std::move(servers)),
      times_(std::move(times)),
      items_pool_(std::move(items_pool)),
      item_offsets_(std::move(item_offsets)) {
  bind_owned_primary();
  validate_columns(rows_normalized);
  build_item_index();
  g_sequences_built.add();
}

void RequestSequence::bind_owned_primary() noexcept {
  servers_v_ = servers_;
  times_v_ = times_;
  items_pool_v_ = items_pool_;
  item_offsets_v_ = item_offsets_;
}

void RequestSequence::bind_owned_all() noexcept {
  bind_owned_primary();
  per_item_pool_v_ = per_item_pool_;
  per_item_offsets_v_ = per_item_offsets_;
}

RequestSequence::RequestSequence(const RequestSequence& other)
    : server_count_(other.server_count_),
      item_count_(other.item_count_),
      servers_(other.servers_),
      times_(other.times_),
      items_pool_(other.items_pool_),
      item_offsets_(other.item_offsets_),
      per_item_pool_(other.per_item_pool_),
      per_item_offsets_(other.per_item_offsets_),
      servers_v_(other.servers_v_),
      times_v_(other.times_v_),
      items_pool_v_(other.items_pool_v_),
      item_offsets_v_(other.item_offsets_v_),
      per_item_pool_v_(other.per_item_pool_v_),
      per_item_offsets_v_(other.per_item_offsets_v_),
      keeper_(other.keeper_) {
  // A borrowed copy shares the external buffer (keeper_ keeps it alive); an
  // owning copy got fresh vectors and must re-point its views at them.
  if (keeper_ == nullptr) bind_owned_all();
}

RequestSequence::RequestSequence(RequestSequence&& other) noexcept
    : server_count_(other.server_count_),
      item_count_(other.item_count_),
      servers_(std::move(other.servers_)),
      times_(std::move(other.times_)),
      items_pool_(std::move(other.items_pool_)),
      item_offsets_(std::move(other.item_offsets_)),
      per_item_pool_(std::move(other.per_item_pool_)),
      per_item_offsets_(std::move(other.per_item_offsets_)),
      servers_v_(other.servers_v_),
      times_v_(other.times_v_),
      items_pool_v_(other.items_pool_v_),
      item_offsets_v_(other.item_offsets_v_),
      per_item_pool_v_(other.per_item_pool_v_),
      per_item_offsets_v_(other.per_item_offsets_v_),
      keeper_(std::move(other.keeper_)) {
  // Moved vectors keep their heap buffers, so the copied views stay valid;
  // rebind anyway so the invariant "views alias *this* object's storage or
  // keeper_'s buffer" holds even for empty short vectors.
  if (keeper_ == nullptr) bind_owned_all();
  other.servers_v_ = {};
  other.times_v_ = {};
  other.items_pool_v_ = {};
  other.item_offsets_v_ = {};
  other.per_item_pool_v_ = {};
  other.per_item_offsets_v_ = {};
}

RequestSequence& RequestSequence::operator=(const RequestSequence& other) {
  if (this != &other) {
    RequestSequence copy(other);
    *this = std::move(copy);
  }
  return *this;
}

RequestSequence& RequestSequence::operator=(RequestSequence&& other) noexcept {
  if (this != &other) {
    server_count_ = other.server_count_;
    item_count_ = other.item_count_;
    servers_ = std::move(other.servers_);
    times_ = std::move(other.times_);
    items_pool_ = std::move(other.items_pool_);
    item_offsets_ = std::move(other.item_offsets_);
    per_item_pool_ = std::move(other.per_item_pool_);
    per_item_offsets_ = std::move(other.per_item_offsets_);
    servers_v_ = other.servers_v_;
    times_v_ = other.times_v_;
    items_pool_v_ = other.items_pool_v_;
    item_offsets_v_ = other.item_offsets_v_;
    per_item_pool_v_ = other.per_item_pool_v_;
    per_item_offsets_v_ = other.per_item_offsets_v_;
    keeper_ = std::move(other.keeper_);
    if (keeper_ == nullptr) bind_owned_all();
    other.servers_v_ = {};
    other.times_v_ = {};
    other.items_pool_v_ = {};
    other.item_offsets_v_ = {};
    other.per_item_pool_v_ = {};
    other.per_item_offsets_v_ = {};
  }
  return *this;
}

RequestSequence RequestSequence::adopt_columns(
    std::size_t server_count, std::size_t item_count,
    const SequenceColumns& columns, std::shared_ptr<const void> keeper,
    bool verify_columns) {
  RequestSequence seq;
  seq.server_count_ = server_count;
  seq.item_count_ = item_count;
  seq.servers_v_ = columns.servers;
  seq.times_v_ = columns.times;
  seq.items_pool_v_ = columns.items_pool;
  seq.item_offsets_v_ = columns.item_offsets;
  seq.per_item_pool_v_ = columns.per_item_pool;
  seq.per_item_offsets_v_ = columns.per_item_offsets;
  seq.keeper_ = std::move(keeper);
  require(seq.keeper_ != nullptr,
          "adopt_columns: a keeper must own the column storage");

  // Structural consistency is always enforced — accessors index these
  // arrays against each other, so mismatched sizes would be UB, not just a
  // wrong answer.
  const std::size_t n = columns.servers.size();
  require(columns.times.size() == n, "adopt_columns: times size mismatch");
  require(columns.item_offsets.size() == n + 1,
          "adopt_columns: item_offsets must have n + 1 entries");
  require(columns.item_offsets.front() == 0,
          "adopt_columns: item_offsets must start at 0");
  require(columns.item_offsets.back() == columns.items_pool.size(),
          "adopt_columns: item_offsets must end at the pool size");
  require(std::is_sorted(columns.item_offsets.begin(),
                         columns.item_offsets.end()),
          "adopt_columns: item_offsets must be non-decreasing");
  require(columns.per_item_offsets.size() == item_count + 1,
          "adopt_columns: per_item_offsets must have k + 1 entries");
  require(columns.per_item_offsets.front() == 0,
          "adopt_columns: per_item_offsets must start at 0");
  require(columns.per_item_offsets.back() == columns.per_item_pool.size(),
          "adopt_columns: per_item_offsets must end at its pool size");
  require(std::is_sorted(columns.per_item_offsets.begin(),
                         columns.per_item_offsets.end()),
          "adopt_columns: per_item_offsets must be non-decreasing");
  require(columns.per_item_pool.size() == columns.items_pool.size(),
          "adopt_columns: inverted-index pool size mismatch");

  if (verify_columns) {
    seq.validate_columns(/*rows_normalized=*/false);
    // Cross-check the stored inverted index against a rebuild: the borrowed
    // views stay in place, the rebuilt owned vectors are just compared and
    // discarded (vectors stay small-but-allocated only on this slow path).
    RequestSequence rebuilt;
    rebuilt.server_count_ = server_count;
    rebuilt.item_count_ = item_count;
    rebuilt.servers_v_ = columns.servers;
    rebuilt.times_v_ = columns.times;
    rebuilt.items_pool_v_ = columns.items_pool;
    rebuilt.item_offsets_v_ = columns.item_offsets;
    rebuilt.build_item_index();
    require(std::equal(rebuilt.per_item_pool_.begin(),
                       rebuilt.per_item_pool_.end(),
                       columns.per_item_pool.begin(),
                       columns.per_item_pool.end()) &&
                std::equal(rebuilt.per_item_offsets_.begin(),
                           rebuilt.per_item_offsets_.end(),
                           columns.per_item_offsets.begin(),
                           columns.per_item_offsets.end()),
            "adopt_columns: stored inverted index does not match the items");
  } else {
    // Even the trusting path range-checks every id that is used as an index
    // downstream: an out-of-range item id would index per_item_offsets_ out
    // of bounds later, and an out-of-range server id would index per-server
    // state (RequestIndex queue tails, recency columns) out of bounds.
    for (const ServerId server : columns.servers) {
      require(server < server_count, "adopt_columns: server id out of range");
    }
    for (const ItemId item : columns.items_pool) {
      require(item < item_count, "adopt_columns: item id out of range");
    }
    // Each item's request list must be strictly ascending: the Phase-2
    // flow builders merge these lists (merge_item_lists) and read their
    // order as time order.  Strictly ascending, the last row of a list
    // bounds all of its rows, so one compare per entry checks both.
    const std::span<const std::size_t> pool = columns.per_item_pool;
    const std::span<const std::size_t> starts = columns.per_item_offsets;
    for (std::size_t item = 0; item < item_count; ++item) {
      const std::size_t begin = starts[item];
      const std::size_t end = starts[item + 1];
      if (begin == end) continue;
      for (std::size_t p = begin + 1; p < end; ++p) {
        require(pool[p - 1] < pool[p],
                "adopt_columns: an item's inverted index rows are not "
                "strictly ascending");
      }
      require(pool[end - 1] < n,
              "adopt_columns: inverted index row out of range");
    }
  }
  g_sequences_built.add();
  return seq;
}

void RequestSequence::validate_columns(bool rows_normalized) const {
  require(server_count_ > 0, "RequestSequence: need >= 1 server");
  require(item_count_ > 0, "RequestSequence: need >= 1 item");
  // Checked before build_item_index sizes its arrays by item_count_.
  require(item_count_ <= kNoItem,
          "RequestSequence: item id 4294967295 is reserved (kNoItem)");
  // One tight pass per flat array (not one combined per-row loop): each
  // check vectorizes, and failure messages are built only on the throw path
  // ("+ std::to_string(i)" eagerly would heap-allocate per request).
  const std::size_t n = servers_v_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (servers_v_[i] >= server_count_) {
      throw InvalidArgument("RequestSequence: server id out of range at "
                            "request " + std::to_string(i));
    }
  }
  Time previous = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(times_v_[i] > previous) || std::isinf(times_v_[i])) {
      throw InvalidArgument(
          "RequestSequence: times must be strictly increasing, finite and "
          "> 0 (violated at request " + std::to_string(i) + ")");
    }
    previous = times_v_[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (item_offsets_v_[i + 1] == item_offsets_v_[i]) {
      throw InvalidArgument("RequestSequence: empty item set at request " +
                            std::to_string(i));
    }
  }
  if (!rows_normalized) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const ItemId> items = items_of(i);
      if (!std::is_sorted(items.begin(), items.end()) ||
          std::adjacent_find(items.begin(), items.end()) != items.end()) {
        throw InvalidArgument(
            "RequestSequence: item set must be sorted and duplicate-free at "
            "request " + std::to_string(i));
      }
    }
  }
}

void RequestSequence::build_item_index() {
  // Per-item inverted index as one flat pool + offsets: counting pass over
  // the items pool, prefix sum, then a scatter pass.  The scatter advances
  // per_item_offsets_[item] to the end of item's range, so a final shift
  // restores the offsets — no per-item vectors, no cursor copy.  The item
  // range check rides on the counting pass (one pool scan, not two).
  per_item_offsets_.assign(item_count_ + 1, 0);
  for (const ItemId item : items_pool_v_) {
    if (item >= item_count_) {
      // Recover the offending row for the message (cold path only).
      const std::size_t at = static_cast<std::size_t>(
          &item - items_pool_v_.data());
      const std::size_t row = static_cast<std::size_t>(
          std::upper_bound(item_offsets_v_.begin(), item_offsets_v_.end(),
                           at) -
          item_offsets_v_.begin()) - 1;
      throw InvalidArgument("RequestSequence: item id out of range at "
                            "request " + std::to_string(row));
    }
    ++per_item_offsets_[item + 1];
  }
  std::partial_sum(per_item_offsets_.begin(), per_item_offsets_.end(),
                   per_item_offsets_.begin());
  per_item_pool_.resize(items_pool_v_.size());
  for (std::size_t i = 0; i < servers_v_.size(); ++i) {
    for (const ItemId item : items_of(i)) {
      per_item_pool_[per_item_offsets_[item]++] = i;
    }
  }
  for (std::size_t item = item_count_; item > 0; --item) {
    per_item_offsets_[item] = per_item_offsets_[item - 1];
  }
  per_item_offsets_[0] = 0;
  per_item_pool_v_ = per_item_pool_;
  per_item_offsets_v_ = per_item_offsets_;
}

std::size_t RequestSequence::item_frequency(ItemId item) const {
  require(item < item_count_, "item_frequency: item out of range");
  return per_item_offsets_v_[item + 1] - per_item_offsets_v_[item];
}

std::size_t RequestSequence::pair_frequency(ItemId a, ItemId b) const {
  require(a < item_count_ && b < item_count_, "pair_frequency: item out of range");
  const ItemId pair[2] = {a, b};
  std::size_t count = 0;
  merge_item_lists(pair, [&count](std::size_t,
                                  std::span<const std::size_t> holders) {
    if (holders.size() == 2) ++count;
  });
  return count;
}

std::span<const std::size_t> RequestSequence::indices_for_item(
    ItemId item) const {
  require(item < item_count_, "indices_for_item: item out of range");
  return {per_item_pool_v_.data() + per_item_offsets_v_[item],
          per_item_offsets_v_[item + 1] - per_item_offsets_v_[item]};
}

std::string RequestSequence::to_string() const {
  std::string out = "RequestSequence(m=" + std::to_string(server_count_) +
                    ", k=" + std::to_string(item_count_) +
                    ", n=" + std::to_string(size()) + ")\n";
  for (std::size_t i = 0; i < size(); ++i) {
    out += "  t=" + format_fixed(times_v_[i], 3) +
           " s=" + std::to_string(servers_v_[i]) + " items={";
    const std::span<const ItemId> items = items_of(i);
    for (std::size_t j = 0; j < items.size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(items[j]);
    }
    out += "}\n";
  }
  return out;
}

SequenceBuilder::SequenceBuilder(std::size_t server_count,
                                 std::size_t item_count)
    : server_count_(server_count), item_count_(item_count) {
  item_offsets_.push_back(0);
}

SequenceBuilder& SequenceBuilder::reserve(std::size_t request_count,
                                          std::size_t item_access_count) {
  servers_.reserve(request_count);
  times_.reserve(request_count);
  item_offsets_.reserve(request_count + 1);
  items_pool_.reserve(item_access_count);
  return *this;
}

SequenceBuilder& SequenceBuilder::add(ServerId server, Time time,
                                      std::vector<ItemId> items) {
  begin_request(server, time);
  for (const ItemId item : items) push_item(item);
  return end_request();
}

RequestSequence SequenceBuilder::build() && {
  return std::move(*this).build_with_counts(server_count_, item_count_);
}

RequestSequence SequenceBuilder::build_with_counts(std::size_t server_count,
                                                   std::size_t item_count) && {
  require(!row_open_, "SequenceBuilder: build with a row still open");
  if (!std::is_sorted(times_.begin(), times_.end())) {
    // Stable permutation sort by time, then rebuild every array in permuted
    // order (the CSR pool cannot be permuted in place row-wise).
    std::vector<std::uint32_t> order(servers_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return times_[a] < times_[b];
                     });
    std::vector<ServerId> servers;
    std::vector<Time> times;
    std::vector<ItemId> pool;
    std::vector<std::size_t> offsets;
    servers.reserve(servers_.size());
    times.reserve(times_.size());
    pool.reserve(items_pool_.size());
    offsets.reserve(item_offsets_.size());
    offsets.push_back(0);
    grow_events_ += 4;
    for (const std::uint32_t row : order) {
      servers.push_back(servers_[row]);
      times.push_back(times_[row]);
      pool.insert(pool.end(),
                  items_pool_.begin() +
                      static_cast<std::ptrdiff_t>(item_offsets_[row]),
                  items_pool_.begin() +
                      static_cast<std::ptrdiff_t>(item_offsets_[row + 1]));
      offsets.push_back(pool.size());
    }
    servers_ = std::move(servers);
    times_ = std::move(times);
    items_pool_ = std::move(pool);
    item_offsets_ = std::move(offsets);
  }
  g_build_allocs.add(grow_events_);
  return RequestSequence(server_count, item_count, std::move(servers_),
                         std::move(times_), std::move(items_pool_),
                         std::move(item_offsets_), /*rows_normalized=*/true);
}

}  // namespace dpg
