#include "solver/online_state.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dpg {

namespace {

const obs::Counter g_online_repacks = obs::counter("online.repack_rounds");
const obs::Counter g_online_packs = obs::counter("online.pack_events");
const obs::Counter g_online_unpacks = obs::counter("online.unpack_events");
const obs::Counter g_online_transfers = obs::counter("online.transfers");
const obs::Counter g_online_package_fetches =
    obs::counter("online.package_fetches");
const obs::Counter g_break_even_solves = obs::counter("online.break_even_solves");
const obs::Counter g_break_even_drops = obs::counter("online.break_even_drops");

}  // namespace

void OnlineOptions::validate() const {
  require(hold_factor > 0.0,
          "OnlineOptions.hold_factor: must be > 0, got " +
              format_fixed(hold_factor, 6));
}

void OnlineDpGreedyOptions::validate() const {
  require(theta >= 0.0 && theta <= 1.0,
          "OnlineDpGreedyOptions.theta: must be in [0, 1], got " +
              format_fixed(theta, 6));
  require(window > 0, "OnlineDpGreedyOptions.window: must be >= 1, got 0");
  require(repack_interval > 0,
          "OnlineDpGreedyOptions.repack_interval: must be >= 1, got 0");
  require(hold_factor > 0.0,
          "OnlineDpGreedyOptions.hold_factor: must be > 0, got " +
              format_fixed(hold_factor, 6));
}

// ---------------------------------------------------------------------------
// BreakEvenFlowState

Cost BreakEvenFlowState::serve(ServerId server, Time t, double rate,
                               const FlowLedger& ledger) {
  retire(t, rate, ledger);
  for (ReplicaCopy& c : copies_) {
    if (c.server == server) {
      c.last_use = t;
      return 0.0;  // cache accrual is charged at retirement/finalize
    }
  }
  ReplicaCopy* source = &copies_.front();
  for (ReplicaCopy& c : copies_) {
    if (c.last_use > source->last_use) source = &c;
  }
  source->last_use = t;  // held until now to source the transfer
  copies_.push_back(ReplicaCopy{server, t, t});
  ++ledger.transfers;
  return rate * ledger.model.lambda;
}

bool BreakEvenFlowState::add_copy(ServerId server, Time t) {
  for (ReplicaCopy& c : copies_) {
    if (c.server == server) {
      c.last_use = t;
      return false;
    }
  }
  copies_.push_back(ReplicaCopy{server, t, t});
  return true;
}

const ReplicaCopy& BreakEvenFlowState::most_recent() const {
  const ReplicaCopy* best = &copies_.front();
  for (const ReplicaCopy& c : copies_) {
    if (c.last_use > best->last_use) best = &c;
  }
  return *best;
}

Cost BreakEvenFlowState::finalize(double rate, const FlowLedger& ledger) {
  Cost cost = 0.0;
  for (const ReplicaCopy& c : copies_) {
    cost += rate * ledger.model.mu * (c.last_use - c.since);
    ledger.cache_time += c.last_use - c.since;
  }
  copies_.clear();
  return cost;
}

void BreakEvenFlowState::peek_accrued(double rate,
                                      const FlowLedger& ledger) const {
  // finalize's arithmetic: the flow's copies summed first, then added.
  Cost cost = 0.0;
  for (const ReplicaCopy& c : copies_) {
    cost += rate * ledger.model.mu * (c.last_use - c.since);
    ledger.cache_time += c.last_use - c.since;
  }
  ledger.total_cost += cost;
}

void BreakEvenFlowState::retire(Time now, double rate,
                                const FlowLedger& ledger) {
  // A lone copy is the newest one, which is never dropped.
  if (ledger.never_drop || copies_.size() < 2) return;
  Time newest = -1.0;
  for (const ReplicaCopy& c : copies_) newest = std::max(newest, c.last_use);
  for (std::size_t i = 0; i < copies_.size();) {
    ReplicaCopy& c = copies_[i];
    const Time drop_time = c.last_use + ledger.horizon;
    if (c.last_use < newest && drop_time < now) {
      ledger.total_cost += rate * ledger.model.mu * (drop_time - c.since);
      ledger.cache_time += drop_time - c.since;
      copies_.erase_swap(i);
    } else {
      ++i;
    }
  }
}

// ---------------------------------------------------------------------------
// OnlineBreakEvenState

OnlineBreakEvenState::OnlineBreakEvenState(const CostModel& model,
                                           std::size_t server_count,
                                           std::size_t group_size,
                                           const OnlineOptions& options)
    : model_(model),
      server_count_(server_count),
      group_size_(group_size),
      never_drop_(model.mu == 0.0),
      horizon_(never_drop_ ? 0.0
                           : options.hold_factor * model.lambda / model.mu) {
  model.validate();
  options.validate();
  g_break_even_solves.add();
  result_.schedule = Schedule(group_size);
  copies_.push_back(ReplicaCopy{kOriginServer, 0.0, 0.0});
}

void OnlineBreakEvenState::advance(const ServicePoint& point) {
  require(point.server < server_count_,
          "solve_online_break_even: server out of range");
  // 1) Retire copies whose break-even horizon expired before `point.time`,
  //    keeping at least the most recently used copy alive.
  if (!never_drop_) {
    Time newest = -1.0;
    for (const ReplicaCopy& c : copies_) newest = std::max(newest, c.last_use);
    for (std::size_t i = 0; i < copies_.size();) {
      ReplicaCopy& c = copies_[i];
      const Time drop_time = c.last_use + horizon_;
      if (c.last_use < newest && drop_time < point.time) {
        result_.cache_time += drop_time - c.since;
        result_.schedule.add_segment(c.server, c.since, drop_time);
        g_break_even_drops.add();
        copies_[i] = copies_.back();
        copies_.pop_back();
      } else {
        ++i;
      }
    }
  }

  // 2) Serve the request: local hit extends the local copy; otherwise
  //    transfer a replica from the most recently used live copy.
  ReplicaCopy* local = nullptr;
  for (ReplicaCopy& c : copies_) {
    if (c.server == point.server) {
      local = &c;
      break;
    }
  }
  if (local != nullptr) {
    local->last_use = point.time;
  } else {
    ReplicaCopy* source = &copies_.front();
    for (ReplicaCopy& c : copies_) {
      if (c.last_use > source->last_use) source = &c;
    }
    ++result_.transfer_count;
    // Serving as a transfer source counts as a use: the copy was in fact
    // held until now, so its accounted segment (and horizon) extend to
    // `point.time`, keeping the recorded schedule causally grounded.
    result_.schedule.add_transfer(source->server, point.server, point.time);
    source->last_use = point.time;
    copies_.push_back(ReplicaCopy{point.server, point.time, point.time});
  }
  ++served_;
}

void OnlineBreakEvenState::advance_batch(std::span<const ServicePoint> points) {
  for (const ServicePoint& point : points) advance(point);
}

OnlineResult OnlineBreakEvenState::finish() {
  // 3) Close the books: every surviving copy is charged up to its last use
  //    (an online run ends when the request stream ends).
  for (const ReplicaCopy& c : copies_) {
    result_.cache_time += c.last_use - c.since;
    result_.schedule.add_segment(c.server, c.since, c.last_use);
  }
  copies_.clear();
  result_.raw_cost =
      model_.mu * result_.cache_time +
      model_.lambda * static_cast<double>(result_.transfer_count);
  result_.cost = model_.flow_multiplier(group_size_) * result_.raw_cost;
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// OnlineDpGreedyState

OnlineDpGreedyState::OnlineDpGreedyState(const CostModel& model,
                                         const OnlineDpGreedyOptions& options,
                                         std::size_t item_count)
    : model_(model),
      options_(options),
      never_drop_(model.mu == 0.0),
      horizon_(never_drop_ ? 0.0
                           : options.hold_factor * model.lambda / model.mu),
      pack_rate_(model.flow_multiplier(2)),
      window_(item_count, options.window) {
  model.validate();
  options.validate();
  ensure_item_count(item_count);
}

void OnlineDpGreedyState::ensure_item_count(std::size_t item_count) {
  if (item_count <= partner_.size()) return;
  window_.ensure_item_count(item_count);
  partner_.resize(item_count, kNoItem);
  live_lo_.resize((item_count + 63) / 64, 0);
  package_jaccard_.resize(item_count, 0.0);
  flows_.reserve(item_count);
  while (flows_.size() < item_count) {
    // New items start at the origin at time 0, exactly as a batch solve
    // initializes the full universe up front.
    flows_.emplace_back(kOriginServer, 0.0);
  }
}

std::string OnlineDpGreedyState::time_order_error(Time previous, Time time) {
  return "OnlineDpGreedyState::push: request times must be strictly "
         "increasing, finite and > 0 (got " + format_fixed(time, 6) +
         " after " + format_fixed(previous, 6) + ")";
}

std::string OnlineDpGreedyState::item_set_error(
    std::span<const ItemId> items) {
  if (items.empty()) return "OnlineDpGreedyState::push: empty item set";
  return "OnlineDpGreedyState::push: item id " + std::to_string(kNoItem) +
         " is reserved";
}

OnlineDpGreedyState::Decision OnlineDpGreedyState::push(
    ServerId server, Time time, std::span<const ItemId> items) {
  // last_time_ starts at 0, so the first push must be at a time > 0.
  if (!time_follows(last_time_, time)) {
    throw InvalidArgument(time_order_error(last_time_, time));
  }
  if (!accepts_items(items)) throw InvalidArgument(item_set_error(items));
  ensure_item_count(static_cast<std::size_t>(items.back()) + 1);

  Decision decision;
  const Cost cost_before = result_.total_cost;
  const std::size_t transfers_before = result_.transfers;
  const std::size_t fetches_before = result_.package_fetches;

  window_.add(items);
  if (++since_repack_ >= options_.repack_interval) {
    since_repack_ = 0;
    repack(time, decision);
  }

  // Serve each item's flow in row order.  A packed pair requested in full
  // is served once, at its lower item, which the sorted row reaches first.
  for (std::size_t x = 0; x < items.size(); ++x) {
    const ItemId item = items[x];
    const ItemId mate = partner_[item];
    if (mate == kNoItem) {
      // Unpacked item: plain break-even.  serve() returns only the λ part
      // of the charge (horizon drops are charged to the ledger as they go).
      const Cost shipped = flows_[item].serve(server, time, 1.0, ledger());
      result_.total_cost += shipped;
      result_.transfer_cost += shipped;
      continue;
    }
    // The row is sorted: look for the mate only on its side of the item.
    const std::span<const ItemId> side =
        mate < item ? items.first(x) : items.subspan(x + 1);
    const bool mate_present = std::binary_search(side.begin(), side.end(), mate);
    if (mate_present) {
      if (mate < item) continue;  // served at the lower item
      // Full package request.
      const Cost shipped =
          flows_[item].serve(server, time, pack_rate_, ledger());
      result_.total_cost += shipped;
      result_.transfer_cost += shipped;
    } else if (flows_[std::min(item, mate)].add_copy(server, time)) {
      // Single item of a packed pair with no local package copy: fetch the
      // package for 2αλ (Observation 2).  A local copy serves it free.
      result_.total_cost += pack_rate_ * model_.lambda;
      result_.transfer_cost += pack_rate_ * model_.lambda;
      ++result_.package_fetches;
    }
  }

  result_.total_item_accesses += items.size();
  last_time_ = time;
  ++requests_seen_;

  decision.cost_delta = result_.total_cost - cost_before;
  decision.transfers = result_.transfers - transfers_before;
  decision.package_fetches = result_.package_fetches - fetches_before;
  return decision;
}

OnlineDpGreedyState::Decision OnlineDpGreedyState::push_batch(
    const RequestBlock& block) {
  // Every row takes the exact push() path — bit-identity at any batch size
  // falls out by construction (same FP accumulation order, same scratch and
  // window allocation accounting).  The batch win lives a layer up: the
  // engine amortizes its mutex, telemetry clock reads, and counter updates
  // across the block, and the decode stage hands rows over pre-canonicalized
  // so push() never re-sorts.
  Decision total;
  const std::size_t rows = block.size();
  for (std::size_t i = 0; i < rows; ++i) {
    const Decision d =
        push(block.server_of(i), block.time_of(i), block.items_of(i));
    total.cost_delta += d.cost_delta;
    total.transfers += d.transfers;
    total.package_fetches += d.package_fetches;
    total.pack_events += d.pack_events;
    total.unpack_events += d.unpack_events;
    total.repacked = total.repacked || d.repacked;
  }
  return total;
}

void OnlineDpGreedyState::repack(Time now, Decision& decision) {
  const obs::TraceSpan repack_span("epoch/repack");
  g_online_repacks.add();
  ++repacks_;
  decision.repacked = true;
  // One walk over the pairs live in the window (every pair with co_freq >
  // 0) gives each live package its windowed Jaccard and collects every
  // other pair that clears θ (J > θ ≥ 0 requires co > 0).  J comes from the
  // count the walk holds: the same Eq. (5) expression as
  // window_.jaccard(a, b), without looking the pair up.
  if (candidates_.empty() && candidates_.capacity() == 0) ++scratch_allocs_;
  candidates_.clear();
  window_.for_each_co_pair([this](ItemId a, ItemId b, std::size_t co) {
    const double j = jaccard_similarity(window_.frequency(a),
                                        window_.frequency(b), co);
    if (partner_[a] == b) {
      package_jaccard_[a] = j;  // a < b: the package's lower item
    } else if (j > options_.theta) {
      candidates_.emplace_back(j, std::make_pair(a, b));
    }
  });
  // Dissolve pairs whose windowed similarity decayed below θ/2; a package
  // the walk did not meet has left the window and reads J = 0.  Only live
  // packages are visited, by their lower item in ascending order — the
  // order of a full item scan, so cost accrues in the same order.
  for (std::size_t word = 0; word < live_lo_.size(); ++word) {
    for (std::uint64_t bits = live_lo_[word]; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<unsigned>(std::countr_zero(bits));
      const auto a = static_cast<ItemId>(word * 64 + bit);
      const double j = package_jaccard_[a];
      package_jaccard_[a] = 0.0;
      if (j >= options_.theta / 2.0) continue;
      // Split: both items restart with a copy where the package was last
      // used.
      const ItemId b = partner_[a];
      const ServerId seat = flows_[a].most_recent().server;
      result_.total_cost += flows_[a].finalize(pack_rate_, ledger());
      flows_[a].restart(seat, now);
      flows_[b].restart(seat, now);
      partner_[a] = kNoItem;
      partner_[b] = kNoItem;
      live_lo_[word] &= ~(std::uint64_t{1} << bit);
      ++result_.unpack_events;
      ++decision.unpack_events;
      --live_packages_;
    }
  }
  // Form new pairs greedily by descending windowed similarity among the
  // pairs whose items are both unpacked now.  The sort totally orders the
  // unique (J, (a, b)) keys, so the candidate order is the one a dense
  // row scan would give.
  std::erase_if(candidates_, [this](const auto& candidate) {
    return partner_[candidate.second.first] != kNoItem ||
           partner_[candidate.second.second] != kNoItem;
  });
  std::sort(candidates_.rbegin(), candidates_.rend());
  for (const auto& [j, pair] : candidates_) {
    const auto [a, b] = pair;
    if (partner_[a] != kNoItem || partner_[b] != kNoItem) continue;
    // Assemble the package at a's most recent location; b's copy is
    // shipped there at the individual rate.  The package's flow is a's,
    // restarted; b's stays empty while the pair lives.
    const ServerId seat = flows_[a].most_recent().server;
    result_.total_cost += flows_[a].finalize(1.0, ledger());
    result_.total_cost += flows_[b].finalize(1.0, ledger());
    result_.total_cost += model_.lambda;  // move b to the assembly point
    result_.transfer_cost += model_.lambda;
    ++result_.transfers;
    partner_[a] = b;
    partner_[b] = a;
    flows_[a].restart(seat, now);
    live_lo_[a / 64] |= std::uint64_t{1} << (a % 64);
    ++result_.pack_events;
    ++decision.pack_events;
    ++live_packages_;
  }
}

OnlineDpGreedyResult OnlineDpGreedyState::finalize() {
  // Close the books on every live flow, in ascending item order (the same
  // order — and therefore the same floating-point accumulation — as the
  // batch implementation).
  const std::size_t k = partner_.size();
  for (ItemId item = 0; item < k; ++item) {
    if (partner_[item] == kNoItem) {
      result_.total_cost += flows_[item].finalize(1.0, ledger());
    } else if (item < partner_[item]) {
      result_.total_cost += flows_[item].finalize(pack_rate_, ledger());
    }
  }
  result_.ave_cost =
      result_.total_item_accesses == 0
          ? 0.0
          : result_.total_cost /
                static_cast<double>(result_.total_item_accesses);
  g_online_packs.add(result_.pack_events);
  g_online_unpacks.add(result_.unpack_events);
  g_online_transfers.add(result_.transfers);
  g_online_package_fetches.add(result_.package_fetches);
  return result_;
}

OnlineDpGreedyResult OnlineDpGreedyState::value_now() const {
  OnlineDpGreedyResult result = result_;
  const FlowLedger ledger{model_, horizon_, never_drop_, result.total_cost,
                          result.transfers, result.cache_time};
  const std::size_t k = partner_.size();
  for (ItemId item = 0; item < k; ++item) {
    if (partner_[item] == kNoItem) {
      flows_[item].peek_accrued(1.0, ledger);
    } else if (item < partner_[item]) {
      flows_[item].peek_accrued(pack_rate_, ledger);
    }
  }
  result.ave_cost =
      result.total_item_accesses == 0
          ? 0.0
          : result.total_cost /
                static_cast<double>(result.total_item_accesses);
  return result;
}

std::uint64_t OnlineDpGreedyState::alloc_events() const noexcept {
  return window_.alloc_events() + scratch_allocs_;
}

}  // namespace dpg
