// Resumable per-flow state for the online policies.
//
// solve_online_break_even and solve_online_dp_greedy used to be monolithic
// left-to-right loops over a fully materialized input; this header extracts
// their loop bodies into state objects that advance one request at a time,
// so a long-lived serving engine (engine/streaming_engine.hpp) can push
// requests as they arrive and snapshot mid-stream.  The batch entry points
// remain as thin drivers over these states and are bit-identical to the
// pre-extraction implementations at every option setting.
//
//   * BreakEvenFlowState — the rent-or-buy replica set of ONE flow (an item
//     or a package): serve/retire/finalize with the λ/μ break-even horizon.
//   * OnlineBreakEvenState — the schedule-recording variant driving one
//     flow's ServicePoints (what solve_online_break_even steps).
//   * OnlineDpGreedyState — the full windowed-packing policy: a
//     WindowedCorrelation over the last `window` requests, epoch re-pairing
//     under the θ / θ·hysteresis split rule, break-even serving of item and
//     package flows, and a running OnlineDpGreedyResult that can be valued
//     non-destructively at any time (value_now) or closed out (finalize).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/flow.hpp"
#include "core/request_block.hpp"
#include "core/types.hpp"
#include "solver/online.hpp"
#include "solver/online_dp_greedy.hpp"
#include "solver/replica_list.hpp"
#include "solver/windowed_correlation.hpp"

namespace dpg {

/// The terms one policy state prices its flows under, and the running
/// totals their charges land in.  Flows hold neither, so a flow is its
/// replica list alone.
struct FlowLedger {
  const CostModel& model;
  double horizon;     // copies are held this long past their last use
  bool never_drop;    // μ = 0: no copy is ever dropped
  Cost& total_cost;   // cache charges of copies dropped at their horizon
  std::size_t& transfers;
  Time& cache_time;
};

/// Break-even replica management for one flow (an item or a package).
/// Identical in policy to the per-flow online rule; item flows and package
/// flows share this accounting, each at its rate (1 for an item, 2α for a
/// package).  Cache accrual of copies dropped at their horizon is charged
/// to the ledger as they drop; live copies are charged at finalize (or
/// valued via peek_accrued).
class BreakEvenFlowState {
 public:
  BreakEvenFlowState(ServerId start_server, Time start_time) {
    restart(start_server, start_time);
  }

  /// Starts the flow over with one copy at (server, t), in place: how a
  /// pack or split reuses a finalized flow.  Copies still live are dropped
  /// uncharged, so finalize first.
  void restart(ServerId server, Time t) {
    copies_.clear();
    copies_.push_back(ReplicaCopy{server, t, t});
  }

  /// Retires expired copies, then serves a request at (server, t).
  /// Returns the cost increment (rate applied; λ-side only — cache accrual
  /// is charged at retirement/finalize).
  Cost serve(ServerId server, Time t, double rate, const FlowLedger& ledger);

  /// Uses the copy at `server` at time t, or adds one there (a package
  /// fetch).  True when the copy is new.
  bool add_copy(ServerId server, Time t);

  /// Most recently used copy (always exists).
  [[nodiscard]] const ReplicaCopy& most_recent() const;

  /// Charges all copies up to their last use and clears the flow; returns
  /// their cost and adds their cache time to the ledger.
  Cost finalize(double rate, const FlowLedger& ledger);

  /// What finalize would charge right now, without mutating: adds the
  /// accrued cache cost and cache time of the live copies to the ledger
  /// with finalize's arithmetic — the copies summed in finalize's order,
  /// then the sum added to the total — so the two agree to the bit.
  void peek_accrued(double rate, const FlowLedger& ledger) const;

 private:
  void retire(Time now, double rate, const FlowLedger& ledger);

  ReplicaList copies_;
};

/// The resumable loop body of solve_online_break_even: one flow's replica
/// set plus the reconstructed schedule, advanced one ServicePoint at a time.
class OnlineBreakEvenState {
 public:
  /// Validates the model and options eagerly (OnlineOptions::validate).
  OnlineBreakEvenState(const CostModel& model, std::size_t server_count,
                       std::size_t group_size, const OnlineOptions& options);

  /// Serves one point (strictly after every previous one).
  void advance(const ServicePoint& point);

  /// Serves a run of points in order.  Same per-point arithmetic as
  /// advance(), so the result is bit-identical at every batch size.
  void advance_batch(std::span<const ServicePoint> points);

  /// Closes the books (charges every surviving copy to its last use) and
  /// returns the result.  The state is spent afterwards.
  [[nodiscard]] OnlineResult finish();

  [[nodiscard]] std::size_t points_served() const noexcept { return served_; }

 private:
  CostModel model_;
  std::size_t server_count_;
  std::size_t group_size_;
  bool never_drop_;
  Time horizon_;
  std::vector<ReplicaCopy> copies_;
  OnlineResult result_;
  std::size_t served_ = 0;
};

/// The resumable core of online DP_Greedy: windowed Jaccard packing with
/// epoch re-pairing and break-even serving, advanced one request at a time.
///
/// Non-copyable/non-movable: one state is one stream's books.  Long-lived
/// fronts hold it behind the StreamingEngine; solve_online_dp_greedy
/// stack-allocates one per solve.
class OnlineDpGreedyState {
 public:
  /// What one push did — the serving decision for that request.
  struct Decision {
    Cost cost_delta = 0.0;          // total cost charged by this push
    std::size_t transfers = 0;      // wire transfers (λ-charges)
    std::size_t package_fetches = 0;  // Observation-2 package fetches
    std::size_t pack_events = 0;    // pairs formed (repack pushes only)
    std::size_t unpack_events = 0;  // pairs dissolved
    bool repacked = false;          // this push ran an epoch re-pairing
  };

  /// Validates the model and options eagerly (OnlineDpGreedyOptions::validate).
  OnlineDpGreedyState(const CostModel& model,
                      const OnlineDpGreedyOptions& options,
                      std::size_t item_count);
  OnlineDpGreedyState(const OnlineDpGreedyState&) = delete;
  OnlineDpGreedyState& operator=(const OnlineDpGreedyState&) = delete;

  /// Serves one request.  `items` must be sorted and duplicate-free (a
  /// RequestSequence row); `time` strictly greater than every previous push.
  /// Item ids beyond the current universe grow it (ensure_item_count).
  /// Rejects, before touching any state, the rows a RequestSequence
  /// rejects: a time that is not finite or not above the previous one (the
  /// first must be > 0), an empty item set, and the reserved id kNoItem.
  Decision push(ServerId server, Time time, std::span<const ItemId> items);

  /// Serves every row of a block in trace order and returns the aggregate
  /// decision (event counts summed, `repacked` if any row repacked).  Rows
  /// go through the exact push() arithmetic — same floating-point
  /// accumulation order, same scratch/window allocation accounting — so the
  /// state after push_batch is bit-identical to per-row pushes at every
  /// batch size.  Block rows must honor the push() contract (sorted unique
  /// items, strictly increasing times), which both block readers guarantee.
  Decision push_batch(const RequestBlock& block);

  /// True when a push at `time` may follow one at `previous` (0 before the
  /// first push): `time` is finite and strictly later.
  [[nodiscard]] static bool time_follows(Time previous, Time time) noexcept {
    return time > previous && std::isfinite(time);
  }

  /// The message push() rejects such a time with.
  [[nodiscard]] static std::string time_order_error(Time previous, Time time);

  /// True when push() accepts a row's sorted item set: not empty and
  /// without the reserved id kNoItem (which sorts last).
  [[nodiscard]] static bool accepts_items(
      std::span<const ItemId> items) noexcept {
    return !items.empty() && items.back() != kNoItem;
  }

  /// The message push() rejects such an item set with.
  [[nodiscard]] static std::string item_set_error(
      std::span<const ItemId> items);

  /// Grows the item universe (new items start at the origin at time 0,
  /// exactly as a batch solve initializes them).  Never shrinks.
  void ensure_item_count(std::size_t item_count);

  /// Closes the books on every live flow and returns the final result.
  /// The state is spent afterwards.
  [[nodiscard]] OnlineDpGreedyResult finalize();

  /// The result as if finalized right now, without mutating anything — the
  /// same arithmetic in the same order as finalize(), so at end of stream
  /// value_now() == finalize() bit for bit.
  [[nodiscard]] OnlineDpGreedyResult value_now() const;

  [[nodiscard]] std::size_t item_count() const noexcept {
    return partner_.size();
  }
  [[nodiscard]] std::size_t requests_seen() const noexcept {
    return requests_seen_;
  }
  /// Epoch counter: number of re-pairing rounds run so far.
  [[nodiscard]] std::size_t repack_rounds() const noexcept { return repacks_; }
  /// Pairs currently packed.
  [[nodiscard]] std::size_t live_packages() const noexcept {
    return live_packages_;
  }
  /// The sliding-window statistics driving the epochs (for probes/tests).
  [[nodiscard]] const WindowedCorrelation& window() const noexcept {
    return window_;
  }
  /// Steady-state allocation probe: ring-slot + scratch growth events (the
  /// trace.build_allocs analogue — constant once warm).
  [[nodiscard]] std::uint64_t alloc_events() const noexcept;

 private:
  void repack(Time now, Decision& decision);
  /// The ledger over this state's running totals.
  [[nodiscard]] FlowLedger ledger() noexcept {
    return {model_, horizon_, never_drop_, result_.total_cost,
            result_.transfers, result_.cache_time};
  }

  CostModel model_;
  OnlineDpGreedyOptions options_;
  bool never_drop_;
  double horizon_;
  double pack_rate_;

  WindowedCorrelation window_;
  std::vector<ItemId> partner_;  // item -> its packed mate (kNoItem if none)
  // flows_[a] is item a's flow while a is unpacked, and its package's while
  // a is the package's lower item (empty while a is the upper one): a pack
  // or split restarts flows in place, so one flow per item is all there is.
  std::vector<BreakEvenFlowState> flows_;
  // Bit a is set while a < partner_[a], one bit per item: the epoch's
  // dissolve pass walks the set bits in ascending item order, which is the
  // order a full item scan would visit the live packages in.
  std::vector<std::uint64_t> live_lo_;
  // The windowed Jaccard of the live package with lower item a, written by
  // the epoch's pair walk and read (and reset to 0) by its dissolve pass; 0
  // between epochs, which is the Jaccard of a pair absent from the window.
  std::vector<double> package_jaccard_;
  std::size_t live_packages_ = 0;

  OnlineDpGreedyResult result_;  // running totals (the ledger's)
  std::size_t since_repack_ = 0;
  std::size_t requests_seen_ = 0;
  std::size_t repacks_ = 0;
  Time last_time_ = 0.0;

  // Reused scratch (kept warm across epochs).
  std::vector<std::pair<double, std::pair<ItemId, ItemId>>> candidates_;
  std::uint64_t scratch_allocs_ = 0;
};

}  // namespace dpg
