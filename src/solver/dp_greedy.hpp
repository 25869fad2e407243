// DP_Greedy — the paper's two-phase caching algorithm (Algorithm 1).
//
// Phase 1 packs correlated item pairs by Jaccard similarity (solver/pairing).
// Phase 2 serves, per package {d1, d2}:
//   * requests containing BOTH items with the optimal offline DP over the
//     package flow, priced at the 2α package rate (Table II), and
//   * requests containing ONE of the items greedily, choosing the cheapest of
//       - a cache on the same server from the item's previous visit there,
//       - a transfer from the item's immediately preceding event (λ + cache),
//       - fetching the always-available package for the constant 2αλ
//     (Observation 2).
// Unpacked items are served individually by the optimal offline DP.
//
// Guarantee: total cost ≤ (2/α) × optimal (Theorem 1).
#pragma once

#include <vector>

#include "core/cost_model.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "solver/optimal_offline.hpp"
#include "solver/pairing.hpp"

namespace dpg {

class ThreadPool;
struct SolverWorkspace;

struct DpGreedyOptions {
  /// Correlation threshold θ; Algorithm 1 packs on J > θ.
  double theta = 0.3;
  /// Pack on J >= θ instead (the inclusive reading used by Package_Served).
  bool inclusive_threshold = false;
  /// Options forwarded to the inner optimal-offline DP.
  OptimalOfflineOptions dp;
  /// Phase-1 representation (dense triangle vs sparse observed-pair hash);
  /// correlation.pool defaults to `pool` below when unset, so one pool
  /// drives both the sharded counting pass and the Phase-2 fan-out.
  CorrelationOptions correlation;
  /// When set, package solves fan out over this pool (packages are
  /// independent, so results are identical to the serial path).
  ThreadPool* pool = nullptr;
  /// Keep each Phase-2 flow next to its schedule (PackageReport::
  /// package_flow, SingleItemReport::flow), so a caller that wants replayable
  /// plans takes them from the result instead of rebuilding them.
  bool keep_flows = false;
};

/// How one single-item request of a packed pair was served (Observation 2).
enum class ServeChoice {
  kCacheSameServer,     // μ(t_i − t_{p(i)})
  kTransferFromPrev,    // μ(t_i − t_{i−1}) + λ
  kPackageFetch,        // 2αλ
};

/// One greedy decision of Phase 2.
struct SingletonService {
  std::size_t request_index = 0;
  ItemId item = 0;
  ServeChoice choice = ServeChoice::kCacheSameServer;
  Cost cost = 0.0;
};

/// Phase-2 outcome for one packed pair.
struct PackageReport {
  ItemPair pair;
  Cost package_cost = 0.0;    // 2α-discounted DP cost of the co-request flow
  Cost singleton_cost = 0.0;  // sum of the greedy decisions
  std::size_t co_request_count = 0;
  std::size_t total_accesses = 0;  // |d_a| + |d_b|
  Schedule package_schedule;       // validatable against the package flow
  Flow package_flow;               // empty unless DpGreedyOptions::keep_flows
  std::vector<SingletonService> services;

  [[nodiscard]] Cost total_cost() const noexcept {
    return package_cost + singleton_cost;
  }
  /// The pair-local ave_cost plotted in Figs. 11 and 13.
  [[nodiscard]] double ave_cost() const noexcept {
    return total_accesses == 0
               ? 0.0
               : total_cost() / static_cast<double>(total_accesses);
  }
};

/// Full DP_Greedy outcome.
struct DpGreedyResult {
  Packing packing;
  std::vector<PackageReport> packages;
  std::vector<SingleItemReport> singles;  // unpacked items (plain optimal DP)
  Cost total_cost = 0.0;
  std::size_t total_item_accesses = 0;
  /// Algorithm 1's output: total_cost / Σ|d_i|.
  double ave_cost = 0.0;
  /// Wall-clock of Phase 1 (correlation analysis + pairing) inside this solve.
  double phase1_seconds = 0.0;
};

/// Runs both phases over the whole sequence.
[[nodiscard]] DpGreedyResult solve_dp_greedy(const RequestSequence& sequence,
                                             const CostModel& model,
                                             const DpGreedyOptions& options = {});

/// Phase 2 for one explicitly given pair (used by the figure harnesses,
/// which sweep pairs regardless of the threshold decision).  A `workspace`
/// makes repeated calls allocation-free on the scratch path (results are
/// identical either way).
[[nodiscard]] PackageReport solve_pair_package(
    const RequestSequence& sequence, const CostModel& model, ItemPair pair,
    const OptimalOfflineOptions& dp = {}, SolverWorkspace* workspace = nullptr);

}  // namespace dpg
