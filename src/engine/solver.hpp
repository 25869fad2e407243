// The Solver interface of the engine layer: one signature for every
// algorithm in the repo (RequestSequence + CostModel + SolverConfig →
// RunReport), so front ends dispatch by registry name instead of calling
// per-algorithm solve_* entry points with incompatible result structs.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "core/cost_model.hpp"
#include "core/request.hpp"
#include "engine/run_report.hpp"
#include "solver/optimal_offline.hpp"

namespace dpg {

class ThreadPool;

/// The union of every wrapped solver's knobs.  Each adapter reads only the
/// fields its algorithm defines; the defaults match the per-solver option
/// structs, so a default SolverConfig reproduces a default solve_* call.
///
/// SolverConfig stays an aggregate (designated/member initialization keeps
/// working) but also offers a fluent builder surface:
///
///   auto config = SolverConfig{}.threads(8).telemetry(true);
///
/// plus a string-keyed setter for front ends
/// (`config.with("theta", "0.4")`).  Both validate eagerly: a bad value or
/// an unknown field name throws InvalidArgument naming the valid fields, at
/// the call site rather than deep inside a solve.
struct SolverConfig {
  /// Correlation threshold θ (packing solvers).
  double theta = 0.3;
  /// Multi-item grouping bound (group_dp_greedy).
  std::size_t max_group_size = 3;
  /// Sliding-window length for online Jaccard estimates (online_dp_greedy).
  std::size_t window = 200;
  /// Online re-pairing interval in requests (online_dp_greedy).
  std::size_t repack_interval = 50;
  /// Multiplier on the λ/μ break-even holding horizon (online policies).
  double hold_factor = 1.0;
  /// Options forwarded to the inner optimal-offline DP where one runs.
  OptimalOfflineOptions dp;
  /// Optional externally owned pool for the solvers with a parallel fan-out
  /// path.  When set it wins over `thread_count` (the pool's width also
  /// fixes the deterministic Phase-2 shard layout).
  ThreadPool* pool = nullptr;
  /// Keep the per-flow schedules as RunReport::plans (replayable).  Turning
  /// this off keeps no flow or schedule past the solve (costs are identical
  /// either way).
  bool keep_schedules = true;
  /// Phase-2 fan-out width: 0 = serial, N = shard the per-flow solves over
  /// an N-worker pool owned for the duration of the run.  Results are
  /// bit-identical at every value (see solver/phase2_shard.hpp).
  std::size_t thread_count = 0;
  /// Record telemetry (metrics delta + trace spans) for this run even when
  /// the process-wide obs switch is off.  Purely observational.
  bool telemetry_enabled = false;

  // Fluent builder surface (aggregates may have member functions).
  SolverConfig& threads(std::size_t n) noexcept {
    thread_count = n;
    return *this;
  }
  SolverConfig& telemetry(bool on) noexcept {
    telemetry_enabled = on;
    return *this;
  }
  /// Toggle the branch-light SIMD DP kernels (solver/kernels.hpp).  On by
  /// default; off runs the scalar reference loops.  Results are
  /// bit-identical either way — the switch exists for cross-checking and
  /// micro-benchmark baselines.
  SolverConfig& kernels(bool on) noexcept {
    dp.use_kernels = on;
    return *this;
  }

  /// Sets one field by name from a string value ("theta", "max_group_size",
  /// "window", "repack_interval", "hold_factor", "keep_schedules",
  /// "threads", "telemetry", "kernels").  Throws InvalidArgument
  /// immediately on an unknown field (the message lists the valid ones), an
  /// unparsable value, or a value outside the field's range.
  SolverConfig& with(std::string_view field, std::string_view value);

  /// Range-checks every field (θ ∈ [0, 1], hold_factor > 0, window ≥ 1,
  /// repack_interval ≥ 1, max_group_size ≥ 2); throws InvalidArgument naming
  /// the offending field.  SolverRegistry::run calls this before dispatch.
  void validate() const;
};

/// A runnable solver.  Instances are stateful: adapters hold a
/// SolverWorkspace (and any other scratch) that is reused across run()
/// calls, so repeated runs through one Solver stay allocation-lean.  A
/// Solver must not be shared between concurrent runs.
class Solver {
 public:
  virtual ~Solver() = default;

  [[nodiscard]] virtual RunReport run(const RequestSequence& sequence,
                                      const CostModel& model,
                                      const SolverConfig& config) = 0;
};

/// Registry metadata for one solver (also the `dpgreedy list` row).
struct SolverInfo {
  std::string name;           // stable registry key, e.g. "dp_greedy"
  std::string algorithm;      // one-line description
  std::string paper_section;  // anchor into the paper, e.g. "Alg. 1"
  bool online = false;        // processes the sequence without lookahead
};

}  // namespace dpg
