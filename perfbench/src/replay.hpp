// The in-process pass: replays a workload's generated input through the
// public functions of each layer, with the benchmark's own span around
// every call.  Run untraced it is the reference the timed `dpgreedy`
// children are checked against; run traced it gives the per-layer times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost_model.hpp"
#include "engine/run_report.hpp"
#include "solver/online_dp_greedy.hpp"

namespace perfbench {

enum class SpanName : std::uint16_t {
  kPass,            // the whole pass (root)
  kCsvDecode,       // trace: trace_from_csv
  kPush,            // engine: StreamingEngine::push (flags: kRepacked)
  kSnapshot,        // engine: StreamingEngine::snapshot
  kFinish,          // engine: StreamingEngine::finish
  kDptOpen,         // trace: read_trace_auto on the .dpt
  kRun,             // engine: SolverRegistry::run at the workload's threads
  kRunSerial,       // engine: SolverRegistry::run at threads(0)
  kReportFree,      // core: destroying the returned RunReport
};
inline constexpr std::uint16_t kRepacked = 1;

[[nodiscard]] const char* span_name(SpanName name) noexcept;

/// One recorded call.  Times are steady-clock nanoseconds.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t run_id = 0;
  std::uint32_t parent = 0;  // 1-based index of the enclosing span; 0 = none
  SpanName name = SpanName::kPass;
  std::uint16_t flags = 0;
};

/// Spans kept in memory for one pass and written out when it ends.  A
/// disabled log records nothing and costs one branch per call.
class SpanLog {
 public:
  SpanLog(bool enabled, std::uint64_t run_id);

  /// Opens a span under the innermost open one; returns its handle.
  std::uint32_t begin(SpanName name);
  void end(std::uint32_t handle, std::uint16_t flags = 0);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Writes the spans as tab-separated text: one header line, then
  /// `run_id id parent name start_ns end_ns flags` per span.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// The CLI's knobs (`dpgreedy serve` / `solve` defaults unless overridden).
struct Knobs {
  dpg::CostModel model;
  dpg::OnlineDpGreedyOptions online;  // θ is shared with the offline solve
};

struct ServeOutcome {
  std::size_t rows = 0;
  std::size_t repack_rounds = 0;  // pushes whose decision repacked
  dpg::RunReport final_report;
  /// The `snapshot ` lines `dpgreedy serve` prints at this cadence.
  std::vector<std::string> snapshot_lines;
};

/// What the checks and the per-layer metrics need from one registry run.
struct SolveFacts {
  double total_cost = 0.0;
  std::size_t package_count = 0;
  double solve_seconds = 0.0;
  double phase1_seconds = 0.0;
  std::uint64_t dp_cells = 0;      // phase2.dp_cells delta (telemetry on)
  std::uint64_t pool_task_ns = 0;  // pool.task_ns histogram sum (telemetry on)
};

struct SolveOutcome {
  std::size_t rows = 0;
  SolveFacts parallel;  // at the workload's threads (when requested)
  SolveFacts serial;    // at threads(0): the reference
};

struct PassPlan {
  /// CSV text decoded and pushed row by row; empty = skip the serve layers.
  std::string_view csv;
  std::size_t snapshot_every = 0;
  /// `.dpt` path solved by dp_greedy at threads(0); empty = skip the solve
  /// layers.
  std::string dpt_path;
  std::size_t threads = 0;
  /// The traced pass's whole layer map: also solve at `threads` (and
  /// release that report), and take one snapshot after the last push when
  /// the cadence takes none.
  bool all_layers = false;
};

struct PassOutcome {
  ServeOutcome serve;
  SolveOutcome solve;
  double wall_s = 0.0;
};

/// Runs one pass.  Telemetry (obs) is left as the caller set it.
[[nodiscard]] PassOutcome run_pass(const PassPlan& plan, const Knobs& knobs,
                                   SpanLog& log);

/// The `final ` line fields `dpgreedy serve` prints for a report.
[[nodiscard]] std::string final_line(const dpg::RunReport& report,
                                     std::size_t requests);

}  // namespace perfbench
