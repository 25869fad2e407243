// Shared rendering of RunReports: the one place the comparison table, the
// CSV schema and the JSON shape are defined, so the CLI, the examples and
// the harnesses print identical rows for identical runs.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "engine/run_report.hpp"

namespace dpg {

/// Column headers matching comparison_row().
[[nodiscard]] std::vector<std::string> comparison_header();

/// One human-readable table row for a report.
[[nodiscard]] std::vector<std::string> comparison_row(const RunReport& report);

/// The full comparison table (header + one row per report, aligned).  A
/// span, so one report prints in place: `render_comparison({&report, 1})`.
[[nodiscard]] std::string render_comparison(
    std::span<const RunReport> reports);

/// Machine-readable flat schema: header + one row per report.  Costs are
/// printed with full round-trip precision.
[[nodiscard]] std::vector<std::string> report_csv_header();
[[nodiscard]] std::vector<std::string> report_csv_row(const RunReport& report);

/// One report as a JSON object; keys match the CSV columns.  When the run
/// recorded telemetry (RunReport::metrics non-empty) the object gains a
/// trailing "metrics" member with counter values and histogram summaries.
[[nodiscard]] std::string report_json(const RunReport& report);

/// Human-readable table of the report's telemetry delta (one row per
/// counter/histogram); empty-bodied when the run recorded no telemetry.
[[nodiscard]] std::string render_metrics(const RunReport& report);

/// The telemetry delta as CSV rows `solver,kind,metric,value[,sum]` —
/// variable-length by design (the flat report_csv schema stays fixed).
[[nodiscard]] std::vector<std::string> metrics_csv_rows(const RunReport& report);

}  // namespace dpg
