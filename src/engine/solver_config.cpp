// SolverConfig's fluent builder plumbing: the string-keyed setter and the
// eager range validation.  Both throw InvalidArgument with actionable
// messages (unknown fields list the valid ones), so a bad config fails at
// the call site instead of deep inside a solve.
#include <string>

#include "engine/solver.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dpg {

namespace {

constexpr const char* kValidFields =
    "theta, max_group_size, window, repack_interval, hold_factor, "
    "keep_schedules, threads, telemetry, kernels";

bool parse_flag(std::string_view field, std::string_view value) {
  if (value == "true" || value == "1" || value == "on") return true;
  if (value == "false" || value == "0" || value == "off") return false;
  throw InvalidArgument("SolverConfig: field '" + std::string(field) +
                        "' expects a boolean (true/false/1/0/on/off), got '" +
                        std::string(value) + "'");
}

}  // namespace

SolverConfig& SolverConfig::with(std::string_view field,
                                 std::string_view value) {
  if (field == "theta") {
    theta = parse_double(value);
  } else if (field == "max_group_size") {
    max_group_size = parse_size(value);
  } else if (field == "window") {
    window = parse_size(value);
  } else if (field == "repack_interval") {
    repack_interval = parse_size(value);
  } else if (field == "hold_factor") {
    hold_factor = parse_double(value);
  } else if (field == "keep_schedules") {
    keep_schedules = parse_flag(field, value);
  } else if (field == "threads") {
    thread_count = parse_size(value);
  } else if (field == "telemetry") {
    telemetry_enabled = parse_flag(field, value);
  } else if (field == "kernels") {
    dp.use_kernels = parse_flag(field, value);
  } else {
    throw InvalidArgument("SolverConfig: unknown field '" +
                          std::string(field) + "' (valid: " + kValidFields +
                          ")");
  }
  validate();  // eager: a bad value throws here, not inside a later solve
  return *this;
}

void SolverConfig::validate() const {
  if (!(theta >= 0.0 && theta <= 1.0)) {
    throw InvalidArgument("SolverConfig: theta must be in [0, 1], got " +
                          std::to_string(theta));
  }
  if (!(hold_factor > 0.0)) {
    throw InvalidArgument("SolverConfig: hold_factor must be > 0, got " +
                          std::to_string(hold_factor));
  }
  if (window == 0) {
    throw InvalidArgument("SolverConfig: window must be >= 1");
  }
  if (repack_interval == 0) {
    throw InvalidArgument("SolverConfig: repack_interval must be >= 1");
  }
  if (max_group_size < 2) {
    throw InvalidArgument("SolverConfig: max_group_size must be >= 2");
  }
}

}  // namespace dpg
