#include "replay.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "engine/registry.hpp"
#include "engine/streaming_engine.hpp"
#include "obs/metrics.hpp"
#include "trace/dpt.hpp"
#include "trace/io.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Scope {
 public:
  Scope(SpanLog& log, SpanName name) : log_(log), handle_(log.begin(name)) {}
  ~Scope() { log_.end(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t handle_;
};

std::string snapshot_line(const dpg::StreamingSnapshot& s) {
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "snapshot requests=%zu epoch=%zu packages=%zu items=%zu "
                "total=%s ave=%s delta=%s",
                s.requests, s.epoch, s.live_packages, s.item_count,
                dpg::format_fixed(s.report.total_cost, 2).c_str(),
                dpg::format_fixed(s.report.ave_cost, 4).c_str(),
                dpg::format_fixed(s.delta.total_cost, 2).c_str());
  return buffer;
}

ServeOutcome replay_serve(const PassPlan& plan, const Knobs& knobs,
                          SpanLog& log) {
  ServeOutcome out;
  dpg::RequestSequence trace = [&] {
    Scope span(log, SpanName::kCsvDecode);
    return dpg::trace_from_csv(plan.csv);
  }();
  out.rows = trace.size();
  dpg::StreamingOptions options;
  options.online = knobs.online;
  dpg::StreamingEngine engine(knobs.model, options);
  const auto snapshot = [&] {
    Scope span(log, SpanName::kSnapshot);
    return engine.snapshot();
  };
  for (std::size_t i = 0; i < out.rows; ++i) {
    const std::uint32_t push = log.begin(SpanName::kPush);
    const dpg::StreamingDecision decision =
        engine.push(trace.server_of(i), trace.time_of(i), trace.items_of(i));
    log.end(push, decision.repacked ? kRepacked : 0);
    if (decision.repacked) ++out.repack_rounds;
    if (plan.snapshot_every > 0 && (i + 1) % plan.snapshot_every == 0)
      out.snapshot_lines.push_back(snapshot_line(snapshot()));
  }
  if (plan.all_layers && plan.snapshot_every == 0) (void)snapshot();
  Scope span(log, SpanName::kFinish);
  out.final_report = engine.finish();
  return out;
}

SolveFacts facts_of(const dpg::RunReport& report) {
  SolveFacts facts;
  facts.total_cost = report.total_cost;
  facts.package_count = report.package_count;
  facts.solve_seconds = report.solve_seconds;
  facts.phase1_seconds = report.phase1_seconds;
  facts.dp_cells = dpg::obs::counter_value(report.metrics, "phase2.dp_cells");
  for (const auto& [name, data] : report.metrics.histograms) {
    if (name == "pool.task_ns") facts.pool_task_ns = data.sum;
  }
  return facts;
}

SolveOutcome replay_solve(const PassPlan& plan, const Knobs& knobs,
                          SpanLog& log) {
  SolveOutcome out;
  const dpg::RequestSequence trace = [&] {
    Scope span(log, SpanName::kDptOpen);
    return dpg::read_trace_auto(plan.dpt_path);
  }();
  out.rows = trace.size();
  dpg::SolverConfig config;
  config.theta = knobs.online.theta;
  config.window = knobs.online.window;
  config.repack_interval = knobs.online.repack_interval;
  config.hold_factor = knobs.online.hold_factor;
  if (plan.all_layers) {
    dpg::RunReport report;
    {
      Scope span(log, SpanName::kRun);
      report = dpg::builtin_registry().run(
          "dp_greedy", trace, knobs.model,
          dpg::SolverConfig(config).threads(plan.threads));
    }
    out.parallel = facts_of(report);
    Scope span(log, SpanName::kReportFree);
    const dpg::RunReport released = std::move(report);
  }
  Scope span(log, SpanName::kRunSerial);
  out.serial = facts_of(dpg::builtin_registry().run(
      "dp_greedy", trace, knobs.model, dpg::SolverConfig(config).threads(0)));
  return out;
}

}  // namespace

const char* span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::kPass: return "pass";
    case SpanName::kCsvDecode: return "trace.trace_from_csv";
    case SpanName::kPush: return "engine.push";
    case SpanName::kSnapshot: return "engine.snapshot";
    case SpanName::kFinish: return "engine.finish";
    case SpanName::kDptOpen: return "trace.read_trace_auto";
    case SpanName::kRun: return "engine.registry_run";
    case SpanName::kRunSerial: return "engine.registry_run_serial";
    case SpanName::kReportFree: return "core.report_free";
  }
  return "?";
}

SpanLog::SpanLog(bool enabled, std::uint64_t run_id)
    : enabled_(enabled), run_id_(run_id) {}

std::uint32_t SpanLog::begin(SpanName name) {
  if (!enabled_) return 0;
  Span span;
  span.run_id = run_id_;
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = name;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto handle = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(handle);
  return handle;
}

void SpanLog::end(std::uint32_t handle, std::uint16_t flags) {
  if (!enabled_) return;
  Span& span = spans_[handle - 1];
  span.end_ns = now_ns();
  span.flags = flags;
  open_.pop_back();
}

void SpanLog::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("run_id\tid\tparent\tname\tstart_ns\tend_ns\tflags\n", file);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%" PRIu64 "\t%zu\t%u\t%s\t%" PRId64 "\t%" PRId64 "\t%u\n",
                 s.run_id, i + 1, s.parent, span_name(s.name), s.start_ns,
                 s.end_ns, static_cast<unsigned>(s.flags));
  }
  if (std::fclose(file) != 0) throw std::runtime_error("cannot write " + path);
}

PassOutcome run_pass(const PassPlan& plan, const Knobs& knobs, SpanLog& log) {
  PassOutcome out;
  const std::int64_t start = now_ns();
  {
    Scope root(log, SpanName::kPass);
    if (!plan.csv.empty()) out.serve = replay_serve(plan, knobs, log);
    if (!plan.dpt_path.empty()) out.solve = replay_solve(plan, knobs, log);
  }
  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  return out;
}

std::string final_line(const dpg::RunReport& report, std::size_t requests) {
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "final requests=%zu total=%s ave=%s transfers=%zu packs=%zu "
                "unpacks=%zu",
                requests, dpg::format_fixed(report.total_cost, 2).c_str(),
                dpg::format_fixed(report.ave_cost, 4).c_str(), report.transfer_events,
                report.package_count, report.unpack_events);
  return buffer;
}

}  // namespace perfbench
