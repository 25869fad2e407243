// perfbench_harness — one benchmark run of one workload.
//
//   perfbench_harness --dpgreedy BIN --workdir DIR --workload NAME --seed N
//                    --seconds T --trace 0|1 --feed flood|paced|file
//                    --command "serve --trace - ..." --taxis K --duration D
//                    [--rate R] [--spans-out FILE] [--perturb-reference]
//
// run.py passes each workload's parameters from workloads.json.
//
// 1. Generates the input from --seed with the taxi simulator and renders it
//    (CSV in memory, `.dpt` and one-row inputs under --workdir).
// 2. Computes the reference in process, outside any timed region.
// 3. Launches the command on the full input until --seconds are used,
//    feeding and reading every child from this process, and checks every
//    output; blocks of one-row launches (setup_s) run between them.
// 4. With --trace 1, runs the in-process pass untraced and then traced and
//    derives the per-layer metrics from the spans, counters and reports.
//
// Human-readable lines go to stdout first; the last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "launch.hpp"
#include "mobility/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "solver/lower_bound.hpp"
#include "trace/dpt.hpp"
#include "trace/io.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using Seconds = std::chrono::duration<double>;

// One-row launches before each timed launch and after the last, so set-up
// is sampled across the whole run rather than in one instant.
constexpr std::size_t kSetupBlock = 16;
constexpr std::size_t kFloodBatchRows = 500;  // rows per closed-loop write
constexpr Seconds kPacedLead{0.1};            // schedule starts after launch
constexpr std::chrono::microseconds kPacedTick{20};  // feeder wake granularity
// Registry threads of the traced pass's solve when the command names none.
constexpr std::size_t kDefaultThreads = 2;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return Seconds(to - from).count();
}

// ---------------------------------------------------------------------------
// Options.

struct Options {
  std::string dpgreedy;
  std::string workdir;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Feed feed = Feed::kFlood;
  std::vector<std::string> command;  // dpgreedy arguments; {dpt} = input
  std::size_t snapshot_every = 0;    // the command's --snapshot-every
  std::size_t threads = kDefaultThreads;  // the command's --threads
  double rate_rps = 0.0;             // paced offered rate
  std::size_t taxis = 0;             // generator: one item per taxi
  double duration = 0.0;             // generator: simulated time
  std::string spans_out;
  bool perturb_reference = false;
};

std::vector<std::string> split_words(std::string_view text) {
  std::vector<std::string> words;
  std::istringstream in{std::string(text)};
  for (std::string word; in >> word;) words.push_back(word);
  return words;
}

Options parse_options(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--perturb-reference") {
      o.perturb_reference = true;
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("bad argument '" + key + "'");
    values[key.substr(2)] = argv[++i];
  }
  const auto take = [&](const char* name, bool required) -> const std::string* {
    const auto it = values.find(name);
    if (it == values.end()) {
      if (required) throw std::invalid_argument(std::string("missing --") + name);
      return nullptr;
    }
    return &it->second;
  };
  o.dpgreedy = *take("dpgreedy", true);
  o.workdir = *take("workdir", true);
  o.workload = *take("workload", true);
  o.seed = std::stoull(*take("seed", true));
  o.seconds = std::stod(*take("seconds", true));
  o.trace = *take("trace", true) == "1";
  o.command = split_words(*take("command", true));
  // The reference must snapshot where `serve` does and solve at the
  // threads `solve` does, so the harness reads both from the command.
  for (std::size_t i = 0; i + 1 < o.command.size(); ++i) {
    if (o.command[i] == "--snapshot-every") o.snapshot_every = std::stoul(o.command[i + 1]);
    if (o.command[i] == "--threads") o.threads = std::stoul(o.command[i + 1]);
  }
  o.taxis = std::stoul(*take("taxis", true));
  o.duration = std::stod(*take("duration", true));
  const std::string feed = *take("feed", true);
  if (feed == "flood") {
    o.feed = Feed::kFlood;
  } else if (feed == "paced") {
    o.feed = Feed::kPaced;
  } else if (feed == "file") {
    o.feed = Feed::kNone;
  } else {
    throw std::invalid_argument("--feed must be flood, paced or file");
  }
  if (const auto* v = take("rate", false)) o.rate_rps = std::stod(*v);
  if (const auto* v = take("spans-out", false)) o.spans_out = *v;
  if (o.feed == Feed::kPaced && o.rate_rps <= 0.0)
    throw std::invalid_argument("--feed paced needs --rate");
  return o;
}

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Mean of the fastest tenth of the launches (at least one).  Every launch
/// of a run does the same work, and on a shared host other tenants only
/// ever slow one down: on a shared 4-vCPU VM the same 1M-row serve took
/// 0.9 to 1.5 s within one run, and over four runs of the same seeds the
/// fastest launches varied by 7% where the medians varied by 19%.
double fastest_tenth(std::vector<double> values, bool higher_is_faster) {
  if (values.empty()) return 0.0;
  if (higher_is_faster) {
    std::sort(values.begin(), values.end(), std::greater<>());
  } else {
    std::sort(values.begin(), values.end());
  }
  const std::size_t n = std::max<std::size_t>(1, values.size() / 10);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += values[i];
  return total / static_cast<double>(n);
}

/// Nearest-rank percentile (0..100) of sorted values.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

struct Latency {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t samples = 0;
};

/// p50 and p99 of each launch, median over launches.
Latency summarize(const std::vector<std::vector<double>>& per_launch) {
  Latency out;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (std::vector<double> launch : per_launch) {
    out.samples += launch.size();
    std::sort(launch.begin(), launch.end());
    p50s.push_back(percentile(launch, 50));
    p99s.push_back(percentile(launch, 99));
  }
  out.p50 = median(p50s);
  out.p99 = median(p99s);
  return out;
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

// ---------------------------------------------------------------------------
// Inputs.

struct Inputs {
  std::string csv;                   // header + the offered rows
  std::vector<std::size_t> offsets;  // row starts + end offset
  std::size_t rows = 0;
  std::string dpt_path;              // the offered rows as .dpt
  std::string one_row_csv;
  std::vector<std::size_t> one_row_offsets;
  std::string one_row_dpt_path;
};

std::vector<std::size_t> row_offsets(const std::string& csv) {
  std::vector<std::size_t> offsets;
  std::size_t pos = csv.find('\n') + 1;  // skip the header
  while (pos < csv.size()) {
    offsets.push_back(pos);
    pos = csv.find('\n', pos) + 1;
    if (pos == 0) pos = csv.size();
  }
  offsets.push_back(csv.size());
  return offsets;
}

void warm_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char buffer[1 << 16];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
  }
}

Inputs make_inputs(const Options& o) {
  dpg::MobilityConfig config;
  config.taxi_count = o.taxis;
  config.duration = o.duration;
  dpg::Rng rng(o.seed);
  dpg::RequestSequence trace = dpg::simulate_mobility(config, rng);

  Inputs in;
  in.csv = dpg::trace_to_csv(trace);
  in.offsets = row_offsets(in.csv);
  in.rows = in.offsets.size() - 1;
  // An open-loop feed offers what the schedule reaches in --seconds.
  if (o.feed == Feed::kPaced) {
    const auto budget = static_cast<std::size_t>(o.rate_rps * o.seconds);
    if (budget >= 1 && budget < in.rows) {
      in.rows = budget;
      in.offsets.resize(budget + 1);
      in.csv.resize(in.offsets.back());
      trace = dpg::trace_from_csv(in.csv);
    }
  }
  in.dpt_path = o.workdir + "/input.dpt";
  dpg::write_trace_dpt(in.dpt_path, trace);
  warm_file(in.dpt_path);
  in.one_row_csv = in.csv.substr(0, in.offsets[1]);
  in.one_row_offsets = {in.offsets[0], in.offsets[1]};
  in.one_row_dpt_path = o.workdir + "/one_row.dpt";
  dpg::write_trace_dpt(in.one_row_dpt_path, dpg::trace_from_csv(in.one_row_csv));
  return in;
}

// ---------------------------------------------------------------------------
// Reference and checks.

struct Reference {
  std::string final_line;                  // serve
  std::vector<std::string> snapshot_lines; // serve
  double total_cost = 0.0;                 // solve (threads(0))
  std::size_t package_count = 0;           // solve
  dpg::PackedLowerBound bound;             // solve: Lemma 1
  double ratio_limit = 0.0;                // solve: 2 / α

  /// A reference every correct output must disagree with.
  [[nodiscard]] Reference perturbed() const {
    Reference r = *this;
    r.final_line += "1";  // lengthens the last field (unpacks)
    r.total_cost = std::nextafter(total_cost, 2.0 * total_cost + 1.0);
    return r;
  }
};

/// key=value fields of a `final `/`snapshot ` line.
std::map<std::string, std::string> fields_of(std::string_view line) {
  std::map<std::string, std::string> fields;
  for (const std::string& word : split_words(line)) {
    const std::size_t eq = word.find('=');
    if (eq != std::string::npos) fields[word.substr(0, eq)] = word.substr(eq + 1);
  }
  return fields;
}

/// True when `line` carries every field of `expected` with the same value.
bool matches(std::string_view line, std::string_view expected) {
  const auto got = fields_of(line);
  for (const auto& [key, value] : fields_of(expected)) {
    const auto it = got.find(key);
    if (it == got.end() || it->second != value) return false;
  }
  return true;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

/// Rows of one launch not served correctly, and why.
struct Verdict {
  std::size_t failed = 0;
  std::string problem;
};

Verdict check_serve(const LaunchResult& run, const Reference& ref,
                    std::size_t offered) {
  const Line* final_line = nullptr;
  std::vector<const Line*> snapshots;
  for (const Line& line : run.lines) {
    if (starts_with(line.text, "final ")) final_line = &line;
    if (starts_with(line.text, "snapshot ")) snapshots.push_back(&line);
  }
  if (!run.exited_ok() || final_line == nullptr || !run.feed_complete)
    return {offered, "serve exited without a final line"};
  if (!matches(final_line->text, ref.final_line))
    return {offered, "final line differs: '" + final_line->text + "' vs '" +
                         ref.final_line + "'"};
  if (snapshots.size() != ref.snapshot_lines.size())
    return {offered, "snapshot count differs"};
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if (!matches(snapshots[i]->text, ref.snapshot_lines[i]))
      return {offered, "snapshot line differs: '" + snapshots[i]->text + "'"};
  }
  const std::size_t served = std::stoul(fields_of(final_line->text)["requests"]);
  return {offered > served ? offered - served : 0, ""};
}

/// The number after `"key": ` in a JSON report line, as text.
std::string json_field(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return {};
  const std::size_t from = at + needle.size();
  const std::size_t to = line.find_first_of(",}", from);
  return std::string(line.substr(from, to - from));
}

const Line* json_report_line(const LaunchResult& run) {
  for (const Line& line : run.lines) {
    if (starts_with(line.text, "[{")) return &line;
  }
  return nullptr;
}

Verdict check_solve(const LaunchResult& run, const Reference& ref,
                    std::size_t rows) {
  const Line* line = json_report_line(run);
  if (!run.exited_ok() || line == nullptr)
    return {rows, "solve exited without a JSON report"};
  const std::string cost_text = json_field(line->text, "total_cost");
  const double cost = std::strtod(cost_text.c_str(), nullptr);
  if (std::bit_cast<std::uint64_t>(cost) !=
      std::bit_cast<std::uint64_t>(ref.total_cost))
    return {rows, "total_cost " + cost_text + " != reference " +
                      number(ref.total_cost)};
  if (json_field(line->text, "package_count") != std::to_string(ref.package_count))
    return {rows, "package_count differs"};
  if (!(ref.bound.certify_ratio(cost) <= ref.ratio_limit))
    return {rows, "cost exceeds 2/alpha times the Lemma-1 bound"};
  return {0, ""};
}

// ---------------------------------------------------------------------------
// The run.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Timed {
  std::vector<double> throughput_rps;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<std::vector<double>> latency_ms;  // paced: per launch
  std::vector<double> rss_mib;
  std::vector<double> lag_s;
  std::vector<double> setup_s;  // one-row launches, launch to exit
  bool setup_ok = true;
  std::size_t launches = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  double backlog_rows = 0.0;  // paced: rows behind when the answer came
  bool self_check_ok = true;
};

class Bench {
 public:
  explicit Bench(Options options) : o_(std::move(options)) {}

  int run();

 private:
  [[nodiscard]] bool serving() const { return o_.feed != Feed::kNone; }
  LaunchSpec spec_for(bool one_row) const;
  PassPlan plan(bool all_layers) const;
  void make_reference(const PassOutcome& pass);
  void measure_setup(Timed& t) const;
  Timed measure();
  std::vector<Metric> layer_metrics(const PassOutcome& untraced,
                                    const PassOutcome& traced,
                                    const SpanLog& log, std::uint64_t dropped,
                                    double median_wall_s, double latency_p50_ms) const;

  Options o_;
  Knobs knobs_;
  Inputs in_;
  Reference ref_;
};

LaunchSpec Bench::spec_for(bool one_row) const {
  LaunchSpec spec;
  spec.argv.push_back(o_.dpgreedy);
  for (const std::string& word : o_.command) {
    spec.argv.push_back(word != "{dpt}"  ? word
                        : one_row        ? in_.one_row_dpt_path
                                         : in_.dpt_path);
  }
  spec.stderr_path = o_.workdir + "/child.stderr";
  // One-row launches measure set-up only: flood them regardless of pacing.
  spec.feed = one_row && serving() ? Feed::kFlood : o_.feed;
  spec.csv = one_row ? std::string_view(in_.one_row_csv) : std::string_view(in_.csv);
  spec.row_offsets = one_row ? in_.one_row_offsets : in_.offsets;
  spec.batch_rows = kFloodBatchRows;
  spec.rate_rps = o_.rate_rps;
  spec.lead = std::chrono::duration_cast<Clock::duration>(kPacedLead);
  spec.tick = kPacedTick;
  return spec;
}

PassPlan Bench::plan(bool all_layers) const {
  PassPlan plan;
  plan.snapshot_every = o_.snapshot_every;
  plan.threads = o_.threads;
  if (all_layers || serving()) plan.csv = in_.csv;
  if (all_layers || !serving()) plan.dpt_path = in_.dpt_path;
  plan.all_layers = all_layers;
  return plan;
}

void Bench::make_reference(const PassOutcome& pass) {
  ref_.final_line = final_line(pass.serve.final_report, pass.serve.rows);
  ref_.snapshot_lines = pass.serve.snapshot_lines;
  ref_.total_cost = pass.solve.serial.total_cost;
  ref_.package_count = pass.solve.serial.package_count;
  if (!serving()) {
    const dpg::RequestSequence trace = dpg::read_trace_auto(in_.dpt_path);
    ref_.bound = dpg::packed_lower_bound(trace, knobs_.model);
    ref_.ratio_limit = 2.0 / knobs_.model.alpha;
  }
}

void Bench::measure_setup(Timed& t) const {
  const LaunchSpec spec = spec_for(true);
  for (std::size_t i = 0; i < kSetupBlock; ++i) {
    const LaunchResult run = launch(spec);
    const bool answered =
        serving() ? std::any_of(run.lines.begin(), run.lines.end(),
                                [](const Line& l) {
                                  return starts_with(l.text, "final requests=1 ");
                                })
                  : json_report_line(run) != nullptr;
    if (!run.exited_ok() || !answered) t.setup_ok = false;
    t.setup_s.push_back(seconds_between(run.launched, run.exited));
  }
}

Timed Bench::measure() {
  Timed t;
  LaunchSpec spec = spec_for(false);
  const Reference perturbed = ref_.perturbed();
  // One untimed launch first, so the page cache holds the binary and the
  // input and the first timed launch pays no cold start.  (A paced launch
  // lasts its whole schedule; the set-up launches already warmed the binary.)
  measure_setup(t);
  if (o_.feed != Feed::kPaced) (void)launch(spec);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(Seconds(o_.seconds));
  // A paced run replays the whole input back to back for as many launches
  // as fill --seconds (or one launch of the prefix the schedule reaches).
  const std::size_t paced_launches = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(o_.rate_rps * o_.seconds /
                                              static_cast<double>(in_.rows))));
  Clock::duration last{};
  // A flood keeps serve busy on one CPU for the whole launch, and on a
  // shared host one CPU can run at two thirds the speed of another for
  // minutes.  Launches rotate over the allowed CPUs so every run samples
  // each of them alike.
  std::vector<int> cpus;
  cpu_set_t allowed;
  ::sched_getaffinity(0, sizeof allowed, &allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(static_cast<std::size_t>(cpu), &allowed)) cpus.push_back(cpu);
  }
  do {
    if (t.launches > 0) measure_setup(t);
    if (o_.feed == Feed::kFlood) spec.cpu = cpus[t.launches % cpus.size()];
    const LaunchResult run = launch(spec);
    last = run.exited - run.launched;
    ++t.launches;
    t.attempted += in_.rows;
    t.wall_s.push_back(seconds_between(run.launched, run.exited));
    t.cpu_s.push_back(run.cpu_s);
    t.rss_mib.push_back(run.max_rss_mib);
    const Verdict verdict = serving() ? check_serve(run, ref_, in_.rows)
                                      : check_solve(run, ref_, in_.rows);
    t.failed += verdict.failed;
    if (!verdict.problem.empty()) t.problems.push_back(verdict.problem);
    // The checker must reject a reference that is off by one printed digit
    // (serve) or one bit (solve); otherwise it is not checking anything.
    const Verdict against_perturbed = serving()
                                          ? check_serve(run, perturbed, in_.rows)
                                          : check_solve(run, perturbed, in_.rows);
    if (against_perturbed.failed == 0) t.self_check_ok = false;

    if (!serving()) {
      t.throughput_rps.push_back(static_cast<double>(in_.rows) /
                                 seconds_between(run.launched, run.exited));
      continue;
    }
    const Line* final_line = nullptr;
    for (const Line& line : run.lines) {
      if (starts_with(line.text, "final ")) final_line = &line;
    }
    if (final_line == nullptr) continue;
    t.throughput_rps.push_back(static_cast<double>(in_.rows) /
                               seconds_between(run.first_byte, final_line->at));
    if (o_.feed != Feed::kPaced) continue;
    // Open loop: each snapshot covers rows up to N; row N-1 (0-based) was
    // due at t0 + (N-1)/rate, whenever the feeder actually wrote it.
    t.lag_s.push_back(run.feed_lag_max_s);
    std::vector<double>& latency = t.latency_ms.emplace_back();
    for (const Line& line : run.lines) {
      if (!starts_with(line.text, "snapshot ")) continue;
      const double n = std::stod(fields_of(line.text)["requests"]);
      const double due_s = (n - 1.0) / o_.rate_rps;
      latency.push_back((seconds_between(run.t0, line.at) - due_s) * 1e3);
    }
    t.backlog_rows = std::max(
        t.backlog_rows,
        seconds_between(run.t0, final_line->at) * o_.rate_rps -
            static_cast<double>(in_.rows));
  } while (o_.feed == Feed::kPaced ? t.launches < paced_launches
                                   : Clock::now() + last <= deadline);
  measure_setup(t);
  return t;
}

/// Durations of the spans named `name`, in seconds.
std::vector<double> durations_s(const SpanLog& log, SpanName name) {
  std::vector<double> out;
  for (const Span& s : log.spans()) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::vector<Metric> Bench::layer_metrics(const PassOutcome& untraced,
                                         const PassOutcome& traced,
                                         const SpanLog& log,
                                         std::uint64_t dropped,
                                         double median_wall_s,
                                         double latency_p50_ms) const {
  const double rows = static_cast<double>(traced.serve.rows);
  const double decode_s = sum(durations_s(log, SpanName::kCsvDecode));
  double push_s = 0.0;
  double decide_s = 0.0;
  double repack_s = 0.0;
  std::size_t decide_n = 0;
  std::size_t repack_n = 0;
  for (const Span& s : log.spans()) {
    if (s.name != SpanName::kPush) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    push_s += d;
    if ((s.flags & kRepacked) != 0) {
      repack_s += d;
      ++repack_n;
    } else {
      decide_s += d;
      ++decide_n;
    }
  }
  const double decide_mean = decide_n > 0 ? decide_s / static_cast<double>(decide_n) : 0.0;
  const double repack_extra = repack_s - decide_mean * static_cast<double>(repack_n);
  std::vector<double> snapshots = durations_s(log, SpanName::kSnapshot);
  const double snapshot_p50 = median(snapshots);
  const double snapshot_max =
      snapshots.empty() ? 0.0 : *std::max_element(snapshots.begin(), snapshots.end());
  // The timed command runs the cadence snapshots only (not the extra one
  // taken after the last push when the cadence takes none).
  const double cadence_snapshots_s = o_.snapshot_every > 0 ? sum(snapshots) : 0.0;
  const double finish_s = sum(durations_s(log, SpanName::kFinish));
  const double dpt_open_s = sum(durations_s(log, SpanName::kDptOpen));
  const double run_s = sum(durations_s(log, SpanName::kRun));
  const double free_s = sum(durations_s(log, SpanName::kReportFree));
  const SolveFacts& par = traced.solve.parallel;
  const double command_layers_s =
      serving() ? decode_s + push_s + cadence_snapshots_s + finish_s
                : dpt_open_s + run_s + free_s;
  const double interval_ms =
      1000.0 * (decode_s + push_s) / rows * 1e3 + snapshot_p50 * 1e3;

  return {
      {"trace.csv_decode_ns_per_row", decode_s / rows * 1e9, "ns/row"},
      {"trace.dpt_open_ms", dpt_open_s * 1e3, "ms"},
      {"engine.push_ns_per_row", push_s / rows * 1e9, "ns/row"},
      {"solver.decide_ns_per_row", decide_mean * 1e9, "ns/row"},
      {"solver.repack_ns_per_row", repack_extra / rows * 1e9, "ns/row"},
      {"solver.repack_rounds", static_cast<double>(traced.serve.repack_rounds), "count"},
      {"solver.pack_events", static_cast<double>(traced.serve.final_report.package_count), "count"},
      {"engine.snapshot_us_p50", snapshot_p50 * 1e6, "us"},
      {"engine.snapshot_us_max", snapshot_max * 1e6, "us"},
      {"solver.solve_s", par.solve_seconds, "s"},
      {"solver.phase1_s", par.phase1_seconds, "s"},
      {"solver.dp_cells", static_cast<double>(par.dp_cells), "count"},
      {"engine.report_s", run_s - par.solve_seconds, "s"},
      {"core.report_free_ms", free_s * 1e3, "ms"},
      {"parallel.pool_busy_s", static_cast<double>(par.pool_task_ns) * 1e-9, "s"},
      {"parallel.speedup", traced.solve.serial.solve_seconds / par.solve_seconds, "x"},
      {"obs.trace_overhead_pct", (traced.wall_s / untraced.wall_s - 1.0) * 100.0, "%"},
      {"obs.trace_dropped_events", static_cast<double>(dropped), "count"},
      {"tools.residual_s", median_wall_s - command_layers_s, "s"},
      {"tools.latency_residual_ms", latency_p50_ms - interval_ms, "ms"},
  };
}

void print_metric(const Metric& m, const std::string& note = {}) {
  std::printf("  %-28s %16s %-7s %s\n", m.name.c_str(), number(m.value).c_str(),
              m.unit.c_str(), note.c_str());
}

int Bench::run() {
  in_ = make_inputs(o_);
  std::printf("perfbench %s seed=%llu rows=%zu trace=%d\n", o_.workload.c_str(),
              static_cast<unsigned long long>(o_.seed), in_.rows, o_.trace ? 1 : 0);

  // The reference, before and outside every timed region.
  dpg::obs::set_enabled(false);
  SpanLog off(false, o_.seed);
  make_reference(run_pass(plan(false), knobs_, off));
  if (o_.perturb_reference) ref_ = ref_.perturbed();

  const Timed t = measure();

  const Latency latency = summarize(t.latency_ms);
  // The metrics BENCHMARK.json gates, in its order.  The rest are printed
  // but not gated (workloads.json says why): the latencies, cpu_s and
  // error_rate, which is 0 whenever a run is correct and is carried by the
  // JSON's attempted / failed.
  const std::vector<Metric> e2e = {
      {"throughput_rps", fastest_tenth(t.throughput_rps, true), "rows/s"},
      {"solve_s", fastest_tenth(t.wall_s, false), "s"},
      {"setup_s", median(t.setup_s), "s"},
      {"peak_rss_mb", median(t.rss_mib), "MiB"},
  };
  const Metric latency_p50 = {"latency_p50_ms", latency.p50, "ms"};
  const double error_rate =
      static_cast<double>(t.failed) / static_cast<double>(t.attempted);
  // Any launch that fell behind the schedule makes a backlog.
  const bool backlog =
      o_.feed == Feed::kPaced &&
      (t.throughput_rps.empty() ||
       *std::min_element(t.throughput_rps.begin(), t.throughput_rps.end()) <
           0.99 * o_.rate_rps);

  std::printf("end-to-end (%zu timed launches, %zu one-row set-up launches; "
              "throughput_rps and solve_s are means of the fastest tenth of "
              "the launches, the rest medians):\n",
              t.launches, t.setup_s.size());
  print_metric(e2e[0]);
  if (backlog) {
    std::printf("  %-28s backlog: %.0f rows behind the %.0f rows/s schedule\n",
                "latency_p50_ms, _p99_ms", t.backlog_rows, o_.rate_rps);
  } else if (o_.feed == Feed::kPaced) {
    const std::string note = "(per launch, median over launches; " +
                             std::to_string(latency.samples) + " samples; not gated)";
    print_metric(latency_p50, note);
    print_metric({"latency_p99_ms", latency.p99, "ms"}, note);
  }
  for (std::size_t i = 1; i < e2e.size(); ++i) print_metric(e2e[i]);
  print_metric({"cpu_s", median(t.cpu_s), "s"}, "(the child's user + system time; not gated)");
  if (o_.feed == Feed::kPaced) {
    print_metric({"feed.lag_ms_max",
                  t.lag_s.empty() ? 0.0 : *std::max_element(t.lag_s.begin(), t.lag_s.end()) * 1e3,
                  "ms"},
                 "(latest the feeder wrote a row, vs its due time)");
  }
  print_metric({"error_rate", error_rate, "fraction"},
               "(" + std::to_string(t.failed) + " of " + std::to_string(t.attempted) + " rows)");
  for (const std::string& problem : t.problems) std::printf("  error: %s\n", problem.c_str());
  if (!t.self_check_ok) std::printf("  error: a perturbed reference was accepted\n");
  if (!t.setup_ok) std::printf("  error: a one-row set-up launch failed\n");

  bool passes_agree = true;
  std::vector<Metric> layers;
  if (o_.trace) {
    // The untraced half of the overhead comparison runs right before the
    // traced half, so the host's speed drift over the timed launches does
    // not enter obs.trace_overhead_pct.
    const PassOutcome untraced = run_pass(plan(true), knobs_, off);
    dpg::obs::reset_metrics();
    dpg::obs::reset_trace();
    dpg::obs::set_enabled(true);
    SpanLog log(true, o_.seed);
    const PassOutcome traced = run_pass(plan(true), knobs_, log);
    const std::uint64_t dropped = dpg::obs::trace_dropped_events();
    dpg::obs::set_enabled(false);
    passes_agree =
        final_line(traced.serve.final_report, traced.serve.rows) ==
            final_line(untraced.serve.final_report, untraced.serve.rows) &&
        traced.serve.snapshot_lines == untraced.serve.snapshot_lines &&
        std::bit_cast<std::uint64_t>(traced.solve.serial.total_cost) ==
            std::bit_cast<std::uint64_t>(untraced.solve.serial.total_cost) &&
        std::bit_cast<std::uint64_t>(traced.solve.parallel.total_cost) ==
            std::bit_cast<std::uint64_t>(untraced.solve.serial.total_cost);
    if (!o_.spans_out.empty()) log.write(o_.spans_out);
    layers = layer_metrics(untraced, traced, log, dropped, median(t.wall_s),
                           latency_p50.value);
    std::printf("per-layer (traced pass, %zu spans%s%s):\n", log.spans().size(),
                o_.spans_out.empty() ? "" : " in ", o_.spans_out.c_str());
    for (const Metric& m : layers) {
      if (starts_with(m.name, "tools.") || starts_with(m.name, "obs.")) continue;
      print_metric(m);
    }
    for (const Metric& m : layers) {
      if (starts_with(m.name, "obs.")) print_metric(m);
    }
    for (const Metric& m : layers) {
      if (starts_with(m.name, "tools.")) print_metric(m);
    }
    if (!passes_agree) std::printf("  error: traced and untraced passes disagree\n");
  }

  const bool correct = t.failed == 0 && t.self_check_ok && t.setup_ok && passes_agree;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(t.attempted) +
                     ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  const std::vector<Metric>& reported = o_.trace ? layers : e2e;
  for (std::size_t i = 0; i < reported.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + reported[i].name + "\": {\"value\": " +
            number(reported[i].value) + ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc > 2 && std::string_view(argv[1]) == "spawn-child")
    return perfbench::spawn_child(argv + 2);
  try {
    perfbench::Bench bench(perfbench::parse_options(argc, argv));
    return bench.run();
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
    return 1;
  }
}
