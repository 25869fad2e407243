// dpgreedy — the command-line front end to the solver engine.
//
//   dpgreedy list     [--names]                     (registered solvers)
//   dpgreedy generate --out trace.csv [--kind taxi|paired|zipf|...] [--seed N]
//   dpgreedy stats    --trace trace.csv
//   dpgreedy convert  <in> <out> [--format csv|dpt]
//   dpgreedy solve    --trace trace.csv [--solver NAME] [--theta T]
//                     [--alpha A] [--mu M] [--lambda L] [--threads N]
//                     [--format F] [--export-dir DIR]
//   dpgreedy compare  --trace trace.csv [--solvers a,b,c] [--format F]
//   dpgreedy online   --trace trace.csv ...  (online vs offline DP_Greedy)
//   dpgreedy serve    --trace - [--snapshot-every N] [--probe-chunk N]
//                     [--stats-every N] [--prom-out FILE] [--batch N]
//                     [--ring N] [--listen HOST:PORT] [--shards N]
//                     [--partitions M] [--route R] [--archive FILE]
//                     (long-lived streaming engine over a request feed,
//                     always through run_sharded_serve: inline at 1×1,
//                     N decode × M engine threads otherwise, with
//                     flow-hashed routing (--route server|itemset);
//                     --stats-every prints live rate/latency lines,
//                     --prom-out keeps an atomically-replaced Prometheus
//                     text-format snapshot file fresh, --listen serves
//                     GET /metrics + /healthz from the double-buffered
//                     snapshot board, and --archive keeps a byte-exact
//                     `.dpt` copy of the feed.  Every flag parses into the
//                     one ServeConfig.)
//
// Every solver runs through the SolverRegistry (engine/registry.hpp), so
// `--solver`/`--solvers` accept exactly the names `dpgreedy list` prints.
// Traces are either the CSV format of trace/io.hpp (interchange) or the
// binary columnar `.dpt` format of trace/dpt.hpp (mmap zero-copy load);
// every subcommand picks the reader/writer from the file extension, and
// `convert` translates between the two losslessly.  A trace path of `-`
// reads CSV from stdin (stats/solve/compare/online materialize it; serve
// streams it in bounded memory, serving rows as they arrive).
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dpgreedy.hpp"
#include "util/stopwatch.hpp"

using namespace dpg;

namespace {

// ---------------------------------------------------------------------------
// Shared per-subcommand plumbing: every solving subcommand registers the
// same trace/model/config flags once, through one helper.

struct RunFlags {
  const std::string* trace;
  const double* theta;
  const double* mu;
  const double* lambda;
  const double* alpha;
  const std::size_t* window;
  const std::size_t* repack;
  const std::size_t* group_size;
  const double* hold;
  const std::size_t* threads;
  const bool* no_kernels;
  const bool* verbose;
  const std::string* metrics_out;
  const std::string* trace_out;
};

RunFlags add_run_flags(ArgParser& args) {
  RunFlags flags;
  flags.trace = args.add_string(
      "trace", "trace path (.csv or .dpt; '-' = CSV on stdin)", "trace.csv");
  flags.theta = args.add_double("theta", "correlation threshold", 0.3);
  flags.mu = args.add_double("mu", "cache cost rate", 1.0);
  flags.lambda = args.add_double("lambda", "transfer cost", 1.0);
  flags.alpha = args.add_double("alpha", "package discount", 0.8);
  flags.window = args.add_size("window", "online Jaccard window", 200);
  flags.repack = args.add_size("repack", "online re-pairing interval", 50);
  flags.group_size = args.add_size("group-size", "max group size", 3);
  flags.hold = args.add_double("hold", "break-even hold factor", 1.0);
  flags.threads =
      args.add_size("threads", "Phase-2 worker threads (0 = serial)", 0);
  flags.no_kernels = args.add_flag(
      "no-kernels", "run the scalar DP reference loops instead of the "
      "SIMD kernels (results are bit-identical)");
  flags.verbose = args.add_flag("verbose", "log at DEBUG level", 'v');
  flags.metrics_out = args.add_string(
      "metrics-out", "write a metrics snapshot JSON here (enables telemetry)",
      "");
  flags.trace_out = args.add_string(
      "trace-out",
      "write a Perfetto-loadable trace_event JSON here (enables telemetry)",
      "");
  return flags;
}

/// Applies the cross-cutting run flags: log level and telemetry recording.
/// Call after parse(), before solving.
void begin_telemetry(const RunFlags& flags) {
  if (*flags.verbose) set_log_level(LogLevel::kDebug);
  if (!flags.metrics_out->empty() || !flags.trace_out->empty()) {
    obs::set_enabled(true);
    DPG_DEBUG << "telemetry recording enabled";
  }
}

/// Writes `text` to `path`.  A failed write or close (a full disk,
/// /dev/full) throws IoError naming the path, so the command exits 1.
void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  const bool written = file != nullptr && std::fputs(text.c_str(), file) >= 0;
  if (file == nullptr || std::fclose(file) != 0 || !written) {
    throw IoError("cannot write " + path + ": " + std::strerror(errno));
  }
}

/// Dumps --metrics-out / --trace-out files after the solves finished.  The
/// notes go to stderr: stdout carries only the command's answer.
void finish_telemetry(const RunFlags& flags) {
  if (!flags.metrics_out->empty()) {
    write_text_file(*flags.metrics_out,
                    obs::metrics_json(obs::snapshot_metrics()) + "\n");
    std::fprintf(stderr, "wrote metrics to %s\n", flags.metrics_out->c_str());
  }
  if (!flags.trace_out->empty()) {
    write_text_file(*flags.trace_out, obs::trace_json() + "\n");
    const std::uint64_t dropped = obs::trace_dropped_events();
    if (dropped > 0) {
      std::fprintf(stderr, "warning: %llu trace events dropped (ring full)\n",
                   static_cast<unsigned long long>(dropped));
    }
    std::fprintf(stderr, "wrote trace to %s\n", flags.trace_out->c_str());
  }
}

RequestSequence load_trace(const RunFlags& flags) {
  RequestSequence trace = read_trace_auto(*flags.trace);
  DPG_INFO << "loaded " << trace.size() << " requests (m="
           << trace.server_count() << ", k=" << trace.item_count()
           << ") from " << *flags.trace;
  return trace;
}

CostModel model_of(const RunFlags& flags) {
  CostModel model;
  model.mu = *flags.mu;
  model.lambda = *flags.lambda;
  model.alpha = *flags.alpha;
  model.validate();
  return model;
}

/// The solve knobs of the run flags.  Plans are not kept: only `solve`
/// prints or exports them, and it turns them back on when it does.
SolverConfig config_of(const RunFlags& flags) {
  SolverConfig config;
  config.keep_schedules = false;
  config.theta = *flags.theta;
  config.max_group_size = *flags.group_size;
  config.window = *flags.window;
  config.repack_interval = *flags.repack;
  config.hold_factor = *flags.hold;
  config.threads(*flags.threads);
  config.kernels(!*flags.no_kernels);
  return config;
}

enum class ReportFormat { kTable, kCsv, kJson };

/// Parsed right after the flags, so a bad --format exits before any trace
/// is read.
ReportFormat parse_report_format(const std::string& format) {
  if (format == "table") return ReportFormat::kTable;
  if (format == "csv") return ReportFormat::kCsv;
  if (format == "json") return ReportFormat::kJson;
  throw InvalidArgument("unknown --format '" + format +
                        "' (valid: table, csv, json)");
}

/// Prints the reports in place (a span: no report, and none of its plans,
/// is copied to print it).
void print_reports(std::span<const RunReport> reports, ReportFormat format) {
  switch (format) {
    case ReportFormat::kTable:
      std::printf("%s", render_comparison(reports).c_str());
      return;
    case ReportFormat::kCsv:
      std::printf("%s\n", join(report_csv_header(), ",").c_str());
      for (const RunReport& report : reports) {
        std::printf("%s\n", join(report_csv_row(report), ",").c_str());
      }
      return;
    case ReportFormat::kJson:
      std::printf("[");
      for (std::size_t i = 0; i < reports.size(); ++i) {
        std::printf("%s%s", i == 0 ? "" : ",\n ",
                    report_json(reports[i]).c_str());
      }
      std::printf("]\n");
      return;
  }
}

// ---------------------------------------------------------------------------
// Subcommands.

int cmd_list(int argc, const char* const* argv) {
  ArgParser args("dpgreedy list", "list the registered solvers");
  const bool* names_only =
      args.add_flag("names", "print bare names only (one per line)");
  args.parse(argc, argv);

  if (*names_only) {
    for (const std::string& name : builtin_registry().names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  TextTable table({"solver", "algorithm", "paper", "setting"});
  for (const SolverInfo& info : builtin_registry().list()) {
    table.add_row({info.name, info.algorithm, info.paper_section,
                   info.online ? "online" : "offline"});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_generate(int argc, const char* const* argv) {
  ArgParser args("dpgreedy generate", "generate a workload trace");
  const std::string* out =
      args.add_string("out", "output trace path (.csv or .dpt)", "trace.csv");
  const std::string* kind =
      args.add_string("kind", "taxi | paired | zipf | uniform | bursty", "taxi");
  const std::size_t* seed = args.add_size("seed", "RNG seed", 42);
  const double* duration = args.add_double("duration", "taxi: simulated time", 300.0);
  const std::size_t* requests = args.add_size("requests", "non-taxi: request count", 2000);
  const std::size_t* servers = args.add_size("servers", "server count", 50);
  const std::size_t* items = args.add_size("items", "item count", 10);
  args.parse(argc, argv);

  Rng rng(*seed);
  RequestSequence trace = [&] {
    if (*kind == "taxi") {
      MobilityConfig config;
      config.duration = *duration;
      config.taxi_count = *items;
      return simulate_mobility(config, rng);
    }
    if (*kind == "paired") {
      PairedTraceConfig config;
      config.server_count = *servers;
      config.requests_per_pair = *requests / std::max<std::size_t>(1, *items / 2);
      config.pair_jaccard.assign(*items / 2, 0.0);
      for (std::size_t p = 0; p < config.pair_jaccard.size(); ++p) {
        config.pair_jaccard[p] =
            0.1 + 0.8 * static_cast<double>(p) /
                      static_cast<double>(std::max<std::size_t>(
                          1, config.pair_jaccard.size() - 1));
      }
      return generate_paired_trace(config, rng);
    }
    if (*kind == "zipf") {
      ZipfTraceConfig config;
      config.server_count = *servers;
      config.item_count = *items;
      config.request_count = *requests;
      return generate_zipf_trace(config, rng);
    }
    if (*kind == "uniform") {
      UniformTraceConfig config;
      config.server_count = *servers;
      config.item_count = *items;
      config.request_count = *requests;
      return generate_uniform_trace(config, rng);
    }
    if (*kind == "bursty") {
      BurstyTraceConfig config;
      config.server_count = *servers;
      config.item_count = *items;
      config.requests_per_burst = 25;
      config.burst_count = std::max<std::size_t>(1, *requests / 25);
      return generate_bursty_trace(config, rng);
    }
    throw InvalidArgument("unknown --kind '" + *kind +
                          "' (valid: taxi, paired, zipf, uniform, bursty)");
  }();

  write_trace_auto(*out, trace);
  std::printf("wrote %zu requests (m=%zu, k=%zu) to %s\n", trace.size(),
              trace.server_count(), trace.item_count(), out->c_str());
  return 0;
}

int cmd_convert(int argc, const char* const* argv) {
  // `convert <in> <out>` takes positionals, which ArgParser doesn't do, so
  // this one subcommand parses by hand.  The output format follows the
  // destination extension unless --format overrides it; the input format is
  // always sniffed from the source extension.
  const auto convert_usage = [] {
    std::fputs(
        "usage: dpgreedy convert <in> <out> [--format csv|dpt]\n"
        "  converts a trace between the CSV and binary .dpt formats\n"
        "  (round-trips are lossless; format defaults to the <out> extension)\n",
        stderr);
  };
  std::string format;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      convert_usage();
      return 0;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg == "--format") {
      if (i + 1 >= argc) {
        throw InvalidArgument("dpgreedy convert: --format needs a value");
      }
      format = argv[++i];
    } else if (!arg.empty() && arg.front() == '-') {
      throw InvalidArgument("dpgreedy convert: unknown option '" + arg + "'");
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    convert_usage();
    return 2;
  }
  if (!format.empty() && format != "csv" && format != "dpt") {
    throw InvalidArgument("dpgreedy convert: unknown --format '" + format +
                          "' (valid: csv, dpt)");
  }
  const std::string& in = positional[0];
  const std::string& out = positional[1];

  const RequestSequence trace = read_trace_auto(in);
  const bool to_dpt = format.empty() ? is_dpt_path(out) : format == "dpt";
  if (to_dpt) {
    write_trace_dpt(out, trace);
  } else {
    write_trace_file(out, trace);
  }
  std::printf("converted %s -> %s (%zu requests, m=%zu, k=%zu, %s)\n",
              in.c_str(), out.c_str(), trace.size(), trace.server_count(),
              trace.item_count(), to_dpt ? "dpt" : "csv");
  return 0;
}

int cmd_stats(int argc, const char* const* argv) {
  ArgParser args("dpgreedy stats", "describe a trace");
  const std::string* path = args.add_string(
      "trace", "trace path (.csv or .dpt; '-' = CSV on stdin)", "trace.csv");
  args.parse(argc, argv);
  const RequestSequence trace = read_trace_auto(*path);
  const TraceStats stats = compute_trace_stats(trace);
  std::printf("%s\n", render_spatial_distribution(stats).c_str());
  std::printf("%s\n", render_frequent_pairs(trace, 10).c_str());
  std::printf("requests %zu, servers %zu, items %zu, horizon %s, "
              "mean items/request %s\n",
              stats.request_count, stats.server_count, stats.item_count,
              format_fixed(stats.horizon, 2).c_str(),
              format_fixed(stats.mean_items_per_request, 3).c_str());
  return 0;
}

/// Turns a plan label ("package {1,2}") into a filename stem.
std::string plan_stem(const std::string& label) {
  std::string stem;
  for (const char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      stem += c;
    } else if (!stem.empty() && stem.back() != '_') {
      stem += '_';
    }
  }
  while (!stem.empty() && stem.back() == '_') stem.pop_back();
  return stem.empty() ? "plan" : stem;
}

void export_plans(const std::vector<FlowPlan>& plans,
                  const std::string& export_dir) {
  for (const FlowPlan& plan : plans) {
    if (plan.schedule.segments().empty() && plan.schedule.transfers().empty()) {
      continue;  // nothing scheduled (e.g. an item with no requests)
    }
    const std::string base = export_dir + "/" + plan_stem(plan.label);
    write_text_file(base + ".csv", schedule_to_csv(plan.schedule));
    write_text_file(base + ".dot", schedule_to_dot(plan.schedule, plan.flow));
    std::fprintf(stderr, "exported %s.{csv,dot}\n", base.c_str());
  }
}

int cmd_solve(int argc, const char* const* argv) {
  ArgParser args("dpgreedy solve", "run one registered solver on a trace");
  const RunFlags flags = add_run_flags(args);
  const std::string* solver =
      args.add_string("solver", "registry name (see `dpgreedy list`)",
                      "dp_greedy");
  const std::string* format =
      args.add_string("format", "table | csv | json", "table");
  const std::string* export_dir =
      args.add_string("export-dir", "write plan schedules (CSV+DOT) here", "");
  args.parse(argc, argv);
  const ReportFormat report_format = parse_report_format(*format);
  begin_telemetry(flags);

  // csv and json print the report alone; the plan table, the prose total
  // and the metrics table are the human-readable extras of table format.
  // So plans are kept only for the plan table or --export-dir.
  const bool table = report_format == ReportFormat::kTable;
  SolverConfig config = config_of(flags);
  config.keep_schedules = table || !export_dir->empty();

  const RequestSequence trace = load_trace(flags);
  const CostModel model = model_of(flags);
  const RunReport report =
      builtin_registry().run(*solver, trace, model, config);

  if (table && !report.plans.empty()) {
    TextTable plans({"plan", "cost", "segments", "transfers"});
    for (const FlowPlan& plan : report.plans) {
      plans.add_row({plan.label, format_fixed(plan.schedule.cost(model), 2),
                     std::to_string(plan.schedule.segments().size()),
                     std::to_string(plan.schedule.transfers().size())});
    }
    std::printf("%s\n", plans.render().c_str());
  }
  print_reports({&report, 1}, report_format);
  if (table) {
    std::printf("total %s over %zu item accesses — ave_cost %s\n",
                format_fixed(report.total_cost, 2).c_str(),
                report.total_item_accesses,
                format_fixed(report.ave_cost, 4).c_str());
    if (!report.metrics.counters.empty()) {
      std::printf("\n%s", render_metrics(report).c_str());
    }
  }

  if (!export_dir->empty()) export_plans(report.plans, *export_dir);
  finish_telemetry(flags);
  return 0;
}

int cmd_compare(int argc, const char* const* argv) {
  ArgParser args("dpgreedy compare", "run several solvers on one trace");
  const RunFlags flags = add_run_flags(args);
  const std::string* solvers = args.add_string(
      "solvers", "comma-separated registry names (default: all)", "");
  const std::string* format =
      args.add_string("format", "table | csv | json", "table");
  args.parse(argc, argv);
  const ReportFormat report_format = parse_report_format(*format);
  begin_telemetry(flags);

  std::vector<std::string> names;
  if (solvers->empty()) {
    names = builtin_registry().names();
  } else {
    for (const std::string& name : split(*solvers, ',')) {
      names.push_back(std::string(trim(name)));
    }
  }
  const RequestSequence trace = load_trace(flags);
  const std::vector<RunReport> reports =
      run_solvers(names, trace, model_of(flags), config_of(flags));
  print_reports(reports, report_format);
  finish_telemetry(flags);
  return 0;
}

int cmd_online(int argc, const char* const* argv) {
  ArgParser args("dpgreedy online", "online DP_Greedy vs the offline solve");
  const RunFlags flags = add_run_flags(args);
  args.parse(argc, argv);
  begin_telemetry(flags);

  const RequestSequence trace = load_trace(flags);
  const CostModel model = model_of(flags);
  const SolverConfig config = config_of(flags);
  const RunReport online =
      builtin_registry().run("online_dp_greedy", trace, model, config);
  const RunReport offline =
      builtin_registry().run("dp_greedy", trace, model, config);

  std::printf("online : total %s, ave %s (%zu packs, %zu unpacks, "
              "%zu λ-charges)\n",
              format_fixed(online.total_cost, 2).c_str(),
              format_fixed(online.ave_cost, 4).c_str(), online.package_count,
              online.unpack_events, online.transfer_events);
  std::printf("offline: total %s, ave %s\n",
              format_fixed(offline.total_cost, 2).c_str(),
              format_fixed(offline.ave_cost, 4).c_str());
  if (offline.total_cost > 0.0) {
    std::printf("online/offline ratio: %s\n",
                format_fixed(online.total_cost / offline.total_cost, 3).c_str());
  }
  finish_telemetry(flags);
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  ArgParser args("dpgreedy serve",
                 "run the streaming engine over a request feed");
  const RunFlags flags = add_run_flags(args);
  const std::size_t* snapshot_every = args.add_size(
      "snapshot-every", "emit a snapshot line every N requests (0 = final only)",
      1000);
  const std::size_t* probe_chunk = args.add_size(
      "probe-chunk",
      "run the offline cost-ratio probe every N requests (0 = off)", 0);
  const std::size_t* max_requests =
      args.add_size("max-requests", "stop after N requests (0 = all input)", 0);
  const std::size_t* stats_every = args.add_size(
      "stats-every",
      "emit a live stats line (rate, per-block p50/p99) every N requests "
      "(0 = off; enables telemetry)",
      0);
  const std::string* prom_out = args.add_string(
      "prom-out",
      "write a Prometheus text-format snapshot here on every stats/snapshot "
      "cadence and at exit (atomic rename; enables telemetry)",
      "");
  const std::size_t* batch = args.add_size(
      "batch", "most requests per block (the push_batch unit)", 1024);
  const std::size_t* ring = args.add_size(
      "ring", "work-ring capacity in blocks (threaded runs)", 8);
  const std::size_t* shards = args.add_size(
      "shards",
      "decode shards N (N = M = 1 serves on one thread; otherwise N decode "
      "and M engine threads; see docs/streaming.md)",
      1);
  const std::size_t* partitions = args.add_size(
      "partitions", "engine partitions M (rows are flow-hashed; see --route)",
      1);
  const std::string* route = args.add_string(
      "route", "partitioned flow routing: server | itemset", "server");
  const std::string* archive = args.add_string(
      "archive",
      "archive the feed to this .dpt file while serving (1x1 only; the "
      "file is byte-identical to an offline convert of the same rows)",
      "");
  const std::string* listen = args.add_string(
      "listen",
      "serve GET /metrics and /healthz on HOST:PORT (IPv4; port 0 = "
      "ephemeral; enables telemetry)",
      "");
  args.parse(argc, argv);

  // Every serve flag lands in the one ServeConfig; validate() rejects bad
  // combinations (range errors, --archive with sharding) here at the parse
  // site, naming the offending field.
  ServeConfig config;
  config.batch(*batch)
      .ring(*ring)
      .shards(*shards)
      .partitions(*partitions)
      .route(parse_serve_route(*route))
      .snapshot_every(*snapshot_every)
      .stats_every(*stats_every)
      .probe_chunk(*probe_chunk)
      .max_requests(*max_requests)
      .listen(*listen)
      .prom_out(*prom_out)
      .archive(*archive);
  config.validate();

  begin_telemetry(flags);
  // Live exposition needs the counters recording even without
  // --metrics-out/--trace-out.
  if (config.stats_interval > 0 || !config.prom_path.empty() ||
      !config.listen_address.empty()) {
    obs::set_enabled(true);
  }

  const CostModel model = model_of(flags);
  StreamingOptions options;
  options.online.theta = *flags.theta;
  options.online.window = *flags.window;
  options.online.repack_interval = *flags.repack;
  options.online.hold_factor = *flags.hold;
  options.probe_chunk = config.probe_chunk_rows;

  // Published snapshots live on a double-buffered board: the serve thread
  // publishes at snapshot cadence, and observers (the /metrics listener)
  // copy the board without ever touching the engine mutex.
  ReportBoard board;
  std::unique_ptr<obs::ScrapeListener> listener;
  if (!config.listen_address.empty()) {
    std::string host;
    std::uint16_t port = 0;
    obs::parse_listen_address(config.listen_address, &host, &port);
    listener = std::make_unique<obs::ScrapeListener>(host, port, [&board] {
      // The standard counter/histogram exposition, plus serve-level gauges
      // derived from the last published snapshot (if any).  The liveness
      // gauge comes first so a scrape is never empty — zero-valued counters
      // are dropped from snapshots, so before the first ingested batch the
      // standard exposition alone would be an empty body.
      std::string body = "# TYPE dpgreedy_serve_up gauge\ndpgreedy_serve_up 1\n";
      body += obs::prometheus_text(obs::snapshot_metrics());
      std::uint64_t version = 0;
      const StreamingSnapshot s = board.read(&version);
      if (version > 0) {
        const auto gauge = [&body](const char* name, const std::string& value) {
          body += "# TYPE ";
          body += name;
          body += " gauge\n";
          body += name;
          body += ' ';
          body += value;
          body += '\n';
        };
        gauge("dpgreedy_serve_requests", std::to_string(s.requests));
        gauge("dpgreedy_serve_epoch", std::to_string(s.epoch));
        gauge("dpgreedy_serve_live_packages", std::to_string(s.live_packages));
        gauge("dpgreedy_serve_total_cost", format_fixed(s.report.total_cost, 6));
        gauge("dpgreedy_serve_cost_ratio", format_fixed(s.cost_ratio, 6));
      }
      return body;
    });
    std::fprintf(stderr, "serve: listening on %s:%u (/metrics, /healthz)\n",
                 host.c_str(), static_cast<unsigned>(listener->port()));
  }

  // Prometheus snapshot files are written atomically (FILE.tmp + rename),
  // so a concurrent scraper never reads a torn exposition.
  const auto write_prom = [&config] {
    if (config.prom_path.empty()) return;
    if (!obs::write_prometheus_file(config.prom_path,
                                    obs::snapshot_metrics())) {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   config.prom_path.c_str());
    }
  };

  // The cadence hooks: a snapshot line at every multiple of
  // --snapshot-every, then a stats line at every multiple of --stats-every
  // (the runtime ends a block on each, so both land on exact row counts).
  ServeHooks hooks;
  hooks.on_snapshot = [&write_prom, &board](const StreamingSnapshot& s,
                                            std::size_t) {
    std::printf(
        "snapshot requests=%zu epoch=%zu packages=%zu items=%zu total=%s "
        "ave=%s delta=%s ratio=%s allocs=%llu\n",
        s.requests, s.epoch, s.live_packages, s.item_count,
        format_fixed(s.report.total_cost, 2).c_str(),
        format_fixed(s.report.ave_cost, 4).c_str(),
        format_fixed(s.delta.total_cost, 2).c_str(),
        format_fixed(s.cost_ratio, 3).c_str(),
        static_cast<unsigned long long>(s.state_alloc_events));
    std::fflush(stdout);
    write_prom();
    board.publish(s);
  };

  // The live stats line: ingest rate since start plus the per-block
  // latency distribution from the stream.batch_ns histogram.  A distinct
  // `stats ` prefix, so consumers of `snapshot `/`final ` lines are
  // unaffected.
  const Stopwatch serve_watch;
  hooks.on_stats = [&write_prom, &serve_watch](std::size_t rows,
                                               std::size_t epoch) {
    const obs::MetricsSnapshot m = obs::snapshot_metrics();
    const obs::HistogramData* latency = nullptr;
    for (const auto& [name, data] : m.histograms) {
      if (name == "stream.batch_ns") latency = &data;
    }
    const obs::HistogramData empty;
    if (latency == nullptr) latency = &empty;
    const double elapsed = serve_watch.elapsed_seconds();
    std::printf(
        "stats requests=%zu elapsed_s=%s rate_rps=%.0f epoch=%zu "
        "batch_p50_ns=%llu batch_p99_ns=%llu\n",
        rows, format_fixed(elapsed, 3).c_str(),
        elapsed > 0.0 ? static_cast<double>(rows) / elapsed : 0.0, epoch,
        static_cast<unsigned long long>(
            obs::histogram_quantile_upper(*latency, 0.50)),
        static_cast<unsigned long long>(
            obs::histogram_quantile_upper(*latency, 0.99)));
    std::fflush(stdout);
    write_prom();
  };

  // `serve --archive FILE` keeps a byte-exact `.dpt` copy of the served
  // rows (config.validate() pinned this to 1×1, where arrival order is the
  // archive order).
  std::unique_ptr<DptStreamWriter> archive_writer;
  if (!config.archive_path.empty()) {
    archive_writer = std::make_unique<DptStreamWriter>(config.archive_path);
    hooks.on_served = [&archive_writer](const RequestBlock& block,
                                        std::size_t rows) {
      if (rows == block.size()) {
        archive_writer->append_block(block);
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          archive_writer->append(block.server_of(r), block.time_of(r),
                                 block.items_of(r));
        }
      }
    };
  }

  // A malformed trace mid-stream must not vaporize what was already
  // ingested: the runtime serves every row before the bad one and reports
  // the error (path + row/byte offset), the final line covers those rows,
  // and serve exits nonzero.
  bool feed_failed = false;
  ShardedServeResult result;
  try {
    if (is_dpt_path(*flags.trace)) {
      // Binary traces mmap in zero-copy; claimed blocks view the columns.
      const RequestSequence trace = read_trace_auto(*flags.trace);
      SequenceClaimSource source(trace, config.batch_rows,
                                 config.max_request_rows);
      result = run_sharded_serve(source, model, config, options, hooks);
    } else {
      CsvClaimSource source(*flags.trace, config.batch_rows,
                            config.max_request_rows);
      result = run_sharded_serve(source, model, config, options, hooks);
    }
  } catch (const Error& error) {
    std::fprintf(stderr, "dpgreedy serve: %s\n", error.what());
    feed_failed = true;
  }
  if (!result.feed_error.empty()) {
    std::fprintf(stderr, "dpgreedy serve: %s\n", result.feed_error.c_str());
    feed_failed = true;
  }
  if (!result.engine_error.empty()) {
    // A rejected row the runtime can name is named like a malformed one
    // (source and row); otherwise the message names the partition.
    const std::string source = *flags.trace == "-" ? "<stdin>" : *flags.trace;
    const std::string message =
        result.rejected_row > 0
            ? source + ": row " + std::to_string(result.rejected_row) + ": " +
                  result.engine_error
            : result.engine_error;
    std::fprintf(stderr, "dpgreedy serve: %s\n", message.c_str());
    feed_failed = true;
  }
  // The archive covers exactly the served rows — on a feed error that is
  // the valid prefix, which is still a well-formed `.dpt`.
  if (archive_writer) {
    try {
      archive_writer->finish();
    } catch (const Error& error) {
      std::fprintf(stderr, "dpgreedy serve: archive: %s\n", error.what());
      feed_failed = true;
    }
  }
  const RunReport& report = result.report;
  std::printf(
      "final requests=%zu total=%s ave=%s transfers=%zu packs=%zu "
      "unpacks=%zu ratio=%s chunks=%zu\n",
      result.stats.requests, format_fixed(report.total_cost, 2).c_str(),
      format_fixed(report.ave_cost, 4).c_str(), report.transfer_events,
      report.package_count, report.unpack_events,
      format_fixed(result.cost_ratio, 3).c_str(), result.probe_chunks);
  write_prom();  // final exposition covers the whole run
  if (listener) listener->stop();
  finish_telemetry(flags);
  return feed_failed ? 1 : 0;
}

void usage() {
  std::fputs(
      "usage: dpgreedy <list|generate|stats|convert|solve|compare|online|"
      "serve> [options]\n"
      "       dpgreedy <command> --help for per-command options\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  // Shift argv so each subcommand parses its own options.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "list") return cmd_list(sub_argc, sub_argv);
    if (command == "generate") return cmd_generate(sub_argc, sub_argv);
    if (command == "stats") return cmd_stats(sub_argc, sub_argv);
    if (command == "convert") return cmd_convert(sub_argc, sub_argv);
    if (command == "solve") return cmd_solve(sub_argc, sub_argv);
    if (command == "compare") return cmd_compare(sub_argc, sub_argv);
    if (command == "online") return cmd_online(sub_argc, sub_argv);
    if (command == "serve") return cmd_serve(sub_argc, sub_argv);
    usage();
    return 2;
  } catch (const Error& error) {
    std::fprintf(stderr, "dpgreedy %s: %s\n", command.c_str(), error.what());
    return 1;
  }
}
