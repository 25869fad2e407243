// google-benchmark microbenchmarks for the solver substrate: the optimal
// offline DP (both inner-minimum strategies), greedy, the Section-V index
// build, correlation analysis, the full DP_Greedy pipeline, and every
// registry solver end to end (one benchmark per registered name).
//
// `bm_solvers --fragment FILE` skips the google-benchmark suite and instead
// measures the DP kernels (solver/kernels.hpp: the fused pre-scan and the
// window-minimum ring) against the scalar reference loops they replace,
// emitting the "dp_kernel" section as a fragment for dpgreedy_bench to
// merge, with a >=2x single-thread speedup gate armed (the gate only
// applies where the SSE2 kernels compiled).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/request_index.hpp"
#include "harness/fragment.hpp"
#include "harness_common.hpp"
#include "harness_solvers.hpp"
#include "engine/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/kernels.hpp"
#include "trace/generators.hpp"
#include "util/stopwatch.hpp"

namespace dpg {
namespace {

Flow make_flow(std::size_t n, std::size_t m, std::uint64_t seed) {
  UniformTraceConfig config;
  config.server_count = m;
  config.item_count = 1;
  config.request_count = n;
  Rng rng(seed);
  return make_item_flow(generate_uniform_trace(config, rng), 0);
}

void BM_OptimalOfflineWindowMin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Flow flow = make_flow(n, 16, 1);
  const CostModel model{1.0, 1.0, 0.8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_optimal_offline(flow, model, 16, {}, /*build_schedule=*/false)
            .raw_cost);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OptimalOfflineWindowMin)->Range(256, 16384)->Complexity();

void BM_OptimalOfflineNaiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Flow flow = make_flow(n, 16, 1);
  const CostModel model{1.0, 1.0, 0.8};
  OptimalOfflineOptions options;
  options.fast_range_min = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_optimal_offline(flow, model, 16, options,
                              /*build_schedule=*/false)
            .raw_cost);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OptimalOfflineNaiveScan)->Range(256, 4096)->Complexity();

void BM_GreedySolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Flow flow = make_flow(n, 16, 2);
  const CostModel model{1.0, 1.0, 0.8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_greedy(flow, model, 16).raw_cost);
  }
}
BENCHMARK(BM_GreedySolve)->Range(256, 16384);

void BM_RequestIndexBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Flow flow = make_flow(n, m, 3);
  for (auto _ : state) {
    const RequestIndex index(flow, m);
    benchmark::DoNotOptimize(index.node_count());
  }
}
BENCHMARK(BM_RequestIndexBuild)
    ->Args({1024, 8})
    ->Args({1024, 64})
    ->Args({8192, 8})
    ->Args({8192, 64});

void BM_CorrelationAnalysis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ZipfTraceConfig config;
  config.item_count = 10;
  config.request_count = n;
  Rng rng(4);
  const RequestSequence seq = generate_zipf_trace(config, rng);
  for (auto _ : state) {
    const CorrelationAnalysis analysis(seq);
    benchmark::DoNotOptimize(analysis.sorted_pairs().size());
  }
}
BENCHMARK(BM_CorrelationAnalysis)->Range(1024, 16384);

/// Phase-1 representations head to head at growing item counts on a sparse
/// workload (Zipf popularity, pairwise co-access): the dense triangle
/// materializes k(k−1)/2 pairs, the sparse hash only the observed ones.
RequestSequence sparse_phase1_trace(std::size_t k) {
  ZipfTraceConfig config;
  config.server_count = 50;
  config.item_count = k;
  config.request_count = 20000;
  config.co_access = 0.3;
  Rng rng(1234);
  return generate_zipf_trace(config, rng);
}

void BM_CorrelationDense(benchmark::State& state) {
  const RequestSequence seq =
      sparse_phase1_trace(static_cast<std::size_t>(state.range(0)));
  CorrelationOptions options;
  options.mode = CorrelationOptions::Mode::kDense;
  for (auto _ : state) {
    const CorrelationAnalysis analysis(seq, options);
    benchmark::DoNotOptimize(analysis.sorted_pairs().size());
  }
}
BENCHMARK(BM_CorrelationDense)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_CorrelationSparse(benchmark::State& state) {
  const RequestSequence seq =
      sparse_phase1_trace(static_cast<std::size_t>(state.range(0)));
  CorrelationOptions options;
  options.mode = CorrelationOptions::Mode::kSparse;
  for (auto _ : state) {
    const CorrelationAnalysis analysis(seq, options);
    benchmark::DoNotOptimize(analysis.observed_pair_count());
  }
}
BENCHMARK(BM_CorrelationSparse)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_CorrelationSparseSharded(benchmark::State& state) {
  const RequestSequence seq =
      sparse_phase1_trace(static_cast<std::size_t>(state.range(0)));
  ThreadPool pool;
  CorrelationOptions options;
  options.mode = CorrelationOptions::Mode::kSparse;
  options.pool = &pool;
  for (auto _ : state) {
    const CorrelationAnalysis analysis(seq, options);
    benchmark::DoNotOptimize(analysis.observed_pair_count());
  }
}
BENCHMARK(BM_CorrelationSparseSharded)->Arg(512)->Arg(2048);

/// Repeated DP solves with and without a reusable SolverWorkspace: the
/// workspace path's steady state allocates nothing (bench/bm_phase1 counts
/// the exact allocation numbers for the committed baseline).
void BM_OptimalOfflineFreshBuffers(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Flow flow = make_flow(n, 16, 7);
  const CostModel model{1.0, 1.0, 0.8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_optimal_offline(flow, model, 16, {}, /*build_schedule=*/false)
            .raw_cost);
  }
}
BENCHMARK(BM_OptimalOfflineFreshBuffers)->Range(256, 4096);

void BM_OptimalOfflineWorkspaceReuse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Flow flow = make_flow(n, 16, 7);
  const CostModel model{1.0, 1.0, 0.8};
  SolverWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_optimal_offline(flow, model, 16, {}, /*build_schedule=*/false,
                              &workspace)
            .raw_cost);
  }
}
BENCHMARK(BM_OptimalOfflineWorkspaceReuse)->Range(256, 4096);

void BM_PackageFlowBuild(benchmark::State& state) {
  PairedTraceConfig config;
  config.server_count = 50;
  config.requests_per_pair = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const RequestSequence seq = generate_paired_trace(config, rng);
  Flow scratch;
  for (auto _ : state) {
    make_package_flow(seq, 0, 1, scratch);
    benchmark::DoNotOptimize(scratch.size());
  }
}
BENCHMARK(BM_PackageFlowBuild)->Range(256, 4096);

void BM_DpGreedyEndToEnd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  PairedTraceConfig config;
  config.server_count = 50;
  config.requests_per_pair = n / 5;
  Rng rng(5);
  const RequestSequence seq = generate_paired_trace(config, rng);
  const CostModel model{1.0, 2.0, 0.8};
  DpGreedyOptions options;
  options.theta = 0.3;
  options.keep_plans = false;  // reads only the total
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_dp_greedy(seq, model, options).total_cost);
  }
}
BENCHMARK(BM_DpGreedyEndToEnd)->Range(512, 8192);

/// Every registered solver, end to end through the engine, on one shared
/// paired trace — one benchmark per registry name, so adding a solver adds
/// its benchmark without touching this file.  The Solver instance lives
/// outside the loop, so workspace reuse across runs is part of what is
/// measured (exactly how a sweep harness drives the engine).
void BM_RegistrySolver(benchmark::State& state, const std::string& name) {
  PairedTraceConfig config;
  config.server_count = 50;
  config.requests_per_pair = 400;
  Rng rng(5);
  const RequestSequence seq = generate_paired_trace(config, rng);
  const CostModel model{1.0, 2.0, 0.8};
  SolverConfig solver_config;
  solver_config.theta = 0.3;
  solver_config.keep_schedules = false;
  const std::unique_ptr<Solver> solver = builtin_registry().create(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver->run(seq, model, solver_config).total_cost);
  }
}

[[maybe_unused]] const int kRegistryBenchmarks = [] {
  for (const std::string& name : builtin_registry().names()) {
    benchmark::RegisterBenchmark(("BM_RegistrySolver/" + name).c_str(),
                                 BM_RegistrySolver, name);
  }
  return 0;
}();

/// Phase-2 sharding sweep: the same end-to-end dp_greedy solve at a given
/// SolverConfig::threads, so `bm_solvers --benchmark_filter=Threads` prints
/// the serial-vs-pooled solve times side by side.  On a single-core host the
/// pooled rows mostly measure the sharding overhead (the interesting bound
/// there: how little determinism costs).
void BM_DpGreedyThreads(benchmark::State& state) {
  PairedTraceConfig config;
  config.server_count = 50;
  config.requests_per_pair = 400;
  Rng rng(5);
  const RequestSequence seq = generate_paired_trace(config, rng);
  const CostModel model{1.0, 2.0, 0.8};
  SolverConfig solver_config;
  solver_config.theta = 0.3;
  solver_config.keep_schedules = false;
  solver_config.threads(static_cast<std::size_t>(state.range(0)));
  const std::unique_ptr<Solver> solver = builtin_registry().create("dp_greedy");
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver->run(seq, model, solver_config).total_cost);
  }
}
BENCHMARK(BM_DpGreedyThreads)->Arg(0)->Arg(2)->Arg(4)->Arg(8);

/// The same end-to-end dp_greedy run with telemetry recording on vs off —
/// the measured bound behind the "≤2% disabled, single-digit % enabled"
/// overhead note in docs/observability.md.
void BM_DpGreedyTelemetry(benchmark::State& state, bool telemetry_on) {
  PairedTraceConfig config;
  config.server_count = 50;
  config.requests_per_pair = 400;
  Rng rng(5);
  const RequestSequence seq = generate_paired_trace(config, rng);
  const CostModel model{1.0, 2.0, 0.8};
  SolverConfig solver_config;
  solver_config.theta = 0.3;
  solver_config.keep_schedules = false;
  obs::set_enabled(telemetry_on);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        builtin_registry().run("dp_greedy", seq, model, solver_config)
            .total_cost);
    // Reset between iterations so the trace rings never saturate (dropped
    // events would make later iterations artificially cheap).
    if (telemetry_on) {
      state.PauseTiming();
      obs::reset_metrics();
      obs::reset_trace();
      state.ResumeTiming();
    }
  }
  obs::set_enabled(false);
}

[[maybe_unused]] const int kTelemetryBenchmarks = [] {
  benchmark::RegisterBenchmark("BM_DpGreedyTelemetry/off",
                               BM_DpGreedyTelemetry, false);
  benchmark::RegisterBenchmark("BM_DpGreedyTelemetry/on",
                               BM_DpGreedyTelemetry, true);
  return 0;
}();

// ---------------------------------------------------------------------------
// The `dp_kernel` section: solver/kernels.hpp vs the scalar reference loops
// it replaced, on columns gathered from a real flow.  Each kernel is checked
// bit-identical against its reference inside the timed harness, and the
// fused pipeline (w/W pass + window-minimum sweep — the two Phase-2 DP hot
// loops) carries the >=2x single-thread acceptance gate.

constexpr int kKernelRepetitions = 7;

/// Best-of-N wall time of `fn`, in milliseconds.
template <typename Fn>
double kernel_best_ms(Fn&& fn, int repetitions = kKernelRepetitions) {
  double best = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.elapsed_seconds() * 1e3);
  }
  return best;
}

// The timed sweeps live in their own noinline functions so each hot loop
// gets stable code placement — inlined into one big harness function, loop
// alignment becomes a lottery that swamps the scalar/kernel ratio.
#if defined(_MSC_VER)
#define DPG_BENCH_NOINLINE __declspec(noinline)
#else
#define DPG_BENCH_NOINLINE __attribute__((noinline))
#endif

/// The literal window scan: min over [i − width, i) at every node.
DPG_BENCH_NOINLINE double sweep_window_scalar(const double* v,
                                              std::size_t width,
                                              std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = width; i < n; ++i) {
    double best = v[i - width];
    for (std::size_t k = i - width + 1; k < i; ++k) {
      best = std::min(best, v[k]);
    }
    acc += best;
  }
  return acc;
}

/// The same minima as the forward pass reads them: the ring holds v up to
/// i − 2 and answers [i − width, i − 1); v_{i−1} joins as a register and
/// is pushed after the query.  `out`, when given, keeps each minimum.
DPG_BENCH_NOINLINE double sweep_window_kernel(kernels::WindowMinRing& ring,
                                              const double* v,
                                              std::size_t width,
                                              std::size_t n,
                                              double* out = nullptr) {
  for (std::size_t j = 0; j + 1 < width; ++j) ring.push(j, v[j]);
  double acc = 0.0;
  for (std::size_t i = width; i < n; ++i) {
    const double older = ring.min_of(i - width, i - 1);
    ring.push(i - 1, v[i - 1]);
    const double best = std::min(older, v[i - 1]);
    if (out != nullptr) out[i] = best;
    acc += best;
  }
  return acc;
}

/// The reference's pre-scan: the RequestIndex pass that finds p(i), then
/// the literal w/W loop.
DPG_BENCH_NOINLINE void sweep_prescan_scalar(const Flow& flow,
                                             std::size_t servers, double mu,
                                             double lambda,
                                             RequestIndex& index, Cost* w,
                                             Cost* w_prefix) {
  index.rebuild(flow, servers);
  w[0] = 0.0;
  w_prefix[0] = 0.0;
  for (std::size_t j = 1; j < index.node_count(); ++j) {
    const std::int32_t pj = index.prev_same_server(j);
    const Cost link =
        pj >= 0 ? mu * (index.time_of(j) -
                        index.time_of(static_cast<std::size_t>(pj)))
                : kInfiniteCost;
    w[j] = std::min(lambda, link);
    w_prefix[j] = w_prefix[j - 1] + w[j];
  }
}

/// The kernel path's one fused pass (p(i), link, w, W, base and L).
DPG_BENCH_NOINLINE void sweep_prescan_kernel(
    const Flow& flow, std::size_t servers, double mu, double lambda,
    std::int32_t* last_visit, const kernels::NodeColumns& columns) {
  kernels::prescan_flow(flow.points, servers, mu, lambda, last_visit,
                        columns);
}

int run_dp_kernel(const std::string& fragment_path) {
  // A 65536-request single-item flow over 16 servers, pre-scanned both
  // ways; the window sweeps run over a tie-heavy v column of the same
  // length at fixed widths up to the widest window the ring serves.
  const std::size_t n = 65536;
  const std::size_t servers = 16;
  const Flow flow = make_flow(n, servers, 9);
  const std::size_t nodes = n + 1;
  const double mu = 1.0;
  const double lambda = 2.0;

  RequestIndex index;
  std::vector<Cost> w_s(nodes), wp_s(nodes);
  std::vector<std::int32_t> last_visit(servers);
  std::vector<Time> t(nodes);
  std::vector<ServerId> s(nodes);
  std::vector<std::int32_t> prev(nodes);
  std::vector<Cost> base(nodes), wp_k(nodes);
  std::vector<std::int32_t> local_links(nodes);
  const kernels::NodeColumns columns{t.data(),    s.data(),
                                     prev.data(), base.data(),
                                     wp_k.data(), local_links.data()};
  // The p(i) pre-scan alone, for context: the reference runs it before
  // its w/W loop; the kernel pass folds it in.
  const double link_ms = kernel_best_ms([&] {
    for (int i = 0; i < 8; ++i) index.rebuild(flow, servers);
  });

  // Tie-heavy v column (0.125-quantized, like the equivalence fuzzers).
  std::vector<double> v(nodes);
  Rng rng(17);
  for (double& x : v) x = 0.125 * static_cast<double>(rng.next_below(4096));

  struct WindowRow {
    std::size_t width;
    double scalar_ms;
    double kernel_ms;
  };
  std::vector<WindowRow> windows;
  bool bit_identical = true;
  kernels::WindowMinRing ring;
  std::vector<double> minima(nodes);
  for (const std::size_t width :
       {std::size_t{16}, std::size_t{64}, kernels::kRingWindow}) {
    (void)sweep_window_kernel(ring, v.data(), width, nodes, minima.data());
    for (std::size_t i = width; i < nodes; ++i) {
      const double* window = v.data() + (i - width);
      if (minima[i] != *std::min_element(window, window + width)) {
        bit_identical = false;
      }
    }
    WindowRow row{width, 0.0, 0.0};
    row.scalar_ms = kernel_best_ms([&] {
      double acc = sweep_window_scalar(v.data(), width, nodes);
      benchmark::DoNotOptimize(acc);
    });
    row.kernel_ms = kernel_best_ms([&] {
      double acc = sweep_window_kernel(ring, v.data(), width, nodes);
      benchmark::DoNotOptimize(acc);
    });
    windows.push_back(row);
  }

  sweep_prescan_scalar(flow, servers, mu, lambda, index, w_s.data(),
                       wp_s.data());
  sweep_prescan_kernel(flow, servers, mu, lambda, last_visit.data(), columns);
  if (wp_s != wp_k) bit_identical = false;
  const double w_scalar_ms = kernel_best_ms([&] {
    for (int i = 0; i < 8; ++i) {
      sweep_prescan_scalar(flow, servers, mu, lambda, index, w_s.data(),
                           wp_s.data());
    }
    benchmark::DoNotOptimize(wp_s.data());
  });
  const double w_kernel_ms = kernel_best_ms([&] {
    for (int i = 0; i < 8; ++i) {
      sweep_prescan_kernel(flow, servers, mu, lambda, last_visit.data(),
                           columns);
    }
    benchmark::DoNotOptimize(wp_k.data());
  });

  // The per-flow pipeline: one pre-scan, then a window minimum per node,
  // at the widest window the ring serves (wider ones go through block
  // minima on the kernel path).
  const std::size_t pipe_width = kernels::kRingWindow;
  const double pipeline_scalar_ms = kernel_best_ms([&] {
    sweep_prescan_scalar(flow, servers, mu, lambda, index, w_s.data(),
                         wp_s.data());
    double acc = sweep_window_scalar(v.data(), pipe_width, nodes);
    benchmark::DoNotOptimize(acc);
  });
  const double pipeline_kernel_ms = kernel_best_ms([&] {
    sweep_prescan_kernel(flow, servers, mu, lambda, last_visit.data(),
                         columns);
    double acc = sweep_window_kernel(ring, v.data(), pipe_width, nodes);
    benchmark::DoNotOptimize(acc);
  });
  const double pipeline_speedup = pipeline_scalar_ms / pipeline_kernel_ms;

  std::ostringstream section;
  section.setf(std::ios::fixed);
  section.precision(3);
  section << "{\"isa\": \""
          << kernels::active_isa() << "\", \"repetitions\": "
          << kKernelRepetitions << ", \"nodes\": " << nodes
          << ", \"link_costs_ms\": " << link_ms
          << ", \"w_and_prefix\": {\"scalar_ms\": " << w_scalar_ms
          << ", \"kernel_ms\": " << w_kernel_ms
          << ", \"speedup\": " << w_scalar_ms / w_kernel_ms
          << "}, \"window_min\": [";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i != 0) section << ", ";
    section << "{\"width\": " << windows[i].width
            << ", \"scalar_ms\": " << windows[i].scalar_ms
            << ", \"kernel_ms\": " << windows[i].kernel_ms
            << ", \"speedup\": " << windows[i].scalar_ms / windows[i].kernel_ms
            << "}";
  }
  section << "], \"pipeline\": {\"window_width\": " << pipe_width
          << ", \"scalar_ms\": " << pipeline_scalar_ms
          << ", \"kernel_ms\": " << pipeline_kernel_ms
          << ", \"speedup\": " << pipeline_speedup
          << "}, \"bit_identical\": " << (bit_identical ? "true" : "false")
          << ", \"peak_rss_bytes\": " << harness::peak_rss_bytes() << "}";

  const int status =
      bench::write_fragment(fragment_path, {{"dp_kernel", section.str()}});
  if (status == 0) std::printf("wrote %s\n", fragment_path.c_str());

  std::printf("dp_kernel isa=%s nodes=%zu\n", kernels::active_isa(), nodes);
  std::printf("pre-scan (w_and_prefix): scalar %.3f ms  kernel %.3f ms  "
              "%.2fx\n",
              w_scalar_ms, w_kernel_ms, w_scalar_ms / w_kernel_ms);
  for (const WindowRow& row : windows) {
    std::printf("window_min w=%zu: scalar %.3f ms  kernel %.3f ms  %.2fx\n",
                row.width, row.scalar_ms, row.kernel_ms,
                row.scalar_ms / row.kernel_ms);
  }
  std::printf("pipeline: scalar %.3f ms  kernel %.3f ms  speedup %.2fx  %s\n",
              pipeline_scalar_ms, pipeline_kernel_ms, pipeline_speedup,
              bit_identical ? "bit-identical" : "DIFFERS");

  // The >=2x gate is only meaningful where the SSE2 kernels compiled; on
  // other ISAs the gate degenerates to the bit-identity check.
  const bool simd = std::string(kernels::active_isa()) != "scalar";
  const bool pass = bit_identical && (!simd || pipeline_speedup >= 2.0);
  if (!simd) std::printf("speedup gate skipped (scalar ISA)\n");
  std::printf("dp_kernel acceptance (pipeline %.2fx >= 2x): %s\n",
              pipeline_speedup, pass ? "PASS" : "FAIL");
  return status != 0 ? status : (pass ? 0 : 2);
}

}  // namespace
}  // namespace dpg

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fragment") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--fragment needs an output path\n");
        return 1;
      }
      return dpg::run_dp_kernel(argv[i + 1]);
    }
    if (arg.rfind("--fragment=", 0) == 0) {
      return dpg::run_dp_kernel(arg.substr(11));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
