// google-benchmark microbenchmarks for the solver substrate: the optimal
// offline DP (both inner-minimum strategies), greedy, the Section-V index
// build, correlation analysis, the full DP_Greedy pipeline, and every
// registry solver end to end (one benchmark per registered name).
//
// `bm_solvers --fragment FILE` skips the google-benchmark suite and instead
// measures the branch-light DP kernels (solver/kernels.hpp) against their
// scalar reference loops, emitting the "dp_kernel" section as a fragment
// for dpgreedy_bench to merge, with a >=2x single-thread speedup gate armed
// (the gate only applies where a SIMD variant compiled).
#include <benchmark/benchmark.h>

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
  OptimalOfflineOptions options;
  options.build_schedule = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_optimal_offline(flow, model, 16, options).raw_cost);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OptimalOfflineWindowMin)->Range(256, 16384)->Complexity();

void BM_OptimalOfflineNaiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Flow flow = make_flow(n, 16, 1);
  const CostModel model{1.0, 1.0, 0.8};
  OptimalOfflineOptions options;
  options.build_schedule = false;
  options.fast_range_min = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_optimal_offline(flow, model, 16, options).raw_cost);
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
  OptimalOfflineOptions options;
  options.build_schedule = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_optimal_offline(flow, model, 16, options).raw_cost);
  }
}
BENCHMARK(BM_OptimalOfflineFreshBuffers)->Range(256, 4096);

void BM_OptimalOfflineWorkspaceReuse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Flow flow = make_flow(n, 16, 7);
  const CostModel model{1.0, 1.0, 0.8};
  OptimalOfflineOptions options;
  options.build_schedule = false;
  SolverWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_optimal_offline(flow, model, 16, options, &workspace).raw_cost);
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

DPG_BENCH_NOINLINE double sweep_window_scalar(const double* v,
                                              std::size_t width,
                                              std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = width; i < n; ++i) {
    acc += kernels::window_min_scalar(v, i - width, i).second;
  }
  return acc;
}

DPG_BENCH_NOINLINE double sweep_window_kernel(const double* v,
                                              std::size_t width,
                                              std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = width; i < n; ++i) {
    acc += kernels::window_min(v, i - width, i).second;
  }
  return acc;
}

DPG_BENCH_NOINLINE void sweep_w_scalar(const Cost* link, double lambda,
                                       std::size_t n, Cost* w,
                                       Cost* w_prefix) {
  kernels::w_and_prefix_scalar(link, lambda, n, w, w_prefix);
}

DPG_BENCH_NOINLINE void sweep_w_kernel(const Cost* link, double lambda,
                                       std::size_t n, Cost* w,
                                       Cost* w_prefix) {
  kernels::w_and_prefix(link, lambda, n, w, w_prefix);
}

int run_dp_kernel(const std::string& fragment_path) {
  // Columns gathered exactly as the kernel path of solve_optimal_offline
  // gathers them: a 65536-request single-item flow over 16 servers, so the
  // same-server windows average n/m = 4096 nodes (the sweep below clamps to
  // the widths the blocked scan actually serves).
  const std::size_t n = 65536;
  const Flow flow = make_flow(n, 16, 9);
  const RequestIndex index(flow, 16);
  const std::size_t nodes = index.node_count();
  const Time* t = index.times().data();
  std::vector<std::int32_t> prev(nodes);
  prev[0] = RequestIndex::kNone;
  for (std::size_t j = 1; j < nodes; ++j) prev[j] = index.prev_same_server(j);
  const double mu = 1.0;
  const double lambda = 2.0;

  std::vector<Cost> link(nodes);
  kernels::link_costs(t, prev.data(), mu, nodes, link.data());
  // link_costs has no SIMD variant (the prev[] gather needs AVX2+); its cost
  // is recorded for context but shared by both pipelines below.
  const double link_ms = kernel_best_ms([&] {
    for (int i = 0; i < 8; ++i) {
      kernels::link_costs(t, prev.data(), mu, nodes, link.data());
    }
  });

  // Tie-heavy v column (0.125-quantized, like the equivalence fuzzers) so
  // the latest-argmin tie rule is genuinely exercised while being timed.
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
  for (const std::size_t width : {std::size_t{16}, std::size_t{64},
                                  kernels::kWindowScanThreshold}) {
    for (std::size_t i = width; i < nodes; ++i) {
      const auto s = kernels::window_min_scalar(v.data(), i - width, i);
      const auto k = kernels::window_min(v.data(), i - width, i);
      if (s != k) bit_identical = false;
    }
    WindowRow row{width, 0.0, 0.0};
    row.scalar_ms = kernel_best_ms([&] {
      double acc = sweep_window_scalar(v.data(), width, nodes);
      benchmark::DoNotOptimize(acc);
    });
    row.kernel_ms = kernel_best_ms([&] {
      double acc = sweep_window_kernel(v.data(), width, nodes);
      benchmark::DoNotOptimize(acc);
    });
    windows.push_back(row);
  }

  std::vector<Cost> w_s(nodes), wp_s(nodes), w_k(nodes), wp_k(nodes);
  kernels::w_and_prefix_scalar(link.data(), lambda, nodes, w_s.data(),
                               wp_s.data());
  kernels::w_and_prefix(link.data(), lambda, nodes, w_k.data(), wp_k.data());
  if (w_s != w_k || wp_s != wp_k) bit_identical = false;
  const double w_scalar_ms = kernel_best_ms([&] {
    for (int i = 0; i < 8; ++i) {
      sweep_w_scalar(link.data(), lambda, nodes, w_s.data(), wp_s.data());
    }
    benchmark::DoNotOptimize(wp_s.data());
  });
  const double w_kernel_ms = kernel_best_ms([&] {
    for (int i = 0; i < 8; ++i) {
      sweep_w_kernel(link.data(), lambda, nodes, w_k.data(), wp_k.data());
    }
    benchmark::DoNotOptimize(wp_k.data());
  });

  // The fused pipeline both solver paths run per flow: one w/W pass, then a
  // window minimum per node, at the widest window the blocked scan serves
  // (wider windows take the SuffixMin stack on both paths, so the kernels
  // change nothing there).
  const std::size_t pipe_width = kernels::kWindowScanThreshold;
  const double pipeline_scalar_ms = kernel_best_ms([&] {
    sweep_w_scalar(link.data(), lambda, nodes, w_s.data(), wp_s.data());
    double acc = sweep_window_scalar(v.data(), pipe_width, nodes);
    benchmark::DoNotOptimize(acc);
  });
  const double pipeline_kernel_ms = kernel_best_ms([&] {
    sweep_w_kernel(link.data(), lambda, nodes, w_k.data(), wp_k.data());
    double acc = sweep_window_kernel(v.data(), pipe_width, nodes);
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
  std::printf("w_and_prefix: scalar %.3f ms  kernel %.3f ms  %.2fx\n",
              w_scalar_ms, w_kernel_ms, w_scalar_ms / w_kernel_ms);
  for (const WindowRow& row : windows) {
    std::printf("window_min w=%zu: scalar %.3f ms  kernel %.3f ms  %.2fx\n",
                row.width, row.scalar_ms, row.kernel_ms,
                row.scalar_ms / row.kernel_ms);
  }
  std::printf("pipeline: scalar %.3f ms  kernel %.3f ms  speedup %.2fx  %s\n",
              pipeline_scalar_ms, pipeline_kernel_ms, pipeline_speedup,
              bit_identical ? "bit-identical" : "DIFFERS");

  // The >=2x gate is only meaningful where a SIMD variant compiled; on other
  // ISAs every kernel is its own scalar reference and the gate degenerates
  // to the bit-identity check.
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
