// dpgreedy.hpp — the library's single public include.
//
// One header covers everything an application needs to build, solve and
// inspect caching workloads:
//
//   * the engine: SolverRegistry dispatch by stable name, SolverConfig (a
//     fluent builder: `SolverConfig{}.threads(8).telemetry(true)`),
//     the canonical RunReport and its renderers,
//   * trace I/O and workloads: CSV read/write, the synthetic generators,
//     descriptive stats, the taxi mobility simulator,
//   * schedule tooling: cost model, flows, schedules and their CSV/DOT
//     exports, plan replay,
//   * observability: metrics snapshots and Perfetto-loadable trace spans,
//   * the small util layer front ends lean on (args, RNG, logging, tables).
//
// Concrete solver internals (solver/*.hpp: DP recurrences, correlation
// structures, per-algorithm result structs) are deliberately NOT exported —
// algorithms are reached through the registry:
//
//   #include "dpgreedy.hpp"
//
//   dpg::RequestSequence trace = dpg::read_trace_file("trace.csv");
//   dpg::CostModel model{1.0, 2.0, 0.8};
//   dpg::RunReport report = dpg::builtin_registry().run(
//       "dp_greedy", trace, model, dpg::SolverConfig{}.threads(8));
//
// Harnesses that genuinely sweep solver internals (the figure/table
// reproductions) include bench/harness_solvers.hpp instead.
#pragma once

#include "core/cost_model.hpp"       // IWYU pragma: export
#include "core/flow.hpp"             // IWYU pragma: export
#include "core/request.hpp"          // IWYU pragma: export
#include "core/request_block.hpp"    // IWYU pragma: export
#include "core/schedule.hpp"         // IWYU pragma: export
#include "core/schedule_export.hpp"  // IWYU pragma: export
#include "core/types.hpp"            // IWYU pragma: export
#include "engine/registry.hpp"       // IWYU pragma: export
#include "engine/render.hpp"         // IWYU pragma: export
#include "engine/run_report.hpp"     // IWYU pragma: export
#include "engine/serve_config.hpp"   // IWYU pragma: export
#include "engine/sharded_serve.hpp"  // IWYU pragma: export
#include "engine/solver.hpp"         // IWYU pragma: export
#include "engine/streaming_engine.hpp"  // IWYU pragma: export
#include "mobility/simulator.hpp"    // IWYU pragma: export
#include "obs/exposition.hpp"        // IWYU pragma: export
#include "obs/metrics.hpp"           // IWYU pragma: export
#include "obs/scrape.hpp"            // IWYU pragma: export
#include "obs/trace.hpp"             // IWYU pragma: export
#include "parallel/spsc_ring.hpp"    // IWYU pragma: export
#include "sim/replay.hpp"            // IWYU pragma: export
#include "trace/dpt.hpp"             // IWYU pragma: export
#include "trace/dpt_stream_writer.hpp"  // IWYU pragma: export
#include "trace/shard_source.hpp"    // IWYU pragma: export
#include "trace/generators.hpp"      // IWYU pragma: export
#include "trace/io.hpp"              // IWYU pragma: export
#include "trace/stats.hpp"           // IWYU pragma: export
#include "trace/transforms.hpp"      // IWYU pragma: export
#include "util/args.hpp"             // IWYU pragma: export
#include "util/error.hpp"            // IWYU pragma: export
#include "util/log.hpp"              // IWYU pragma: export
#include "util/rng.hpp"              // IWYU pragma: export
#include "util/stats.hpp"            // IWYU pragma: export
#include "util/strings.hpp"          // IWYU pragma: export
#include "util/table.hpp"            // IWYU pragma: export
