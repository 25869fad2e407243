// Parallel Phase-2 sharding: solving the (package, singleton) flows over a
// thread pool must be purely a wall-clock optimization.  Every registry
// solver must return the exact bits of its serial run — totals, breakdowns,
// decision counts and per-flow schedules — at every thread count, whether
// the pool is leased per run (SolverConfig::threads) or shared across
// concurrent runs (SolverConfig::pool).  Tests whose names contain "Big"
// run a 200k-request trace; the TSan CI leg filters them out and keeps the
// contention stress tests.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "engine/registry.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "report_equality.hpp"
#include "solver/phase2_shard.hpp"
#include "test_support.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

const std::vector<std::size_t> kThreadCounts = {1, 4, 7};

RequestSequence zipf_trace_2k() {
  ZipfTraceConfig config;
  config.server_count = 20;
  config.item_count = 12;
  config.request_count = 2000;
  Rng rng(7);
  return generate_zipf_trace(config, rng);
}

RequestSequence big_trace_200k() {
  ZipfTraceConfig config;
  config.server_count = 40;
  config.item_count = 50;
  config.request_count = 200000;
  Rng rng(13);
  return generate_zipf_trace(config, rng);
}

using testing::expect_lemma1_certificate;
using testing::expect_reports_identical;

/// The core property: for every registry solver, threads ∈ {1, 4, 7} all
/// reproduce the threads=0 (serial) report bit for bit.
void expect_thread_invariant(const RequestSequence& seq,
                             const CostModel& model, SolverConfig config) {
  const SolverRegistry& registry = builtin_registry();
  const PackedLowerBound bound = packed_lower_bound(seq, model);
  for (const std::string& name : registry.names()) {
    config.threads(0);
    const RunReport serial = registry.run(name, seq, model, config);
    expect_lemma1_certificate(serial, bound, model, name + " serial");
    for (const std::size_t threads : kThreadCounts) {
      config.threads(threads);
      const RunReport pooled = registry.run(name, seq, model, config);
      const std::string context = name + " @ threads=" + std::to_string(threads);
      expect_reports_identical(serial, pooled, context);
      expect_lemma1_certificate(pooled, bound, model, context);
    }
  }
}

TEST(ParallelPhase2, BitIdenticalOnRunningExample) {
  SolverConfig config;
  config.theta = 0.4;
  expect_thread_invariant(testing::running_example_sequence(),
                          testing::running_example_model(), config);
}

TEST(ParallelPhase2, BitIdenticalOnZipfTrace) {
  const CostModel model{1.0, 2.0, 0.8};
  expect_thread_invariant(zipf_trace_2k(), model, SolverConfig{});
}

TEST(ParallelPhase2, BigTraceBitIdenticalAcrossThreadCounts) {
  const CostModel model{1.0, 2.0, 0.8};
  const RequestSequence seq = big_trace_200k();
  const SolverRegistry& registry = builtin_registry();
  // Plans for 200k requests are heavy; the costs/counters are the
  // interesting part at this scale (schedule geometry is covered above).
  SolverConfig config;
  config.keep_schedules = false;
  const PackedLowerBound bound = packed_lower_bound(seq, model);
  for (const std::string& name : {std::string("dp_greedy"),
                                  std::string("optimal_baseline"),
                                  std::string("greedy")}) {
    config.threads(0);
    const RunReport serial = registry.run(name, seq, model, config);
    expect_lemma1_certificate(serial, bound, model, name + " serial");
    for (const std::size_t threads : kThreadCounts) {
      config.threads(threads);
      expect_reports_identical(
          serial, registry.run(name, seq, model, config),
          name + " @ threads=" + std::to_string(threads));
    }
  }
}

/// SolverConfig::keep_schedules decides only whether the plans are kept:
/// with it off, every report field but the plans and the timings has the
/// same bits as with it on, and no plan is kept.
TEST(ParallelPhase2, ReportsDoNotDependOnKeptPlans) {
  const CostModel model{1.0, 2.0, 0.8};
  PairedTraceConfig paired;
  paired.server_count = 12;
  paired.requests_per_pair = 150;
  Rng rng(21);
  const std::vector<RequestSequence> traces = {
      zipf_trace_2k(), generate_paired_trace(paired, rng),
      testing::running_example_sequence()};
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (const std::string& name : builtin_registry().names()) {
      for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
        SolverConfig kept;
        kept.theta = 0.3;
        kept.threads(threads);
        SolverConfig dropped = kept;
        dropped.keep_schedules = false;
        RunReport with = builtin_registry().run(name, traces[t], model, kept);
        const RunReport without =
            builtin_registry().run(name, traces[t], model, dropped);
        const std::string context = "trace " + std::to_string(t) + ", " +
                                    name + " @ threads=" +
                                    std::to_string(threads);
        EXPECT_TRUE(without.plans.empty()) << context;
        if (name != "online_dp_greedy") {
          EXPECT_FALSE(with.plans.empty()) << context;
        }
        EXPECT_EQ(with.solver, without.solver) << context;
        with.plans.clear();
        expect_reports_identical(with, without, context);
      }
    }
  }
}

/// Plans off, Phase 2 counts the schedules it does not build and keeps no
/// greedy decision records, yet every counter reads as with plans on:
/// schedule.*_emitted by the counted totals, phase2.singleton_services by
/// the decisions made, not the records kept.
TEST(ParallelPhase2, CountersDoNotDependOnKeptPlans) {
  const CostModel model{1.0, 2.0, 0.8};
  PairedTraceConfig paired;
  paired.server_count = 12;
  paired.requests_per_pair = 150;
  Rng rng(22);
  const std::vector<RequestSequence> traces = {
      zipf_trace_2k(), generate_paired_trace(paired, rng)};
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (const std::string& name : builtin_registry().names()) {
      for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
        SolverConfig kept;
        kept.theta = 0.3;
        kept.threads(threads).telemetry(true);
        SolverConfig dropped = kept;
        dropped.keep_schedules = false;
        const RunReport with =
            builtin_registry().run(name, traces[t], model, kept);
        const RunReport without =
            builtin_registry().run(name, traces[t], model, dropped);
        const std::string context = "trace " + std::to_string(t) + ", " +
                                    name + " @ threads=" +
                                    std::to_string(threads);
        EXPECT_EQ(with.metrics.counters, without.metrics.counters) << context;
        if (name == "dp_greedy") {
          EXPECT_GT(obs::counter_value(without.metrics,
                                       "phase2.singleton_services"),
                    0u)
              << context;
          EXPECT_EQ(obs::counter_value(without.metrics,
                                       "schedule.segments_emitted"),
                    without.cache_segments)
              << context;
        }
      }
    }
  }
}

/// A pool shared by several concurrent registry runs (SolverConfig::pool)
/// must neither race nor perturb results: every concurrent report matches
/// the serial reference bitwise.  This is the TSan contention workload.
TEST(ParallelPhase2, SharedPoolUnderConcurrentRunsStaysBitIdentical) {
  const RequestSequence seq = zipf_trace_2k();
  const CostModel model{1.0, 2.0, 0.8};
  const std::vector<std::string> names = {"dp_greedy", "optimal_baseline",
                                          "package_served", "greedy"};

  std::vector<RunReport> serial;
  for (const std::string& name : names) {
    serial.push_back(builtin_registry().run(name, seq, model, SolverConfig{}));
  }

  ThreadPool shared(4);
  std::vector<RunReport> concurrent(names.size());
  std::vector<std::thread> runners;
  runners.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    runners.emplace_back([&, i] {
      SolverConfig config;
      config.pool = &shared;
      concurrent[i] = builtin_registry().run(names[i], seq, model, config);
    });
  }
  for (std::thread& runner : runners) runner.join();

  const PackedLowerBound bound = packed_lower_bound(seq, model);
  for (std::size_t i = 0; i < names.size(); ++i) {
    expect_reports_identical(serial[i], concurrent[i],
                             names[i] + " on shared pool");
    expect_lemma1_certificate(concurrent[i], bound, model,
                              names[i] + " on shared pool");
  }
}

/// Concurrent runs that each lease their own pool (threads(N)) are the
/// other contention shape: pool construction/teardown overlapping solves.
TEST(ParallelPhase2, OwnedPoolsUnderConcurrentRunsStayBitIdentical) {
  const RequestSequence seq = zipf_trace_2k();
  const CostModel model{1.0, 2.0, 0.8};
  const RunReport serial =
      builtin_registry().run("dp_greedy", seq, model, SolverConfig{});

  constexpr std::size_t kRunners = 4;
  std::vector<RunReport> concurrent(kRunners);
  std::vector<std::thread> runners;
  runners.reserve(kRunners);
  for (std::size_t i = 0; i < kRunners; ++i) {
    runners.emplace_back([&, i] {
      concurrent[i] = builtin_registry().run(
          "dp_greedy", seq, model, SolverConfig{}.threads(2 + i % 3));
    });
  }
  for (std::thread& runner : runners) runner.join();

  const PackedLowerBound bound = packed_lower_bound(seq, model);
  for (std::size_t i = 0; i < kRunners; ++i) {
    const std::string context = "owned pool runner " + std::to_string(i);
    expect_reports_identical(serial, concurrent[i], context);
    expect_lemma1_certificate(concurrent[i], bound, model, context);
  }
}

/// The shard layout is a pure function of (flow_count, worker_count): the
/// chunking arithmetic mirrors parallel_for_chunks, so a pool of width W
/// always produces the same deterministic assignment.
TEST(ParallelPhase2, ShardCountIsDeterministic) {
  EXPECT_EQ(phase2_shard_count(0, 8), 0u);
  EXPECT_EQ(phase2_shard_count(1, 8), 1u);
  EXPECT_EQ(phase2_shard_count(5, 0), 1u);   // no pool → one serial shard
  EXPECT_EQ(phase2_shard_count(5, 8), 5u);   // never more shards than flows
  EXPECT_EQ(phase2_shard_count(100, 8), 32u);  // W*4 chunks
  EXPECT_EQ(phase2_shard_count(100, 8), phase2_shard_count(100, 8));
}

}  // namespace
}  // namespace dpg
