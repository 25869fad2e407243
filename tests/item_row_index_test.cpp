// The row index of a RequestSequence (indices_for_item) is derived state:
// built from the rows once, on the first call of any copy, and shared by
// every copy.  Phase 2's plans-off walks read the per-item events and never
// build it; a kept plan names each event's request and builds it once, from
// whichever Phase-2 worker asks first.  The concurrent first calls are the
// TSan leg's reason to run this suite.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report_equality.hpp"
#include "trace/dpt.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

constexpr const char* kBuilds = "trace.item_index_builds";

/// A trace with many packages.
RequestSequence paired_trace() {
  PairedTraceConfig config;
  config.server_count = 12;
  config.pair_jaccard.assign(16, 0.6);
  Rng rng(41);
  return generate_paired_trace(config, rng);
}

/// `sequence` written to a `.dpt` and opened again: a fresh sequence whose
/// row index nobody has built yet.
RequestSequence opened(const RequestSequence& sequence) {
  const std::string path = ::testing::TempDir() + "row_index_" +
                           std::to_string(::getpid()) + ".dpt";
  write_trace_dpt(path, sequence);
  RequestSequence out = read_trace_dpt(path);
  std::remove(path.c_str());  // the mapping outlives the file
  return out;
}

/// Row-index builds and item_index_build spans while `body` runs.
template <typename Body>
std::pair<std::uint64_t, std::size_t> builds_during(Body&& body) {
  obs::set_enabled(true);
  obs::reset_metrics();
  obs::reset_trace();
  body();
  const std::uint64_t builds =
      obs::counter_value(obs::snapshot_metrics(), kBuilds);
  std::size_t spans = 0;
  for (const obs::TraceEventView& span : obs::snapshot_trace()) {
    if (span.name == "trace/item_index_build") ++spans;
  }
  obs::set_enabled(false);
  obs::reset_metrics();
  obs::reset_trace();
  return {builds, spans};
}

RunReport run(const RequestSequence& sequence, const std::string& solver,
              bool keep_plans, std::size_t threads) {
  SolverConfig config;
  config.keep_schedules = keep_plans;
  config.threads(threads);
  return builtin_registry().run(solver, sequence, CostModel{1.0, 1.0, 0.8},
                                config);
}

TEST(ItemRowIndex, RowsNameTheirEvents) {
  const RequestSequence built = paired_trace();
  const RequestSequence mapped = opened(built);
  for (const RequestSequence* seq : {&built, &mapped}) {
    for (ItemId item = 0; item < seq->item_count(); ++item) {
      const ItemEvents events = seq->events_for_item(item);
      const std::span<const std::size_t> rows = seq->indices_for_item(item);
      ASSERT_EQ(rows.size(), events.size()) << "item " << item;
      for (std::size_t j = 0; j < rows.size(); ++j) {
        EXPECT_EQ(seq->time_of(rows[j]), events.times[j]) << "item " << item;
        EXPECT_EQ(seq->server_of(rows[j]), events.servers[j])
            << "item " << item;
      }
    }
  }
}

TEST(ItemRowIndex, PlansOffSolvesOnADptBuildNone) {
  // dp_greedy and optimal_baseline without kept plans walk the mapped
  // events only, serially and on a pool.
  const RequestSequence sequence = opened(paired_trace());
  for (const char* solver : {"dp_greedy", "optimal_baseline"}) {
    for (const std::size_t threads : {0u, 4u}) {
      const auto [builds, spans] = builds_during(
          [&] { (void)run(sequence, solver, /*keep_plans=*/false, threads); });
      EXPECT_EQ(builds, 0u) << solver << " @ " << threads;
      EXPECT_EQ(spans, 0u) << solver << " @ " << threads;
    }
  }
}

TEST(ItemRowIndex, KeptPlansBuildExactlyOne) {
  for (const std::size_t threads : {0u, 4u}) {
    const RequestSequence sequence = opened(paired_trace());
    const auto [builds, spans] = builds_during([&] {
      (void)run(sequence, "dp_greedy", /*keep_plans=*/true, threads);
    });
    EXPECT_EQ(builds, 1u) << threads;
    EXPECT_EQ(spans, 1u) << threads;
    // The next run finds it built.
    const auto [again, again_spans] = builds_during([&] {
      (void)run(sequence, "dp_greedy", /*keep_plans=*/true, threads);
    });
    EXPECT_EQ(again, 0u) << threads;
    EXPECT_EQ(again_spans, 0u) << threads;
  }
}

TEST(ItemRowIndex, CopiesShareOneBuild) {
  const RequestSequence built = paired_trace();
  const RequestSequence mapped = opened(built);
  for (const RequestSequence* original : {&built, &mapped}) {
    const RequestSequence copy = *original;  // before any build
    const auto [builds, spans] = builds_during([&] {
      (void)copy.indices_for_item(0);
      (void)original->indices_for_item(1);
      const RequestSequence later = *original;  // after the build
      (void)later.indices_for_item(2);
    });
    EXPECT_EQ(builds, 1u);
    EXPECT_EQ(spans, 1u);
    EXPECT_EQ(copy.indices_for_item(3).data(),
              original->indices_for_item(3).data());
  }
}

TEST(ItemRowIndex, ConcurrentFirstCallsFromAKeptPlanPhase2) {
  // Every Phase-2 worker of a kept-plan run asks for the row index as its
  // first flow starts, so the first calls race: one builds, the others wait
  // for it, and the report is the serial one's.
  const RequestSequence trace = paired_trace();
  const RunReport serial =
      run(opened(trace), "dp_greedy", /*keep_plans=*/true, 0);
  for (int round = 0; round < 4; ++round) {
    const RequestSequence sequence = opened(trace);
    RunReport pooled;
    const auto [builds, spans] = builds_during([&] {
      pooled = run(sequence, "dp_greedy", /*keep_plans=*/true, 4);
    });
    EXPECT_EQ(builds, 1u) << "round " << round;
    testing::expect_reports_identical(serial, pooled,
                                      "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace dpg
