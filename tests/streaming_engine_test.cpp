// StreamingEngine: the push-based serving front of the online path.
//
// The two load-bearing guarantees live here:
//   * bit-identity — pushing a trace request-by-request reproduces the batch
//     online solver exactly, at every window/repack/hysteresis setting,
//     locked against full-precision goldens so a refactor of either path
//     cannot silently drift;
//   * liveness of the long-lived contract — snapshots value the stream
//     non-destructively (the final snapshot equals finalize bit-for-bit),
//     push/snapshot are safe from concurrent threads (run under TSan in CI),
//     and steady-state allocation stays flat once the window is warm.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "dpgreedy.hpp"
#include "solver/online_dp_greedy.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

// The shared fixture trace: skewed Zipf popularity with correlated partner
// pulls — the regime where epoch re-pairing actually fires.
RequestSequence golden_trace() {
  Rng rng(77);
  ZipfTraceConfig config;
  config.server_count = 12;
  config.item_count = 20;
  config.request_count = 3000;
  return generate_zipf_trace(config, rng);
}

const CostModel kModel{/*mu=*/1.0, /*lambda=*/1.0, /*alpha=*/0.8};

OnlineDpGreedyOptions grid_options(std::size_t window, std::size_t repack) {
  OnlineDpGreedyOptions options;
  options.theta = 0.4;
  options.window = window;
  options.repack_interval = repack;
  return options;
}

struct GoldenPoint {
  std::size_t window;
  std::size_t repack;
  double total_cost;  // full precision, locked before the state refactor
};

// Captured from the pre-refactor batch solver at %.17g — every digit counts.
const GoldenPoint kGoldens[] = {
    {8, 1, 14958.483180793215},   {8, 10, 27063.124579415682},
    {8, 50, 31447.265805422317},  {50, 1, 20069.8921332885},
    {50, 10, 23070.892026151188}, {50, 50, 24267.762421796473},
    {200, 1, 24953.503597318482}, {200, 10, 25077.374114509668},
    {200, 50, 25376.592943394997},
};

TEST(StreamingEngine, BatchSolverMatchesPreRefactorGoldens) {
  const RequestSequence trace = golden_trace();
  for (const GoldenPoint& point : kGoldens) {
    const OnlineDpGreedyResult result = solve_online_dp_greedy(
        trace, kModel, grid_options(point.window, point.repack));
    // Bit-identical, not NEAR: the refactor must preserve FP accumulation
    // order exactly.
    EXPECT_EQ(result.total_cost, point.total_cost)
        << "window=" << point.window << " repack=" << point.repack;
  }
}

TEST(StreamingEngine, PushByPushMatchesBatchBitIdentically) {
  const RequestSequence trace = golden_trace();
  for (const GoldenPoint& point : kGoldens) {
    StreamingOptions options;
    options.online = grid_options(point.window, point.repack);
    options.item_count_hint = trace.item_count();
    StreamingEngine engine(kModel, options);
    Cost decision_sum = 0.0;
    for (const Request& r : trace.requests()) {
      decision_sum += engine.push(r.server, r.time, r.items).cost_delta;
    }
    const RunReport report = engine.finish();
    EXPECT_EQ(report.total_cost, point.total_cost)
        << "window=" << point.window << " repack=" << point.repack;
    // Per-push cost deltas partition the total up to close-of-books
    // accruals, so their sum must not exceed it.
    EXPECT_LE(decision_sum, point.total_cost + 1e-9);
  }
}

// Wider goldens than the k = 20 grid above: a 2,000-taxi fleet and a
// k = 300 Zipf trace with partner pulls, at the window × repack corners,
// captured at %.17g before the epoch walk moved to live packages and live
// window pairs only.  Packs and unpacks pin the epoch decisions themselves.
struct WideGolden {
  std::size_t window;
  std::size_t repack;
  double total_cost;
  std::size_t packs;
  std::size_t unpacks;
};

void expect_wide_goldens(const RequestSequence& trace,
                         std::initializer_list<WideGolden> goldens,
                         const CostModel& model = kModel) {
  for (const WideGolden& golden : goldens) {
    StreamingOptions options;
    options.online.theta = 0.3;
    options.online.window = golden.window;
    options.online.repack_interval = golden.repack;
    StreamingEngine engine(model, options);
    for (const Request& r : trace.requests()) {
      engine.push(r.server, r.time, r.items);
    }
    const RunReport report = engine.finish();
    EXPECT_EQ(report.total_cost, golden.total_cost)
        << "window=" << golden.window << " repack=" << golden.repack;
    EXPECT_EQ(report.package_count, golden.packs);
    EXPECT_EQ(report.unpack_events, golden.unpacks);
  }
}

TEST(StreamingEngine, TaxiFleetMatchesGoldens) {
  MobilityConfig config;
  config.taxi_count = 2000;
  config.duration = 10.0;
  Rng rng(2024);
  const RequestSequence trace = simulate_mobility(config, rng);
  ASSERT_EQ(trace.size(), 19991u);
  expect_wide_goldens(trace, {{8, 1, 42674.391226584135, 9953, 9948},
                              {200, 50, 54230.000335237033, 8731, 8632}});
}

TEST(StreamingEngine, NeverDropTaxiFleetMatchesGoldens) {
  // μ = 0: no copy is ever dropped, so a flow holds a copy at every server
  // it visited since its last pack or split, and flows outgrow the inline
  // replica capacity.  Captured at %.17g with the vector-backed flows.
  MobilityConfig config;
  config.taxi_count = 2000;
  config.duration = 10.0;
  Rng rng(2024);
  const RequestSequence trace = simulate_mobility(config, rng);
  expect_wide_goldens(trace,
                      {{8, 1, 34270.999999993692, 9953, 9948},
                       {64, 7, 36152.19999999876, 9606, 9578},
                       {200, 50, 35157.999999998807, 8731, 8632}},
                      CostModel{/*mu=*/0.0, /*lambda=*/1.0, /*alpha=*/0.8});
}

TEST(StreamingEngine, WideZipfMatchesGoldens) {
  ZipfTraceConfig config;
  config.server_count = 20;
  config.item_count = 300;
  config.request_count = 20000;
  Rng rng(300);
  const RequestSequence trace = generate_zipf_trace(config, rng);
  expect_wide_goldens(trace, {{8, 1, 964712.91449552018, 7899, 7894},
                              {200, 50, 2212599.5720841386, 2763, 2718}});
}

/// Pushes `trace` and checks that the snapshot after the last push and
/// finish() report the same bits.
void expect_final_snapshot_equals_finish(const RequestSequence& trace,
                                         const CostModel& model,
                                         const std::string& context) {
  StreamingOptions options;
  options.online = grid_options(50, 10);
  StreamingEngine engine(model, options);
  for (const Request& r : trace.requests()) {
    engine.push(r.server, r.time, r.items);
  }
  const StreamingSnapshot snapshot = engine.snapshot();
  const RunReport final_report = engine.finish();
  // snapshot() values live replicas non-destructively with finalize()'s
  // arithmetic — each flow's copies summed, then added to the total — so
  // the two reports agree to the bit.
  EXPECT_EQ(snapshot.report.total_cost, final_report.total_cost) << context;
  EXPECT_EQ(snapshot.report.transfer_cost, final_report.transfer_cost)
      << context;
  EXPECT_EQ(snapshot.report.package_count, final_report.package_count)
      << context;
  EXPECT_EQ(snapshot.report.unpack_events, final_report.unpack_events)
      << context;
  EXPECT_EQ(snapshot.report.transfer_events, final_report.transfer_events)
      << context;
  EXPECT_EQ(snapshot.requests, trace.size()) << context;
}

TEST(StreamingEngine, FinalSnapshotEqualsFinishBitIdentically) {
  expect_final_snapshot_equals_finish(golden_trace(), kModel, "zipf");
  // Taxi fleets end with many flows holding two or more live copies, where
  // the order of the additions shows in the last bits.
  MobilityConfig fleet;
  fleet.taxi_count = 200;
  fleet.duration = 5.0;
  for (const double mu : {1.0, 0.0}) {
    const CostModel model{mu, 1.0, 0.8};
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      Rng rng(seed);
      expect_final_snapshot_equals_finish(
          simulate_mobility(fleet, rng), model,
          "taxi seed " + std::to_string(seed) + " mu " + std::to_string(mu));
    }
  }
}

TEST(StreamingEngine, SnapshotDeltasPartitionTheCumulativeReport) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  StreamingEngine engine(kModel, options);
  Cost delta_sum = 0.0;
  std::size_t pushed = 0;
  for (const Request& r : trace.requests()) {
    engine.push(r.server, r.time, r.items);
    if (++pushed % 500 == 0) delta_sum += engine.snapshot().delta.total_cost;
  }
  const StreamingSnapshot last = engine.snapshot();
  delta_sum += last.delta.total_cost;
  EXPECT_NEAR(delta_sum, last.report.total_cost, 1e-9);
}

TEST(StreamingEngine, SnapshotBetweenPushesDoesNotPerturbTheStream) {
  // Valuing mid-stream must be side-effect free: interleaving snapshots
  // cannot change any subsequent decision or the final books.
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  StreamingEngine engine(kModel, options);
  std::size_t pushed = 0;
  for (const Request& r : trace.requests()) {
    engine.push(r.server, r.time, r.items);
    if (++pushed % 100 == 0) (void)engine.snapshot();
  }
  EXPECT_EQ(engine.finish().total_cost, 23070.892026151188);
}

TEST(StreamingEngine, CanonicalizesUnsortedAndDuplicatedRows) {
  StreamingOptions options;
  options.online = grid_options(8, 4);
  StreamingEngine messy(kModel, options);
  StreamingEngine clean(kModel, options);
  const std::vector<ItemId> unsorted = {3, 0, 3, 1};
  const std::vector<ItemId> sorted = {0, 1, 3};
  Time t = 0.0;
  for (int i = 0; i < 40; ++i) {
    const ServerId server = static_cast<ServerId>(i % 3);
    messy.push(server, t += 0.5, unsorted);
    clean.push(server, t, sorted);
  }
  EXPECT_EQ(messy.finish().total_cost, clean.finish().total_cost);
}

TEST(StreamingEngine, GrowsTheItemUniverseOnDemand) {
  StreamingOptions options;
  options.online = grid_options(8, 4);
  StreamingEngine engine(kModel, options);  // no item hint at all
  Time t = 0.0;
  for (ItemId item = 0; item < 10; ++item) {
    engine.push(/*server=*/0, t += 1.0, std::vector<ItemId>{item});
  }
  const StreamingSnapshot snapshot = engine.snapshot();
  EXPECT_EQ(snapshot.item_count, 10u);
  EXPECT_EQ(snapshot.requests, 10u);
  EXPECT_GT(engine.finish().total_cost, 0.0);
}

TEST(StreamingEngine, RatioProbeCoversTheWholeStreamAfterFinish) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  options.probe_chunk = 700;  // 3000 requests -> 4 full chunks + a tail
  StreamingEngine engine(kModel, options);
  for (const Request& r : trace.requests()) {
    engine.push(r.server, r.time, r.items);
  }
  EXPECT_EQ(engine.probe_chunks(), 4u);
  (void)engine.finish();
  // finish() flushes the 200-request tail so the final ratio is over the
  // full stream.
  EXPECT_EQ(engine.probe_chunks(), 5u);
  EXPECT_GT(engine.cost_ratio(), 0.0);
  EXPECT_LT(engine.cost_ratio(), 2.0);
}

TEST(StreamingEngine, SteadyStateAllocationsStayFlatOnceWarm) {
  Rng rng(5);
  const RequestSequence trace = testing::random_sequence(rng, 4000, 8, 16, 0.4);
  StreamingOptions options;
  options.online = grid_options(64, 16);
  options.item_count_hint = trace.item_count();
  StreamingEngine engine(kModel, options);
  std::size_t pushed = 0;
  std::uint64_t allocs_at_quarter = 0;
  for (const Request& r : trace.requests()) {
    engine.push(r.server, r.time, r.items);
    if (++pushed == trace.size() / 4) {
      allocs_at_quarter = engine.snapshot().state_alloc_events;
    }
  }
  // O(window) memory, not O(n): after the warm-up quarter the ring and
  // scratch stop growing entirely.
  EXPECT_EQ(engine.snapshot().state_alloc_events, allocs_at_quarter);
}

TEST(StreamingEngine, PushAndSnapshotAreSafeFromConcurrentThreads) {
  // CI runs this under TSan; the engine serializes push/snapshot/finish on
  // an internal mutex.
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  StreamingEngine engine(kModel, options);
  std::atomic<bool> done{false};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (engine.requests_seen() > 0) {
        const StreamingSnapshot s = engine.snapshot();
        EXPECT_GE(s.report.total_cost, 0.0);
      }
      std::this_thread::yield();
    }
    // One last snapshot after the writer stopped: the full stream is visible.
    EXPECT_EQ(engine.snapshot().requests, trace.size());
  });
  for (const Request& r : trace.requests()) {
    engine.push(r.server, r.time, r.items);
  }
  done.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_EQ(engine.finish().total_cost, 23070.892026151188);
}

TEST(StreamingEngine, SpentAfterFinish) {
  StreamingOptions options;
  options.online = grid_options(8, 4);
  StreamingEngine engine(kModel, options);
  engine.push(0, 1.0, std::vector<ItemId>{0});
  (void)engine.finish();
  EXPECT_THROW(engine.push(0, 2.0, std::vector<ItemId>{0}), InvalidArgument);
  EXPECT_THROW((void)engine.snapshot(), InvalidArgument);
  EXPECT_THROW((void)engine.finish(), InvalidArgument);
}

TEST(StreamingEngine, RejectsNonMonotoneTime) {
  StreamingOptions options;
  options.online = grid_options(8, 4);
  StreamingEngine engine(kModel, options);
  engine.push(0, 5.0, std::vector<ItemId>{0});
  EXPECT_THROW(engine.push(0, 5.0, std::vector<ItemId>{0}), InvalidArgument);
  EXPECT_THROW(engine.push(0, 4.0, std::vector<ItemId>{0}), InvalidArgument);
}

TEST(StreamingEngine, RejectsTheRowsARequestSequenceRejects) {
  // Each bad row is refused before it touches the state: the stream after
  // it is served exactly as if the bad row had never been pushed.
  struct BadRow {
    const char* what;
    Time time;
    std::vector<ItemId> items;
    bool first_only;  // only bad as the first row
  };
  const std::vector<BadRow> bad_rows = {
      {"time not > 0", -5.0, {3}, true},
      {"time 0", 0.0, {3}, true},
      {"NaN time", std::nan(""), {3}, false},
      {"infinite time", HUGE_VAL, {3}, false},
      {"empty item set", 7.0, {}, false},
      {"reserved item id", 7.0, {kNoItem}, false},
      {"reserved item id with others", 7.0, {2, kNoItem}, false},
  };
  StreamingOptions options;
  options.online = grid_options(8, 2);
  const auto serve = [&options](const BadRow* bad, bool bad_first) {
    StreamingEngine engine(kModel, options);
    const auto try_bad = [&] {
      if (bad == nullptr) return;
      EXPECT_THROW(engine.push(1, bad->time, bad->items), InvalidArgument)
          << bad->what;
      EXPECT_EQ(engine.requests_seen(), bad_first ? 0u : 3u) << bad->what;
    };
    if (bad_first) try_bad();
    engine.push(0, 1.0, std::vector<ItemId>{0, 1});
    engine.push(1, 2.0, std::vector<ItemId>{1});
    engine.push(2, 3.0, std::vector<ItemId>{0, 1});
    if (!bad_first) try_bad();
    engine.push(0, 8.0, std::vector<ItemId>{0, 1});
    return engine.finish();
  };
  const RunReport clean = serve(nullptr, false);
  for (const BadRow& bad : bad_rows) {
    for (const bool bad_first : {true, false}) {
      if (bad.first_only && !bad_first) continue;
      const RunReport report = serve(&bad, bad_first);
      EXPECT_EQ(report.total_cost, clean.total_cost) << bad.what;
      EXPECT_EQ(report.total_item_accesses, clean.total_item_accesses);
    }
  }
}

TEST(StreamingEngine, OptionsValidateEagerlyAndNameTheField) {
  const auto message_of = [](const StreamingOptions& options) -> std::string {
    try {
      StreamingEngine engine(kModel, options);
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return {};
  };
  StreamingOptions options;
  options.online = grid_options(0, 10);
  EXPECT_NE(message_of(options).find("window"), std::string::npos);
  options.online = grid_options(50, 0);
  EXPECT_NE(message_of(options).find("repack_interval"), std::string::npos);
  options.online = grid_options(50, 10);
  options.online.hold_factor = 0.0;
  EXPECT_NE(message_of(options).find("hold_factor"), std::string::npos);
  options.online.hold_factor = -1.0;
  EXPECT_NE(message_of(options).find("hold_factor"), std::string::npos);
  options.online.hold_factor = 1.0;
  options.online.theta = 1.5;
  EXPECT_NE(message_of(options).find("theta"), std::string::npos);
}

TEST(StreamingEngine, TelemetryExpositionDoesNotPerturbResults) {
  // The per-push latency histogram and counters must be pure observers:
  // the same stream with telemetry on and off yields bit-identical reports.
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  options.probe_chunk = 500;

  const auto run_once = [&]() {
    StreamingEngine engine(kModel, options);
    for (const Request& r : trace.requests()) {
      engine.push(r.server, r.time, r.items);
    }
    return engine.finish();
  };

  obs::set_enabled(false);
  const RunReport off = run_once();

  obs::set_enabled(true);
  obs::reset_metrics();
  const RunReport on = run_once();
  const obs::MetricsSnapshot metrics = obs::snapshot_metrics();
  obs::set_enabled(false);

  EXPECT_EQ(on.total_cost, off.total_cost);
  EXPECT_EQ(on.transfer_cost, off.transfer_cost);
  EXPECT_EQ(on.package_count, off.package_count);
  EXPECT_EQ(on.unpack_events, off.unpack_events);
  EXPECT_EQ(on.transfer_events, off.transfer_events);

  // And the histogram actually observed every push.
  bool found = false;
  for (const auto& [name, data] : metrics.histograms) {
    if (name == "stream.push_ns") {
      found = true;
      EXPECT_EQ(data.count, trace.size());
    }
  }
  EXPECT_TRUE(found);
}

TEST(StreamingEngine, DecisionEpochTracksRepackRounds) {
  StreamingOptions options;
  options.online = grid_options(8, 5);
  StreamingEngine engine(kModel, options);
  Time t = 0.0;
  std::size_t repacks_seen = 0;
  for (int i = 0; i < 50; ++i) {
    const StreamingDecision d =
        engine.push(static_cast<ServerId>(i % 2), t += 0.5,
                    std::vector<ItemId>{0, 1});
    if (d.repacked) ++repacks_seen;
    EXPECT_EQ(d.epoch, repacks_seen);
  }
  EXPECT_EQ(repacks_seen, 10u);  // every 5th of 50 pushes
}

}  // namespace
}  // namespace dpg
