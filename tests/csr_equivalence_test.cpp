// CSR data-plane equivalence: the flat structure-of-arrays RequestSequence
// must be observationally identical to the naive row-of-vectors layout it
// replaced.  Indexing/frequency queries are checked against fresh naive
// recomputation, and every registry solver must produce bit-identical
// RunReports whether the sequence arrived through the draft constructor,
// the streaming builder, the streaming CSV parser or the legacy one.
#include <gtest/gtest.h>

#include "report_equality.hpp"
#include "test_support.hpp"

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

using testing::items_of;
using testing::same_sequence;

RequestSequence medium_trace() {
  ZipfTraceConfig config;
  config.server_count = 25;
  config.item_count = 12;
  config.request_count = 2000;
  config.co_access = 0.6;
  Rng rng(77);
  return generate_zipf_trace(config, rng);
}

TEST(CsrEquivalence, IndicesForItemMatchesNaiveScan) {
  const RequestSequence seq = medium_trace();
  for (ItemId item = 0; item < seq.item_count(); ++item) {
    std::vector<std::size_t> naive;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i].contains(item)) naive.push_back(i);
    }
    const std::span<const std::size_t> csr = seq.indices_for_item(item);
    ASSERT_EQ(std::vector<std::size_t>(csr.begin(), csr.end()), naive)
        << "item " << item;
  }
}

TEST(CsrEquivalence, FrequenciesMatchNaiveCounts) {
  const RequestSequence seq = medium_trace();
  std::vector<std::size_t> freq(seq.item_count(), 0);
  std::map<std::pair<ItemId, ItemId>, std::size_t> pairs;
  std::size_t accesses = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::vector<ItemId> items = items_of(seq[i]);
    accesses += items.size();
    for (std::size_t x = 0; x < items.size(); ++x) {
      ++freq[items[x]];
      for (std::size_t y = x + 1; y < items.size(); ++y) {
        ++pairs[{items[x], items[y]}];
      }
    }
  }
  EXPECT_EQ(seq.total_item_accesses(), accesses);
  for (ItemId item = 0; item < seq.item_count(); ++item) {
    EXPECT_EQ(seq.item_frequency(item), freq[item]) << "item " << item;
  }
  for (ItemId a = 0; a < seq.item_count(); ++a) {
    for (ItemId b = a + 1; b < seq.item_count(); ++b) {
      const auto it = pairs.find({a, b});
      const std::size_t expected = it == pairs.end() ? 0 : it->second;
      EXPECT_EQ(seq.pair_frequency(a, b), expected) << a << "," << b;
    }
  }
}

TEST(CsrEquivalence, DraftConstructorMatchesStreamingBuilder) {
  const RequestSequence reference = medium_trace();
  std::vector<RequestDraft> drafts;
  SequenceBuilder builder(reference.server_count(), reference.item_count());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const Request r = reference[i];
    drafts.push_back(RequestDraft{r.server, r.time, items_of(r)});
    builder.begin_request(r.server, r.time);
    for (const ItemId item : r.items) builder.push_item(item);
    builder.end_request();
  }
  const RequestSequence from_drafts(reference.server_count(),
                                    reference.item_count(), std::move(drafts));
  const RequestSequence from_builder = std::move(builder).build();
  EXPECT_TRUE(same_sequence(reference, from_drafts));
  EXPECT_TRUE(same_sequence(reference, from_builder));
}

/// Exact (bit-level) equality of two RunReports' numeric results.
void expect_bit_identical(const RunReport& a, const RunReport& b) {
  const auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  EXPECT_TRUE(same_bits(a.total_cost, b.total_cost)) << a.solver;
  EXPECT_TRUE(same_bits(a.raw_cost, b.raw_cost)) << a.solver;
  EXPECT_TRUE(same_bits(a.ave_cost, b.ave_cost)) << a.solver;
  EXPECT_TRUE(same_bits(a.cache_cost, b.cache_cost)) << a.solver;
  EXPECT_TRUE(same_bits(a.transfer_cost, b.transfer_cost)) << a.solver;
  EXPECT_EQ(a.total_item_accesses, b.total_item_accesses) << a.solver;
  EXPECT_EQ(a.package_count, b.package_count) << a.solver;
  EXPECT_EQ(a.unpack_events, b.unpack_events) << a.solver;
  EXPECT_EQ(a.transfer_events, b.transfer_events) << a.solver;
  EXPECT_EQ(a.cache_segments, b.cache_segments) << a.solver;
}

TEST(CsrEquivalence, AllSolversBitIdenticalAcrossParsePaths) {
  const RequestSequence direct = medium_trace();
  const std::string csv = trace_to_csv(direct);
  const RequestSequence streamed =
      trace_from_csv(csv, direct.server_count(), direct.item_count());
  const RequestSequence legacy =
      trace_from_csv_legacy(csv, direct.server_count(), direct.item_count());
  ASSERT_TRUE(same_sequence(direct, streamed));
  ASSERT_TRUE(same_sequence(direct, legacy));

  const CostModel model = testing::running_example_model();
  const PackedLowerBound bound = packed_lower_bound(direct, model);
  const SolverRegistry& registry = builtin_registry();
  ASSERT_EQ(registry.names().size(), 8u);
  for (const std::string& name : registry.names()) {
    const RunReport a = registry.run(name, direct, model);
    const RunReport b = registry.run(name, streamed, model);
    const RunReport c = registry.run(name, legacy, model);
    expect_bit_identical(a, b);
    expect_bit_identical(a, c);
    for (const RunReport* report : {&a, &b, &c}) {
      testing::expect_lemma1_certificate(*report, bound, model, name);
    }
  }
}

TEST(CsrEquivalence, RunningExampleGoldensHoldThroughCsvPath) {
  const RequestSequence direct = testing::running_example_sequence();
  const RequestSequence parsed = trace_from_csv(
      trace_to_csv(direct), direct.server_count(), direct.item_count());
  SolverConfig config;
  config.theta = 0.4;
  const RunReport report =
      builtin_registry().run("dp_greedy", parsed, testing::running_example_model(),
                             config);
  EXPECT_NEAR(report.total_cost, 14.96, 1e-9);
  EXPECT_NEAR(report.ave_cost, 1.496, 1e-9);
  testing::expect_lemma1_certificate(
      report, packed_lower_bound(parsed, testing::running_example_model()),
      testing::running_example_model(), "running example");
}

}  // namespace
}  // namespace dpg
