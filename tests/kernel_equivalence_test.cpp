// End-to-end kernel and format equivalence: every registry solver must
// produce bit-identical RunReports (a) with the SIMD kernels on vs. off,
// at every thread count, and (b) from a trace loaded via CSV vs. the
// binary .dpt mmap path.  Both switches are pure plumbing — any drift in
// a cost bit or a schedule endpoint is a bug, so everything is EXPECT_EQ
// with no tolerance.  The test named "Big" runs a 200k-request trace and
// is filtered out of the sanitizer CI legs like the other Big tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "report_equality.hpp"
#include "test_support.hpp"
#include "trace/dpt.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

const std::vector<std::size_t> kThreadCounts = {0, 4};

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

/// Runs every registry solver on `trace` with kernels on and off, at each
/// thread count, and demands bit-identical reports.
void expect_kernels_transparent(const RequestSequence& trace,
                                const std::string& trace_name) {
  const CostModel model = testing::running_example_model();
  const PackedLowerBound bound = packed_lower_bound(trace, model);
  for (const std::string& name : builtin_registry().names()) {
    for (const std::size_t threads : kThreadCounts) {
      SolverConfig config;
      config.threads(threads);
      const RunReport scalar = builtin_registry().run(
          name, trace, model, SolverConfig(config).kernels(false));
      const RunReport kernel = builtin_registry().run(
          name, trace, model, SolverConfig(config).kernels(true));
      const std::string context = trace_name + ", solver " + name +
                                  ", threads " + std::to_string(threads);
      expect_reports_identical(scalar, kernel, context);
      expect_lemma1_certificate(scalar, bound, model, context);
      expect_lemma1_certificate(kernel, bound, model, context);
    }
  }
}

TEST(KernelEquivalence, RunningExampleAllSolvers) {
  expect_kernels_transparent(testing::running_example_sequence(),
                             "running example");
}

TEST(KernelEquivalence, Zipf2kAllSolvers) {
  expect_kernels_transparent(zipf_trace_2k(), "zipf 2k");
}

TEST(KernelEquivalence, BigZipf200kAllSolvers) {
  expect_kernels_transparent(big_trace_200k(), "zipf 200k");
}

TEST(KernelEquivalence, ConfigStringKeyReachesTheSwitch) {
  SolverConfig config;
  EXPECT_TRUE(config.dp.use_kernels);
  config.with("kernels", "off");
  EXPECT_FALSE(config.dp.use_kernels);
  config.with("kernels", "true");
  EXPECT_TRUE(config.dp.use_kernels);
  EXPECT_THROW(config.with("kernels", "maybe"), InvalidArgument);
}

TEST(FormatEquivalence, DptAndCsvProduceIdenticalReports) {
  // The same trace through the two readers (text parse vs. mmap zero-copy)
  // must hand every solver identical inputs — proven by identical outputs.
  const RequestSequence original = zipf_trace_2k();
  const std::string csv_path = ::testing::TempDir() + "kernel_equiv.csv";
  const std::string dpt_path = ::testing::TempDir() + "kernel_equiv.dpt";
  write_trace_auto(csv_path, original);
  write_trace_auto(dpt_path, original);
  const RequestSequence via_csv = read_trace_auto(csv_path);
  const RequestSequence via_dpt = read_trace_auto(dpt_path);
  ASSERT_TRUE(via_dpt.borrows_storage());

  const CostModel model = testing::running_example_model();
  const PackedLowerBound bound = packed_lower_bound(original, model);
  for (const std::string& name : builtin_registry().names()) {
    const SolverConfig config;
    const RunReport csv = builtin_registry().run(name, via_csv, model, config);
    const RunReport dpt = builtin_registry().run(name, via_dpt, model, config);
    expect_reports_identical(csv, dpt, "csv-vs-dpt, solver " + name);
    expect_lemma1_certificate(csv, bound, model, "csv, solver " + name);
    expect_lemma1_certificate(dpt, bound, model, "dpt, solver " + name);
  }
  std::remove(csv_path.c_str());
  std::remove(dpt_path.c_str());
}

}  // namespace
}  // namespace dpg
