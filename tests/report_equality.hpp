// Bitwise RunReport equality for the equivalence suites (thread counts,
// kernels on/off, CSV vs .dpt): every cost EXPECT_EQ with no tolerance,
// every decision count, and every plan's label, flow points and schedule
// geometry.  Also the Lemma-1 certificate every dp_greedy report of those
// suites must carry.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/cost_model.hpp"
#include "engine/run_report.hpp"
#include "solver/lower_bound.hpp"

namespace dpg::testing {

/// Lemma 1 bounds the packed optimum from below, C* ≥ α·ΣC_iopt, so a
/// dp_greedy cost with cost / (α·ΣC_iopt) ≤ 2/α is certified within
/// Theorem 1's factor.  Reports of other solvers pass unchecked.
inline void expect_lemma1_certificate(const RunReport& report,
                                      const PackedLowerBound& bound,
                                      const CostModel& model,
                                      const std::string& context) {
  if (report.solver != "dp_greedy") return;
  EXPECT_LE(bound.certify_ratio(report.total_cost),
            model.approximation_bound() + 1e-9)
      << context;
}

/// Every service point of two flows: server and time.
inline void expect_flows_identical(const Flow& expected, const Flow& actual,
                                   const std::string& context) {
  EXPECT_EQ(expected.group_size, actual.group_size) << context;
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected.points[i].server, actual.points[i].server)
        << context << ", point " << i;
    EXPECT_EQ(expected.points[i].time, actual.points[i].time)
        << context << ", point " << i;
  }
}

inline void expect_reports_identical(const RunReport& expected,
                                     const RunReport& actual,
                                     const std::string& context) {
  EXPECT_EQ(expected.total_cost, actual.total_cost) << context;
  EXPECT_EQ(expected.raw_cost, actual.raw_cost) << context;
  EXPECT_EQ(expected.cache_cost, actual.cache_cost) << context;
  EXPECT_EQ(expected.transfer_cost, actual.transfer_cost) << context;
  EXPECT_EQ(expected.ave_cost, actual.ave_cost) << context;
  EXPECT_EQ(expected.package_count, actual.package_count) << context;
  EXPECT_EQ(expected.unpack_events, actual.unpack_events) << context;
  EXPECT_EQ(expected.transfer_events, actual.transfer_events) << context;
  EXPECT_EQ(expected.cache_segments, actual.cache_segments) << context;
  EXPECT_EQ(expected.total_item_accesses, actual.total_item_accesses)
      << context;

  ASSERT_EQ(expected.plans.size(), actual.plans.size()) << context;
  for (std::size_t p = 0; p < expected.plans.size(); ++p) {
    const FlowPlan& want = expected.plans[p];
    const FlowPlan& got = actual.plans[p];
    const std::string plan_context = context + ", plan " + want.label;
    EXPECT_EQ(want.label, got.label) << plan_context;
    expect_flows_identical(want.flow, got.flow, plan_context);
    ASSERT_EQ(want.schedule.segments().size(), got.schedule.segments().size())
        << plan_context;
    for (std::size_t s = 0; s < want.schedule.segments().size(); ++s) {
      EXPECT_EQ(want.schedule.segments()[s].server,
                got.schedule.segments()[s].server) << plan_context;
      EXPECT_EQ(want.schedule.segments()[s].begin,
                got.schedule.segments()[s].begin) << plan_context;
      EXPECT_EQ(want.schedule.segments()[s].end,
                got.schedule.segments()[s].end) << plan_context;
    }
    ASSERT_EQ(want.schedule.transfers().size(),
              got.schedule.transfers().size()) << plan_context;
    for (std::size_t t = 0; t < want.schedule.transfers().size(); ++t) {
      EXPECT_EQ(want.schedule.transfers()[t].from,
                got.schedule.transfers()[t].from) << plan_context;
      EXPECT_EQ(want.schedule.transfers()[t].to,
                got.schedule.transfers()[t].to) << plan_context;
      EXPECT_EQ(want.schedule.transfers()[t].time,
                got.schedule.transfers()[t].time) << plan_context;
    }
  }
}

}  // namespace dpg::testing
