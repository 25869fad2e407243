// Shared fixtures for the test suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost_model.hpp"
#include "core/flow.hpp"
#include "core/request.hpp"
#include "util/rng.hpp"

namespace dpg::testing {

/// Materializes a Request view's item span for gtest container matchers.
inline std::vector<ItemId> items_of(const Request& r) {
  return {r.items.begin(), r.items.end()};
}

/// Writes `text` to a file under the test temp directory, named after the
/// running test plus `name` (so tests running in parallel never share one);
/// returns the path.
inline std::string write_temp_file(const std::string& name,
                                   std::string_view text) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + test->test_suite_name() +
                           "." + test->name() + "." + name;
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return path;
}

/// Exact structural equality of two sequences (dims, servers, times, items).
inline bool same_sequence(const RequestSequence& a, const RequestSequence& b) {
  if (a.server_count() != b.server_count() ||
      a.item_count() != b.item_count() || a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].server != b[i].server || a[i].time != b[i].time ||
        !std::equal(a[i].items.begin(), a[i].items.end(), b[i].items.begin(),
                    b[i].items.end())) {
      return false;
    }
  }
  return true;
}

/// The running example of Section V-C (Figs. 2 and 7): two items over four
/// servers; server 0 is the origin s_1.
///
///   t=0.5  d1       @ server 2
///   t=0.8  {d1,d2}  @ server 1
///   t=1.1  d2       @ server 3
///   t=1.4  {d1,d2}  @ server 0
///   t=2.6  d1       @ server 2
///   t=3.2  d2       @ server 2
///   t=4.0  {d1,d2}  @ server 1
///
/// With θ=0.4, μ=λ=1, α=0.8 the paper derives J(d1,d2)=3/7, a package DP
/// cost of 8.96, greedy singleton costs 3.1 (d1) and 2.9 (d2), and a grand
/// total of 14.96.
inline RequestSequence running_example_sequence() {
  SequenceBuilder builder(/*server_count=*/4, /*item_count=*/2);
  builder.add(2, 0.5, {0});
  builder.add(1, 0.8, {0, 1});
  builder.add(3, 1.1, {1});
  builder.add(0, 1.4, {0, 1});
  builder.add(2, 2.6, {0});
  builder.add(2, 3.2, {1});
  builder.add(1, 4.0, {0, 1});
  return std::move(builder).build();
}

/// The cost parameters of the running example.
inline CostModel running_example_model() {
  CostModel model;
  model.mu = 1.0;
  model.lambda = 1.0;
  model.alpha = 0.8;
  return model;
}

/// Uniform random flow for property tests: `n` service points over
/// `server_count` servers, times strictly increasing with unit-mean gaps.
inline Flow random_flow(Rng& rng, std::size_t n, std::size_t server_count,
                        std::size_t group_size = 1) {
  Flow flow;
  flow.group_size = group_size;
  Time t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += 0.125 * static_cast<Time>(rng.next_int(1, 16));
    flow.points.push_back(ServicePoint{
        static_cast<ServerId>(rng.next_below(server_count)), t, i});
  }
  return flow;
}

/// Random multi-item request sequence for end-to-end property tests.
inline RequestSequence random_sequence(Rng& rng, std::size_t n,
                                       std::size_t server_count,
                                       std::size_t item_count,
                                       double co_access_probability = 0.4) {
  SequenceBuilder builder(server_count, item_count);
  Time t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += 0.125 * static_cast<Time>(rng.next_int(1, 16));
    std::vector<ItemId> items;
    items.push_back(static_cast<ItemId>(rng.next_below(item_count)));
    if (item_count > 1 && rng.next_bool(co_access_probability)) {
      ItemId other = static_cast<ItemId>(rng.next_below(item_count));
      if (other != items.front()) items.push_back(other);
    }
    builder.add(static_cast<ServerId>(rng.next_below(server_count)), t,
                std::move(items));
  }
  return std::move(builder).build();
}

}  // namespace dpg::testing
