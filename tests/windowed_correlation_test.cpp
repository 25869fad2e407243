// WindowedCorrelation against a brute-force recount of the window: after
// every add, the co-pair walk must yield exactly the pairs that co-occur in
// the last `window` rows, each once, with their count — no pair that has
// left the window, and no pair twice.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "solver/windowed_correlation.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

using PairCounts = std::map<std::pair<ItemId, ItemId>, std::size_t>;

/// Co-occurrence counts over rows [begin, end), recounted from scratch.
PairCounts brute_force(const std::vector<std::vector<ItemId>>& rows,
                       std::size_t begin, std::size_t end) {
  PairCounts counts;
  for (std::size_t r = begin; r < end; ++r) {
    for (std::size_t x = 0; x < rows[r].size(); ++x) {
      for (std::size_t y = x + 1; y < rows[r].size(); ++y) {
        ++counts[{rows[r][x], rows[r][y]}];
      }
    }
  }
  return counts;
}

TEST(WindowedCorrelation, CoPairWalkMatchesBruteForceAfterEveryAdd) {
  constexpr std::size_t kItems = 30;
  Rng rng(14);
  for (const std::size_t window : {1u, 2u, 3u, 7u, 16u, 33u, 64u}) {
    WindowedCorrelation correlation(kItems, window);
    std::vector<std::vector<ItemId>> rows;
    for (std::size_t step = 0; step < 600; ++step) {
      // 1-4 distinct items, sorted (the add() contract).
      std::vector<ItemId> row;
      const std::size_t size = 1 + rng.next_below(4);
      while (row.size() < size) {
        const auto item = static_cast<ItemId>(rng.next_below(kItems));
        if (std::find(row.begin(), row.end(), item) == row.end()) {
          row.push_back(item);
        }
      }
      std::sort(row.begin(), row.end());
      rows.push_back(row);
      correlation.add(row);

      const std::size_t begin = rows.size() > window ? rows.size() - window : 0;
      const PairCounts expected = brute_force(rows, begin, rows.size());
      PairCounts walked;
      correlation.for_each_co_pair([&](ItemId a, ItemId b, std::size_t co) {
        ASSERT_LT(a, b);
        ASSERT_TRUE(walked.emplace(std::make_pair(a, b), co).second)
            << "pair (" << a << ", " << b << ") walked twice";
      });
      ASSERT_EQ(walked, expected) << "window=" << window << " step=" << step;
      for (const auto& [pair, co] : expected) {
        ASSERT_EQ(correlation.co_frequency(pair.first, pair.second), co);
      }
      ASSERT_EQ(correlation.size(), std::min(rows.size(), window));
    }
  }
}

}  // namespace
}  // namespace dpg
