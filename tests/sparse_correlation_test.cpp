// Cross-checks of the sparse Phase-1 path against the dense triangle: the
// two representations must agree on every count, every Jaccard value, the
// observed-pair dictionary, the frequent-pairs view and — the part Phase 2
// consumes — the exact packing produced by greedy_pairing.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "solver/pairing.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

CorrelationOptions dense_options() {
  CorrelationOptions options;
  options.mode = CorrelationOptions::Mode::kDense;
  return options;
}

CorrelationOptions sparse_options(ThreadPool* pool = nullptr) {
  CorrelationOptions options;
  options.mode = CorrelationOptions::Mode::kSparse;
  options.pool = pool;
  return options;
}

TEST(PairCountMap, PacksPairsCanonically) {
  const std::uint64_t key = PairCountMap::pack(7, 3);
  EXPECT_EQ(key, PairCountMap::pack(3, 7));
  EXPECT_EQ(PairCountMap::unpack_a(key), 3u);
  EXPECT_EQ(PairCountMap::unpack_b(key), 7u);
}

TEST(PairCountMap, CountsAndGrowsPastInitialCapacity) {
  PairCountMap map;
  for (ItemId a = 0; a < 64; ++a) {
    for (ItemId b = a + 1; b < 64; b += 7) {
      map.add(PairCountMap::pack(a, b), a + 1);
    }
  }
  std::size_t distinct = 0;
  for (ItemId a = 0; a < 64; ++a) {
    for (ItemId b = a + 1; b < 64; b += 7) {
      ++distinct;
      ASSERT_EQ(map.count(PairCountMap::pack(a, b)), a + 1);
    }
  }
  EXPECT_EQ(map.size(), distinct);
  EXPECT_EQ(map.count(PairCountMap::pack(0, 2)), 0u);  // never inserted
}

// The slot hash of PairCountMap (mix_key in correlation.cpp), mirrored so
// the deletion test can place keys at the end of the table on purpose.
std::size_t home_slot(std::uint64_t key, std::size_t capacity) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdull;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ull;
  key ^= key >> 33;
  return static_cast<std::size_t>(key) & (capacity - 1);
}

TEST(PairCountMap, SubtractingToZeroErasesAndKeepsWrappedRunsExact) {
  // A default map has 16 slots and holds 8 keys before it grows.  Six keys
  // homed in the last three slots, inserted first, make a probe run that
  // wraps past slot 15; two keys homed in slots 0-1 then land behind it.
  constexpr std::size_t kCapacity = 16;
  std::vector<std::uint64_t> high, low;
  for (ItemId a = 0; high.size() < 6 || low.size() < 2; ++a) {
    const std::uint64_t key = PairCountMap::pack(a, a + 1000);
    const std::size_t home = home_slot(key, kCapacity);
    if (home >= 13 && high.size() < 6) high.push_back(key);
    if (home <= 1 && low.size() < 2) low.push_back(key);
  }
  std::vector<std::uint64_t> keys = high;
  keys.insert(keys.end(), low.begin(), low.end());
  const auto fill = [&keys](PairCountMap& map) {
    for (std::size_t i = 0; i < keys.size(); ++i) map.add(keys[i], i % 2 + 1);
  };
  {
    // The run really wraps: the slot walk meets a high-homed key first.
    PairCountMap map;
    fill(map);
    std::uint64_t first = 0;
    bool seen = false;
    map.for_each([&](std::uint64_t key, std::size_t) {
      if (!seen) first = key;
      seen = true;
    });
    ASSERT_GE(home_slot(first, kCapacity), 13u);
  }

  // Every order of erasing the eight keys, one unit at a time.
  std::vector<std::size_t> order(keys.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::size_t orders = 0;
  do {
    PairCountMap map;
    fill(map);
    std::vector<std::size_t> left(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) left[i] = i % 2 + 1;
    std::size_t live = keys.size();
    for (const std::size_t victim : order) {
      while (left[victim] > 0) {
        map.sub(keys[victim]);
        if (--left[victim] == 0) --live;
        ASSERT_EQ(map.size(), live);
        for (std::size_t i = 0; i < keys.size(); ++i) {
          ASSERT_EQ(map.count(keys[i]), left[i]);
        }
        std::size_t walked = 0;
        map.for_each([&](std::uint64_t, std::size_t count) {
          ASSERT_GT(count, 0u);
          ++walked;
        });
        ASSERT_EQ(walked, live);
      }
    }
    // An erased key can come back.
    map.add(keys[order.front()], 3);
    EXPECT_EQ(map.count(keys[order.front()]), 3u);
    EXPECT_EQ(map.size(), 1u);
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 40320u);
}

TEST(PairCountMap, MergeAddsCounts) {
  PairCountMap a;
  PairCountMap b;
  a.add(PairCountMap::pack(0, 1), 2);
  a.add(PairCountMap::pack(1, 2), 1);
  b.add(PairCountMap::pack(0, 1), 3);
  b.add(PairCountMap::pack(4, 5), 7);
  a.merge(b);
  EXPECT_EQ(a.count(PairCountMap::pack(0, 1)), 5u);
  EXPECT_EQ(a.count(PairCountMap::pack(1, 2)), 1u);
  EXPECT_EQ(a.count(PairCountMap::pack(4, 5)), 7u);
  EXPECT_EQ(a.size(), 3u);
}

TEST(SparseCorrelation, AgreesWithDenseOnEveryPairStatistic) {
  Rng rng(101);
  const RequestSequence seq = testing::random_sequence(rng, 400, 6, 24, 0.5);
  const CorrelationAnalysis dense(seq, dense_options());
  const CorrelationAnalysis sparse(seq, sparse_options());
  ASSERT_TRUE(sparse.is_sparse());
  ASSERT_FALSE(dense.is_sparse());
  EXPECT_EQ(dense.observed_pair_count(), sparse.observed_pair_count());
  for (ItemId a = 0; a < 24; ++a) {
    ASSERT_EQ(dense.frequency(a), sparse.frequency(a));
    for (ItemId b = 0; b < 24; ++b) {
      ASSERT_EQ(dense.co_frequency(a, b), sparse.co_frequency(a, b));
      ASSERT_DOUBLE_EQ(dense.jaccard(a, b), sparse.jaccard(a, b));
    }
  }
}

TEST(SparseCorrelation, SortedPairsAreTheObservedPrefixOfDense) {
  Rng rng(7);
  const RequestSequence seq = testing::random_sequence(rng, 300, 5, 16, 0.6);
  const CorrelationAnalysis dense(seq, dense_options());
  const CorrelationAnalysis sparse(seq, sparse_options());

  std::vector<PairCorrelation> observed;
  for (const PairCorrelation& p : dense.sorted_pairs()) {
    if (p.co_freq > 0) observed.push_back(p);
  }
  const auto& got = sparse.sorted_pairs();
  ASSERT_EQ(got.size(), observed.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].a, observed[i].a);
    ASSERT_EQ(got[i].b, observed[i].b);
    ASSERT_EQ(got[i].co_freq, observed[i].co_freq);
    ASSERT_DOUBLE_EQ(got[i].jaccard, observed[i].jaccard);
  }
}

TEST(SparseCorrelation, FrequentPairsIdenticalAcrossRepresentations) {
  Rng rng(41);
  const RequestSequence seq = testing::random_sequence(rng, 500, 8, 20, 0.4);
  const CorrelationAnalysis dense(seq, dense_options());
  const CorrelationAnalysis sparse(seq, sparse_options());
  for (const double threshold : {0.0, 0.1, 0.25, 0.5, 0.9}) {
    const auto a = dense.frequent_pairs(threshold);
    const auto b = sparse.frequent_pairs(threshold);
    ASSERT_EQ(a.size(), b.size()) << "threshold " << threshold;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].a, b[i].a);
      ASSERT_EQ(a[i].b, b[i].b);
      ASSERT_EQ(a[i].co_freq, b[i].co_freq);
    }
  }
}

TEST(SparseCorrelation, GreedyPairingPacksIdenticallyToDense) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    Rng rng(seed);
    const RequestSequence seq =
        testing::random_sequence(rng, 350, 6, 18, 0.55);
    const CorrelationAnalysis dense(seq, dense_options());
    const CorrelationAnalysis sparse(seq, sparse_options());
    for (const double theta : {0.1, 0.3, 0.5}) {
      for (const bool inclusive : {false, true}) {
        const Packing pd = greedy_pairing(dense, theta, inclusive);
        const Packing ps = greedy_pairing(sparse, theta, inclusive);
        ASSERT_EQ(pd.pairs.size(), ps.pairs.size());
        for (std::size_t i = 0; i < pd.pairs.size(); ++i) {
          ASSERT_EQ(pd.pairs[i].a, ps.pairs[i].a);
          ASSERT_EQ(pd.pairs[i].b, ps.pairs[i].b);
          ASSERT_DOUBLE_EQ(pd.pairs[i].jaccard, ps.pairs[i].jaccard);
        }
        ASSERT_EQ(pd.singles, ps.singles);
      }
    }
  }
}

TEST(SparseCorrelation, ShardedCountingMatchesSerial) {
  ThreadPool pool(4);
  Rng rng(77);
  const RequestSequence seq = testing::random_sequence(rng, 800, 8, 32, 0.5);
  const CorrelationAnalysis serial(seq, sparse_options());
  const CorrelationAnalysis sharded(seq, sparse_options(&pool));
  ASSERT_EQ(serial.observed_pair_count(), sharded.observed_pair_count());
  const auto& a = serial.sorted_pairs();
  const auto& b = sharded.sorted_pairs();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].a, b[i].a);
    ASSERT_EQ(a[i].b, b[i].b);
    ASSERT_EQ(a[i].co_freq, b[i].co_freq);
  }
}

TEST(SparseCorrelation, AutoModeSwitchesOnItemCount) {
  Rng rng(3);
  const RequestSequence seq = testing::random_sequence(rng, 100, 4, 10, 0.5);
  CorrelationOptions options;  // kAuto
  options.dense_max_items = 8;
  EXPECT_TRUE(CorrelationAnalysis(seq, options).is_sparse());
  options.dense_max_items = 10;
  EXPECT_FALSE(CorrelationAnalysis(seq, options).is_sparse());
}

TEST(SparseCorrelation, GroupingAgreesThroughHashAccessors) {
  // greedy_grouping probes jaccard(x, y) for cross pairs, exercising the
  // sparse hash lookup path rather than the sorted dictionary.
  Rng rng(19);
  const RequestSequence seq = testing::random_sequence(rng, 400, 5, 14, 0.6);
  const CorrelationAnalysis dense(seq, dense_options());
  const CorrelationAnalysis sparse(seq, sparse_options());
  const GroupPacking gd = greedy_grouping(dense, 0.2, 3);
  const GroupPacking gs = greedy_grouping(sparse, 0.2, 3);
  ASSERT_EQ(gd.groups, gs.groups);
  ASSERT_EQ(gd.singles, gs.singles);
}

}  // namespace
}  // namespace dpg
