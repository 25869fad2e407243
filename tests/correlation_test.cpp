// Unit tests for Jaccard correlation analysis (Phase 1 ingredients).
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mobility/simulator.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/correlation.hpp"
#include "test_support.hpp"
#include "trace/generators.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-12;

TEST(Jaccard, CountFormulaMatchesEq5) {
  EXPECT_NEAR(jaccard_similarity(5, 5, 3), 3.0 / 7.0, kTol);
  EXPECT_NEAR(jaccard_similarity(4, 4, 4), 1.0, kTol);
  EXPECT_NEAR(jaccard_similarity(3, 5, 0), 0.0, kTol);
  EXPECT_NEAR(jaccard_similarity(0, 0, 0), 0.0, kTol);  // guarded division
}

TEST(Correlation, SelfSimilarityIsOne) {
  const RequestSequence seq = testing::running_example_sequence();
  const CorrelationAnalysis analysis(seq);
  EXPECT_NEAR(analysis.jaccard(0, 0), 1.0, kTol);
  EXPECT_NEAR(analysis.jaccard(1, 1), 1.0, kTol);
}

TEST(Correlation, MatrixIsSymmetric) {
  Rng rng(5);
  const RequestSequence seq = testing::random_sequence(rng, 120, 5, 6);
  const CorrelationAnalysis analysis(seq);
  for (ItemId a = 0; a < 6; ++a) {
    for (ItemId b = 0; b < 6; ++b) {
      ASSERT_NEAR(analysis.jaccard(a, b), analysis.jaccard(b, a), kTol);
    }
  }
}

TEST(Correlation, FrequenciesMatchSequenceCounts) {
  Rng rng(17);
  const RequestSequence seq = testing::random_sequence(rng, 200, 4, 5);
  const CorrelationAnalysis analysis(seq);
  for (ItemId item = 0; item < 5; ++item) {
    ASSERT_EQ(analysis.frequency(item), seq.item_frequency(item));
  }
  for (ItemId a = 0; a < 5; ++a) {
    for (ItemId b = a + 1; b < 5; ++b) {
      ASSERT_EQ(analysis.co_frequency(a, b), seq.pair_frequency(a, b));
    }
  }
}

TEST(Correlation, SortedPairsAreDescendingWithDeterministicTies) {
  Rng rng(23);
  const RequestSequence seq = testing::random_sequence(rng, 150, 4, 7);
  const CorrelationAnalysis analysis(seq);
  const auto& pairs = analysis.sorted_pairs();
  ASSERT_EQ(pairs.size(), 7u * 6u / 2u);
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    const auto& prev = pairs[i - 1];
    const auto& cur = pairs[i];
    ASSERT_TRUE(prev.jaccard > cur.jaccard ||
                (prev.jaccard == cur.jaccard &&
                 std::make_pair(prev.a, prev.b) < std::make_pair(cur.a, cur.b)));
  }
}

TEST(Correlation, JaccardInUnitInterval) {
  Rng rng(31);
  const RequestSequence seq = testing::random_sequence(rng, 300, 6, 8, 0.7);
  const CorrelationAnalysis analysis(seq);
  for (const PairCorrelation& p : analysis.sorted_pairs()) {
    ASSERT_GE(p.jaccard, 0.0);
    ASSERT_LE(p.jaccard, 1.0);
    ASSERT_LE(p.co_freq, std::min(p.freq_a, p.freq_b));
  }
}

TEST(Correlation, FrequentPairsFiltersByThresholdAndCoOccurrence) {
  const RequestSequence seq = testing::running_example_sequence();
  const CorrelationAnalysis analysis(seq);
  const auto frequent = analysis.frequent_pairs(0.3);
  ASSERT_EQ(frequent.size(), 1u);
  EXPECT_EQ(frequent[0].a, 0u);
  EXPECT_EQ(frequent[0].b, 1u);
  EXPECT_TRUE(analysis.frequent_pairs(0.9).empty());
}

TEST(Correlation, SingleItemSequenceHasNoPairs) {
  SequenceBuilder builder(2, 1);
  builder.add(0, 1.0, {0});
  const RequestSequence seq = std::move(builder).build();
  const CorrelationAnalysis analysis(seq);
  EXPECT_TRUE(analysis.sorted_pairs().empty());
}

// ---------------------------------------------------------------------------
// The sparse count scans rows a block of 2,048 at a time and buffers the
// key of every row's first two items, keeping only two-item rows'.  It must
// equal the dense count and a literal pair count everywhere: serially, on
// pools of every width, for every generator, for rows of three or more
// items, for a last row of one item and around the block edge.

using PairCounts = std::map<std::pair<ItemId, ItemId>, std::size_t>;

PairCounts literal_pair_counts(const RequestSequence& seq) {
  PairCounts counts;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::span<const ItemId> items = seq.items_of(i);
    for (std::size_t x = 0; x < items.size(); ++x) {
      for (std::size_t y = x + 1; y < items.size(); ++y) {
        ++counts[{items[x], items[y]}];
      }
    }
  }
  return counts;
}

bool same_pair(const PairCorrelation& x, const PairCorrelation& y) {
  return x.a == y.a && x.b == y.b && x.freq_a == y.freq_a &&
         x.freq_b == y.freq_b && x.co_freq == y.co_freq &&
         x.jaccard == y.jaccard;
}

void expect_sparse_count_exact(const RequestSequence& seq,
                               const std::string& what) {
  SCOPED_TRACE(what);
  const PairCounts literal = literal_pair_counts(seq);
  const ItemId k = static_cast<ItemId>(seq.item_count());
  CorrelationOptions dense_options;
  dense_options.mode = CorrelationOptions::Mode::kDense;
  const CorrelationAnalysis dense(seq, dense_options);
  std::vector<PairCorrelation> observed;
  for (const PairCorrelation& pair : dense.sorted_pairs()) {
    if (pair.co_freq > 0) observed.push_back(pair);
  }
  ASSERT_EQ(observed.size(), literal.size());
  ThreadPool one(1), two(2), four(4), seven(7);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &two,
                           &four, &seven}) {
    SCOPED_TRACE(pool == nullptr ? 0 : pool->worker_count());
    CorrelationOptions options;
    options.mode = CorrelationOptions::Mode::kSparse;
    options.pool = pool;
    const CorrelationAnalysis sparse(seq, options);
    for (ItemId a = 0; a < k; ++a) {
      for (ItemId b = a + 1; b < k; ++b) {
        const auto it = literal.find({a, b});
        const std::size_t want = it == literal.end() ? 0 : it->second;
        ASSERT_EQ(sparse.co_frequency(a, b), want) << a << "," << b;
        ASSERT_EQ(dense.co_frequency(a, b), want) << a << "," << b;
      }
    }
    const std::vector<PairCorrelation>& pairs = sparse.sorted_pairs();
    ASSERT_EQ(pairs.size(), observed.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_TRUE(same_pair(pairs[i], observed[i])) << "pair " << i;
    }
  }
}

/// `rows` rows over 6 items; row r holds `width(r)` consecutive items
/// starting at r % 6 (wrapping), so one- to six-item rows all occur.
template <typename Width>
RequestSequence rows_of_width(std::size_t rows, Width width) {
  constexpr std::size_t kItems = 6;
  SequenceBuilder builder(/*server_count=*/3, kItems);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<ItemId> items;
    for (std::size_t j = 0; j < width(r); ++j) {
      items.push_back(static_cast<ItemId>((r + j) % kItems));
    }
    builder.add(static_cast<ServerId>(r % 3), static_cast<Time>(r + 1),
                std::move(items));
  }
  return std::move(builder).build();
}

TEST(SparseCount, MatchesDenseAndLiteralOnEveryGenerator) {
  Rng rng(41);
  PairedTraceConfig paired;
  expect_sparse_count_exact(generate_paired_trace(paired, rng), "paired");
  ZipfTraceConfig zipf;
  zipf.item_count = 64;
  zipf.request_count = 5000;
  expect_sparse_count_exact(generate_zipf_trace(zipf, rng), "zipf");
  UniformTraceConfig uniform;
  expect_sparse_count_exact(generate_uniform_trace(uniform, rng), "uniform");
  BurstyTraceConfig bursty;
  expect_sparse_count_exact(generate_bursty_trace(bursty, rng), "bursty");
  AdversarialWindowConfig adversarial;
  expect_sparse_count_exact(generate_adversarial_window_trace(adversarial),
                            "adversarial window");
  MobilityConfig taxi;
  taxi.taxi_count = 40;
  taxi.duration = 60.0;
  expect_sparse_count_exact(simulate_mobility(taxi, rng), "taxi");
  expect_sparse_count_exact(testing::random_sequence(rng, 3000, 5, 30),
                            "random");
}

TEST(SparseCount, MatchesOnRowsOfThreeOrMoreItems) {
  expect_sparse_count_exact(
      rows_of_width(5000, [](std::size_t r) { return 1 + r * 7 % 6; }),
      "widths 1-6");
  expect_sparse_count_exact(
      rows_of_width(3000, [](std::size_t r) { return 3 + r % 2; }),
      "widths 3-4");
}

TEST(SparseCount, MatchesAroundTheBlockEdge) {
  // The last row has two items, so a skipped last block loses a pair.
  for (const std::size_t rows : {2047u, 2048u, 2049u, 4097u}) {
    expect_sparse_count_exact(
        rows_of_width(rows, [rows](std::size_t r) {
          return r + 1 == rows ? 2 : 1 + r % 2;
        }),
        std::to_string(rows) + " rows");
  }
}

/// Holds a copy of `items` whose last entry ends a readable page, followed
/// by an unreadable one: a read one past the pool faults.
class GuardedPool {
 public:
  explicit GuardedPool(std::span<const ItemId> items) {
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t bytes = items.size_bytes();
    size_ = (bytes + page - 1) / page * page + page;
    base_ = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(base_, MAP_FAILED);
    auto* guard = static_cast<unsigned char*>(base_) + size_ - page;
    EXPECT_EQ(::mprotect(guard, page, PROT_NONE), 0);
    data_ = reinterpret_cast<ItemId*>(guard - bytes);
    std::memcpy(data_, items.data(), bytes);
  }
  GuardedPool(const GuardedPool&) = delete;
  GuardedPool& operator=(const GuardedPool&) = delete;
  ~GuardedPool() { ::munmap(base_, size_); }

  [[nodiscard]] const ItemId* data() const noexcept { return data_; }

 private:
  void* base_ = nullptr;
  std::size_t size_ = 0;
  ItemId* data_ = nullptr;
};

TEST(SparseCount, MatchesWhenTheLastRowHoldsOneItem) {
  // The last row's second read is clamped to the pool's last entry: the
  // pool below ends at an unreadable page, so a read past it would fault.
  for (const std::size_t rows : {1u, 2047u, 2048u, 2049u, 3000u}) {
    auto owned = std::make_shared<RequestSequence>(rows_of_width(
        rows, [rows](std::size_t r) { return r + 1 == rows ? 1 : 1 + r % 3; }));
    auto guarded = std::make_shared<GuardedPool>(owned->columns().items_pool);
    SequenceColumns columns = owned->columns();
    columns.items_pool = {guarded->data(), columns.items_pool.size()};
    const RequestSequence seq = RequestSequence::adopt_columns(
        owned->server_count(), owned->item_count(), columns,
        std::make_shared<std::pair<std::shared_ptr<RequestSequence>,
                                   std::shared_ptr<GuardedPool>>>(owned,
                                                                  guarded));
    expect_sparse_count_exact(seq, std::to_string(rows) + " rows");
  }
}

}  // namespace
}  // namespace dpg
