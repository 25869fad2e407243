// Unit tests for Request / RequestSequence / SequenceBuilder.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/request.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace dpg {
namespace {

using testing::items_of;

std::vector<std::size_t> indices_vec(const RequestSequence& seq, ItemId item) {
  const std::span<const std::size_t> view = seq.indices_for_item(item);
  return {view.begin(), view.end()};
}

TEST(Request, ContainsUsesBinarySearch) {
  const std::vector<ItemId> items{1, 3, 5};
  const Request r{0, 1.0, items};
  EXPECT_TRUE(r.contains(1));
  EXPECT_TRUE(r.contains(5));
  EXPECT_FALSE(r.contains(2));
}

TEST(RequestSequence, ValidatesOrderingAndRanges) {
  // Out-of-order times.
  EXPECT_THROW(RequestSequence(2, 2, {{0, 2.0, {0}}, {1, 1.0, {1}}}),
               InvalidArgument);
  // Time zero is reserved for the origin.
  EXPECT_THROW(RequestSequence(2, 2, {{0, 0.0, {0}}}), InvalidArgument);
  // Duplicate times.
  EXPECT_THROW(RequestSequence(2, 2, {{0, 1.0, {0}}, {1, 1.0, {1}}}),
               InvalidArgument);
  // Non-finite times.
  EXPECT_THROW(RequestSequence(2, 2, {{0, std::nan(""), {0}}}),
               InvalidArgument);
  EXPECT_THROW(RequestSequence(2, 2, {{0, 1.0, {0}}, {1, HUGE_VAL, {1}}}),
               InvalidArgument);
  // kNoItem is reserved, whatever item count the caller claims.
  EXPECT_THROW(
      RequestSequence(2, std::size_t{kNoItem} + 1, {{0, 1.0, {kNoItem}}}),
      InvalidArgument);
  // Server out of range.
  EXPECT_THROW(RequestSequence(2, 2, {{7, 1.0, {0}}}), InvalidArgument);
  // Item out of range.
  EXPECT_THROW(RequestSequence(2, 2, {{0, 1.0, {5}}}), InvalidArgument);
  // Empty item set.
  EXPECT_THROW(RequestSequence(2, 2, {{0, 1.0, {}}}), InvalidArgument);
  // Unsorted item set.
  EXPECT_THROW(RequestSequence(2, 3, {{0, 1.0, {2, 0}}}), InvalidArgument);
  // Duplicate items.
  EXPECT_THROW(RequestSequence(2, 3, {{0, 1.0, {1, 1}}}), InvalidArgument);
  // Degenerate dimensions.
  EXPECT_THROW(RequestSequence(0, 1, {}), InvalidArgument);
  EXPECT_THROW(RequestSequence(1, 0, {}), InvalidArgument);
}

TEST(RequestSequence, FrequenciesAndIndices) {
  const RequestSequence seq(
      2, 3, {{0, 1.0, {0, 1}}, {1, 2.0, {1}}, {0, 3.0, {0, 1, 2}}});
  EXPECT_EQ(seq.item_frequency(0), 2u);
  EXPECT_EQ(seq.item_frequency(1), 3u);
  EXPECT_EQ(seq.item_frequency(2), 1u);
  EXPECT_EQ(seq.pair_frequency(0, 1), 2u);
  EXPECT_EQ(seq.pair_frequency(1, 2), 1u);
  EXPECT_EQ(seq.pair_frequency(0, 2), 1u);
  EXPECT_EQ(seq.total_item_accesses(), 6u);
  EXPECT_EQ(indices_vec(seq, 1), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(RequestSequence, PairFrequencyIsSymmetric) {
  const RequestSequence seq(2, 2, {{0, 1.0, {0, 1}}, {1, 2.0, {0}}});
  EXPECT_EQ(seq.pair_frequency(0, 1), seq.pair_frequency(1, 0));
}

TEST(RequestSequence, CsrColumnsExposeFlatLayout) {
  const RequestSequence seq(
      3, 3, {{2, 1.0, {0, 2}}, {1, 2.0, {1}}, {0, 3.0, {0}}});
  ASSERT_EQ(seq.servers().size(), 3u);
  EXPECT_EQ(seq.servers()[0], 2u);
  EXPECT_EQ(seq.times()[2], 3.0);
  EXPECT_EQ(seq.server_of(1), 1u);
  EXPECT_EQ(seq.time_of(1), 2.0);
  EXPECT_EQ(std::vector<ItemId>(seq.items_of(0).begin(), seq.items_of(0).end()),
            (std::vector<ItemId>{0, 2}));
  // Item sets of consecutive requests are adjacent in one pool.
  EXPECT_EQ(seq.items_of(0).data() + seq.items_of(0).size(),
            seq.items_of(1).data());
  // Per-item index spans are slices of one flat pool too.
  EXPECT_EQ(seq.indices_for_item(0).data() + seq.indices_for_item(0).size(),
            seq.indices_for_item(1).data());
}

TEST(SequenceBuilder, SortsByTimeAndNormalizesItems) {
  SequenceBuilder builder(3, 4);
  builder.add(1, 2.0, {3, 1, 1});  // unsorted + duplicate, normalized by add
  builder.add(0, 1.0, {0});
  const RequestSequence seq = std::move(builder).build();
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0].time, 1.0);
  EXPECT_EQ(items_of(seq[1]), (std::vector<ItemId>{1, 3}));
}

TEST(SequenceBuilder, DuplicateTimesStillRejected) {
  SequenceBuilder builder(2, 2);
  builder.add(0, 1.0, {0});
  builder.add(1, 1.0, {1});
  EXPECT_THROW(std::move(builder).build(), InvalidArgument);
}

TEST(SequenceBuilder, StreamingApiMatchesAdd) {
  SequenceBuilder streamed(3, 4);
  streamed.begin_request(1, 2.0);
  streamed.push_item(3);
  streamed.push_item(1);
  streamed.push_item(1);
  streamed.end_request();
  streamed.begin_request(0, 1.0).push_item(0).end_request();

  SequenceBuilder added(3, 4);
  added.add(1, 2.0, {3, 1, 1});
  added.add(0, 1.0, {0});

  EXPECT_TRUE(testing::same_sequence(std::move(streamed).build(),
                                     std::move(added).build()));
}

TEST(SequenceBuilder, StreamingRowsAreSortedAndDeduplicated) {
  SequenceBuilder builder(2, 5);
  builder.begin_request(0, 1.0);
  builder.push_item(4).push_item(0).push_item(4).push_item(2);
  builder.end_request();
  const RequestSequence seq = std::move(builder).build();
  EXPECT_EQ(items_of(seq[0]), (std::vector<ItemId>{0, 2, 4}));
}

TEST(SequenceBuilder, MisuseOfStreamingApiThrows) {
  SequenceBuilder builder(2, 2);
  EXPECT_THROW(builder.push_item(0), InvalidArgument);
  EXPECT_THROW(builder.end_request(), InvalidArgument);
  builder.begin_request(0, 1.0);
  EXPECT_THROW(builder.begin_request(1, 2.0), InvalidArgument);
  EXPECT_THROW(std::move(builder).build(), InvalidArgument);
}

TEST(SequenceBuilder, ReserveMakesBuildAllocationFree) {
  SequenceBuilder builder(4, 8);
  builder.reserve(64, 128);
  for (std::size_t i = 0; i < 64; ++i) {
    builder.begin_request(static_cast<ServerId>(i % 4),
                          static_cast<Time>(i + 1));
    builder.push_item(static_cast<ItemId>(i % 8));
    builder.push_item(static_cast<ItemId>((i + 3) % 8));
    builder.end_request();
  }
  // All appends landed in the reserved arrays: no growth events at all.
  EXPECT_EQ(builder.grow_events(), 0u);
  const RequestSequence seq = std::move(builder).build();
  EXPECT_EQ(seq.size(), 64u);
}

TEST(SequenceBuilder, BuildWithCountsOverridesDimensions) {
  SequenceBuilder builder(1, 1);
  builder.add(3, 1.0, {7});
  const RequestSequence seq = std::move(builder).build_with_counts(4, 8);
  EXPECT_EQ(seq.server_count(), 4u);
  EXPECT_EQ(seq.item_count(), 8u);
  EXPECT_EQ(seq[0].server, 3u);
}

TEST(RequestSequence, ToStringMentionsDimensions) {
  const RequestSequence seq(3, 2, {{1, 1.5, {0}}});
  const std::string text = seq.to_string();
  EXPECT_NE(text.find("m=3"), std::string::npos);
  EXPECT_NE(text.find("k=2"), std::string::npos);
  EXPECT_NE(text.find("t=1.500"), std::string::npos);
}

}  // namespace
}  // namespace dpg
