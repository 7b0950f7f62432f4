#include "fenwick.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "jpm/util/rng.h"

namespace jpm {
namespace {

TEST(FenwickTest, EmptyTreeHasZeroTotal) {
  FenwickTree tree(8);
  EXPECT_EQ(tree.total(), 0);
  EXPECT_EQ(tree.size(), 8u);
}

TEST(FenwickTest, SingleAddReflectsInPrefixSums) {
  FenwickTree tree(10);
  tree.add(3, 5);
  EXPECT_EQ(tree.prefix_sum(2), 0);
  EXPECT_EQ(tree.prefix_sum(3), 5);
  EXPECT_EQ(tree.prefix_sum(9), 5);
}

TEST(FenwickTest, RangeSumMatchesDifferences) {
  FenwickTree tree(16);
  for (std::size_t i = 0; i < 16; ++i) tree.add(i, static_cast<int>(i));
  EXPECT_EQ(tree.range_sum(4, 7), 4 + 5 + 6 + 7);
  EXPECT_EQ(tree.range_sum(0, 15), tree.total());
  EXPECT_EQ(tree.range_sum(9, 3), 0);  // inverted range
}

TEST(FenwickTest, NegativeDeltasSupported) {
  FenwickTree tree(4);
  tree.add(1, 10);
  tree.add(1, -4);
  EXPECT_EQ(tree.prefix_sum(1), 6);
}

TEST(FenwickTest, ResetClearsContents) {
  FenwickTree tree(4);
  tree.add(0, 7);
  tree.reset(6);
  EXPECT_EQ(tree.size(), 6u);
  EXPECT_EQ(tree.total(), 0);
}

TEST(FenwickTest, ResetOnesPrefixMatchesExplicitAdds) {
  // The stack-distance compactor rebuilds with this; it must equal `ones`
  // consecutive add(+1) calls for any size, including edges and
  // non-powers-of-two.
  for (std::size_t size : {1u, 2u, 7u, 64u, 257u, 1000u}) {
    for (std::size_t ones : {std::size_t{0}, size / 2, size}) {
      FenwickTree fast;
      fast.reset_ones_prefix(size, ones);
      FenwickTree slow(size);
      for (std::size_t i = 0; i < ones; ++i) slow.add(i, +1);
      ASSERT_EQ(fast.size(), size);
      for (std::size_t q = 0; q < size; ++q) {
        ASSERT_EQ(fast.prefix_sum(q), slow.prefix_sum(q))
            << "size " << size << " ones " << ones << " q " << q;
      }
    }
  }
}

TEST(FenwickTest, ResetOnesPrefixSupportsFurtherUpdates) {
  FenwickTree tree;
  tree.reset_ones_prefix(100, 40);
  tree.add(10, -1);  // unmark
  tree.add(90, +1);  // mark past the prefix
  EXPECT_EQ(tree.prefix_sum(39), 39);
  EXPECT_EQ(tree.prefix_sum(99), 40);
  EXPECT_EQ(tree.total(), 40);
}

TEST(FenwickTest, RandomizedAgainstNaive) {
  Rng rng(42);
  const std::size_t n = 257;  // non-power-of-two
  FenwickTree tree(n);
  std::vector<std::int64_t> naive(n, 0);
  for (int iter = 0; iter < 5000; ++iter) {
    const auto i = static_cast<std::size_t>(rng.uniform_index(n));
    const auto delta = static_cast<std::int64_t>(rng.uniform_index(21)) - 10;
    tree.add(i, delta);
    naive[i] += delta;
    const auto q = static_cast<std::size_t>(rng.uniform_index(n));
    const auto expected =
        std::accumulate(naive.begin(), naive.begin() + static_cast<long>(q) + 1,
                        std::int64_t{0});
    ASSERT_EQ(tree.prefix_sum(q), expected) << "at iter " << iter;
  }
}

}  // namespace
}  // namespace jpm
