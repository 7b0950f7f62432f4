#include "jpm/cache/stack_distance.h"

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <vector>

#include "jpm/cache/lru_cache.h"
#include "jpm/util/rng.h"

namespace jpm::cache {
namespace {

TEST(StackDistanceTest, FirstAccessIsCold) {
  StackDistanceTracker t;
  EXPECT_EQ(t.access(42), kColdAccess);
  EXPECT_EQ(t.distinct_pages(), 1u);
}

TEST(StackDistanceTest, ImmediateReaccessHasDepthOne) {
  StackDistanceTracker t;
  t.access(1);
  EXPECT_EQ(t.access(1), 1u);
}

TEST(StackDistanceTest, DepthCountsDistinctIntermediatePages) {
  StackDistanceTracker t;
  t.access(1);
  t.access(2);
  t.access(3);
  t.access(2);            // depth 2 (pages {3} + itself)
  EXPECT_EQ(t.access(1), 3u);  // {2, 3} + itself
}

TEST(StackDistanceTest, RepeatedIntermediateAccessesCountOnce) {
  StackDistanceTracker t;
  t.access(1);
  for (int i = 0; i < 10; ++i) t.access(2);
  EXPECT_EQ(t.access(1), 2u);  // only one distinct page in between
}

// The worked example from paper Fig. 3: accesses (1,2,3,5,2,1,4,6,5,2) give
// depth counters (0,0,1,1,2,0,0,0) — one access at depth 3, one at 4, two
// at 5.
TEST(StackDistanceTest, PaperFigure3Example) {
  StackDistanceTracker t;
  const std::vector<std::uint64_t> refs{1, 2, 3, 5, 2, 1, 4, 6, 5, 2};
  std::vector<std::uint64_t> depths;
  for (auto r : refs) depths.push_back(t.access(r));
  const auto C = kColdAccess;
  const std::vector<std::uint64_t> expected{C, C, C, C, 3, 4, C, C, 5, 5};
  EXPECT_EQ(depths, expected);
}

TEST(StackDistanceTest, SurvivesCompaction) {
  StackDistanceTracker t;
  // Re-access two pages many times: slots churn and force compactions.
  t.access(100);
  t.access(200);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_EQ(t.access(100), 2u);
    EXPECT_EQ(t.access(200), 2u);
  }
  EXPECT_EQ(t.distinct_pages(), 2u);
  EXPECT_EQ(t.total_accesses(), 200002u);
}

// Reference implementation: an explicit LRU stack (O(n) per access).
class NaiveStack {
 public:
  std::uint64_t access(std::uint64_t page) {
    std::uint64_t depth = 1;
    for (auto it = stack_.begin(); it != stack_.end(); ++it, ++depth) {
      if (*it == page) {
        stack_.erase(it);
        stack_.push_front(page);
        return depth;
      }
    }
    stack_.push_front(page);
    return kColdAccess;
  }

 private:
  std::list<std::uint64_t> stack_;
};

TEST(StackDistanceTest, RandomizedAgainstNaiveStack) {
  StackDistanceTracker fast;
  NaiveStack naive;
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    // Mix of hot pages and a long tail so all depths occur.
    const std::uint64_t page = rng.chance(0.6) ? rng.uniform_index(16)
                                               : rng.uniform_index(1000);
    ASSERT_EQ(fast.access(page), naive.access(page)) << "iter " << i;
  }
}

// Compaction-heavy run pinning the live-set invariant: a hot set keeps
// next_slot_ churning (one slot per access against a small live set forces a
// rebuild every few thousand accesses) while a drifting cold tail keeps
// growing the live set mid-stream. Every depth must still match the naive
// stack, and the compact() internal live-count CHECK crashes the test if a
// rebuild ever loses or duplicates a live slot.
TEST(StackDistanceTest, CompactionHeavyChurnMatchesNaive) {
  StackDistanceTracker fast;
  NaiveStack naive;
  Rng rng(4242);
  std::uint64_t next_cold = 1000;
  for (int i = 0; i < 60000; ++i) {
    std::uint64_t page;
    if (rng.chance(0.9)) {
      page = rng.uniform_index(32);  // hot set: high slot churn
    } else {
      page = next_cold++;  // always-new page: live set grows
    }
    ASSERT_EQ(fast.access(page), naive.access(page)) << "iter " << i;
  }
  EXPECT_EQ(fast.distinct_pages(), 32 + (next_cold - 1000));
  EXPECT_EQ(fast.total_accesses(), 60000u);
}

// The engine's fused configuration: one PageTable shared between an LruCache
// and a tracker, with constant evictions vacating the `frame` half of
// entries whose `slot` half stays live. Depths must be unaffected by the
// cache's churn, and compaction must keep treating evicted-but-tracked
// pages as live.
TEST(StackDistanceTest, SharedTableWithEvictingCacheMatchesNaive) {
  PageTable table;
  LruCache cache(LruCacheOptions{/*total_frames=*/64, /*frames_per_bank=*/8,
                                 /*capacity_frames=*/16},
                 &table);
  StackDistanceTracker fast(&table);
  NaiveStack naive;
  Rng rng(99);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t page = rng.chance(0.7) ? rng.uniform_index(24)
                                               : rng.uniform_index(2000);
    PageEntry* entry = table.find_or_insert(page);
    ASSERT_EQ(fast.access_at(*entry), naive.access(page)) << "iter " << i;
    // Mirror the engine's hot loop: hit -> touch, miss -> insert. An
    // eviction only clears the victim's `frame` half; entries never move.
    if (entry->frame != kNoFrame) {
      cache.touch(entry->frame);
    } else {
      cache.insert(page);
    }
  }
  EXPECT_EQ(cache.size(), 16u);
  // Every resident page's entry must carry both halves.
  std::uint64_t resident = 0;
  table.for_each([&](PageId /*page*/, PageEntry& entry) {
    EXPECT_NE(entry.slot, kNoSlot);  // tracker saw every page
    if (entry.frame != kNoFrame) ++resident;
  });
  EXPECT_EQ(resident, 16u);
}

TEST(StackDistanceTest, SequentialScanDepthsEqualWorkingSetSize) {
  StackDistanceTracker t;
  const std::uint64_t n = 500;
  for (std::uint64_t p = 0; p < n; ++p) t.access(p);
  // Second scan: every page is at depth n.
  for (std::uint64_t p = 0; p < n; ++p) EXPECT_EQ(t.access(p), n);
}

}  // namespace
}  // namespace jpm::cache
