#include "jpm/cache/stack_distance.h"

#include <gtest/gtest.h>

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "jpm/cache/lru_cache.h"
#include "jpm/util/check.h"
#include "jpm/util/rng.h"
#include "jpm/util/units.h"
#include "jpm/workload/synthesizer.h"
#include "jpm/workload/trace.h"

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

// fill_in_order(n) must leave the state that access(0), ..., access(n - 1)
// leaves on a fresh tracker. The tree sizes differ (the streamed tracker is
// wherever its compactions left it), which no depth may show: random
// accesses — re-accesses of filled pages and first touches of pages >= n —
// must report identical depths, through several compactions on either side.
TEST(StackDistanceTest, FillInOrderMatchesStreamedAccesses) {
  std::uint64_t seed = 500;
  for (const std::uint64_t n : {0, 1, 100, 1023, 1024, 1025, 8192, 20000}) {
    for (const bool shared : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "n = " << n << (shared ? ", shared" : ", owned"));
      PageTable streamed_table, filled_table;
      StackDistanceTracker streamed(shared ? &streamed_table : nullptr);
      StackDistanceTracker filled(shared ? &filled_table : nullptr);
      for (std::uint64_t p = 0; p < n; ++p) {
        ASSERT_EQ(streamed.access(p), kColdAccess);
      }
      filled.fill_in_order(n);
      ASSERT_EQ(filled.distinct_pages(), streamed.distinct_pages());
      ASSERT_EQ(filled.total_accesses(), streamed.total_accesses());
      Rng rng(seed++);
      const std::uint64_t page_space = 2 * n + 64;
      for (int i = 0; i < 30000; ++i) {
        const std::uint64_t page = rng.chance(0.5)
                                       ? rng.uniform_index(page_space)
                                       : rng.uniform_index(n / 8 + 16);
        ASSERT_EQ(filled.access(page), streamed.access(page)) << "iter " << i;
      }
      EXPECT_EQ(filled.distinct_pages(), streamed.distinct_pages());
      EXPECT_EQ(filled.total_accesses(), streamed.total_accesses());
    }
  }
}

TEST(StackDistanceTest, FillInOrderPlacesPagesByRecency) {
  StackDistanceTracker t;
  t.fill_in_order(10);
  EXPECT_EQ(t.distinct_pages(), 10u);
  EXPECT_EQ(t.total_accesses(), 10u);
  EXPECT_EQ(t.access(9), 1u);   // the last page filled is at the top
  EXPECT_EQ(t.access(0), 10u);  // the first is at the bottom
  EXPECT_EQ(t.access(10), kColdAccess);

  StackDistanceTracker used;
  used.access(3);
  EXPECT_THROW(used.fill_in_order(4), CheckError);
}

// LRU's inclusion property after a warm start (paper Fig. 3): once a
// tracker and LRU caches of several capacities are filled with the data set
// in page order, every read of a synthesized trace misses in a cache exactly
// when the tracker's depth exceeds that cache's capacity. A wrong closed
// form on either side breaks the equivalence — and it is the prediction
// the joint manager sizes memory by.
TEST(StackDistanceTest, WarmStartInclusionPredictsEveryLruMiss) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(64);
  w.byte_rate = 8e6;
  w.popularity = 0.1;
  w.duration_s = 120.0;
  w.page_bytes = 64 * kKiB;
  w.temporal_locality = 0.5;
  w.seed = 21;
  const workload::Trace trace = workload::synthesize_trace(w);
  const std::uint64_t n = trace.total_pages;
  ASSERT_GT(n, 64u);
  ASSERT_GT(trace.size(), 10000u);

  StackDistanceTracker tracker;
  tracker.fill_in_order(n);
  constexpr std::uint64_t kFramesPerBank = 16;
  const std::uint64_t physical =
      (2 * n + kFramesPerBank - 1) / kFramesPerBank * kFramesPerBank;
  std::vector<std::unique_ptr<LruCache>> caches;
  for (const std::uint64_t capacity : {n / 4, n / 2, n, 2 * n}) {
    caches.push_back(std::make_unique<LruCache>(
        LruCacheOptions{physical, kFramesPerBank, capacity}));
    caches.back()->fill_in_order(n);
  }
  std::vector<std::uint64_t> misses(caches.size(), 0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t page = trace.pages[i];
    ASSERT_LT(page, n);
    ASSERT_EQ(trace.flags[i] & workload::kTraceFlagWrite, 0);
    const std::uint64_t depth = tracker.access(page);
    ASSERT_NE(depth, kColdAccess) << "event " << i;
    for (std::size_t c = 0; c < caches.size(); ++c) {
      const bool miss = !caches[c]->lookup(page).has_value();
      ASSERT_EQ(miss, depth > caches[c]->capacity())
          << "event " << i << ", capacity " << caches[c]->capacity();
      if (miss) {
        caches[c]->insert(page);
        ++misses[c];
      }
    }
  }
  // Misses fall as capacity grows; a cache holding the whole data set
  // never misses after the warm start.
  EXPECT_GT(misses[0], misses[1]);
  EXPECT_GE(misses[1], misses[2]);
  EXPECT_EQ(misses[2], 0u);
  EXPECT_EQ(misses[3], 0u);
}

}  // namespace
}  // namespace jpm::cache
