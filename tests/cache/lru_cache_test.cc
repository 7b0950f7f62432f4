#include "jpm/cache/lru_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "jpm/util/check.h"
#include "jpm/util/rng.h"

namespace jpm::cache {
namespace {

LruCacheOptions small_options(std::uint64_t capacity = 4) {
  return LruCacheOptions{/*total_frames=*/16, /*frames_per_bank=*/4,
                         /*capacity_frames=*/capacity};
}

TEST(LruCacheTest, MissOnEmpty) {
  LruCache c(small_options());
  EXPECT_FALSE(c.lookup(1).has_value());
  EXPECT_EQ(c.size(), 0u);
}

TEST(LruCacheTest, InsertThenHit) {
  LruCache c(small_options());
  c.insert(1);
  const auto r = c.lookup(1);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->hit);
  EXPECT_EQ(c.size(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache c(small_options(2));
  c.insert(1);
  c.insert(2);
  c.lookup(1);   // 1 becomes MRU
  c.insert(3);   // evicts 2
  EXPECT_TRUE(c.lookup(1).has_value());
  EXPECT_FALSE(c.lookup(2).has_value());
  EXPECT_TRUE(c.lookup(3).has_value());
  EXPECT_EQ(c.size(), 2u);
}

TEST(LruCacheTest, LruOrderReflectsAccesses) {
  LruCache c(small_options());
  c.insert(1);
  c.insert(2);
  c.insert(3);
  c.lookup(1);
  EXPECT_EQ(c.lru_order(), (std::vector<PageId>{1, 3, 2}));
}

TEST(LruCacheTest, ShrinkEvictsTail) {
  LruCache c(small_options(4));
  for (PageId p = 1; p <= 4; ++p) c.insert(p);
  c.set_capacity(2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(c.lookup(4).has_value());
  EXPECT_TRUE(c.lookup(3).has_value());
  EXPECT_FALSE(c.lookup(1).has_value());
  EXPECT_FALSE(c.lookup(2).has_value());
}

TEST(LruCacheTest, GrowKeepsContents) {
  LruCache c(small_options(2));
  c.insert(1);
  c.insert(2);
  c.set_capacity(8);
  EXPECT_TRUE(c.lookup(1).has_value());
  EXPECT_TRUE(c.lookup(2).has_value());
}

TEST(LruCacheTest, InsertAtZeroCapacityThrows) {
  LruCache c(small_options(1));
  c.set_capacity(0);
  EXPECT_THROW(c.insert(9), CheckError);
}

TEST(LruCacheTest, AllocationPrefersWarmBanks) {
  // 4 frames per bank: the first 4 inserts must land in one bank.
  LruCache c(small_options(8));
  std::unordered_set<BankIndex> banks;
  for (PageId p = 0; p < 4; ++p) banks.insert(c.insert(p).bank);
  EXPECT_EQ(banks.size(), 1u);
  // Next insert opens a second bank.
  banks.insert(c.insert(10).bank);
  EXPECT_EQ(banks.size(), 2u);
}

TEST(LruCacheTest, BankPopulationTracksResidency) {
  LruCache c(small_options(8));
  std::vector<BankIndex> b;
  for (PageId p = 0; p < 6; ++p) b.push_back(c.insert(p).bank);
  std::uint64_t total = 0;
  for (BankIndex i = 0; i < c.bank_count(); ++i) total += c.bank_population(i);
  EXPECT_EQ(total, 6u);
}

TEST(LruCacheTest, InvalidateBankDropsItsPagesOnly) {
  LruCache c(small_options(8));
  std::vector<std::pair<PageId, BankIndex>> placed;
  for (PageId p = 0; p < 8; ++p) placed.emplace_back(p, c.insert(p).bank);
  const BankIndex victim = placed[0].second;
  std::uint64_t expected_drop = 0;
  for (auto& [page, bank] : placed) expected_drop += bank == victim;
  EXPECT_EQ(c.invalidate_bank(victim), expected_drop);
  for (auto& [page, bank] : placed) {
    EXPECT_EQ(c.lookup(page).has_value(), bank != victim) << "page " << page;
  }
  EXPECT_EQ(c.bank_population(victim), 0u);
}

TEST(LruCacheTest, ReuseAfterInvalidation) {
  LruCache c(small_options(8));
  for (PageId p = 0; p < 8; ++p) c.insert(p);
  c.invalidate_bank(0);
  // Cache keeps working; freed frames get reused.
  for (PageId p = 100; p < 104; ++p) c.insert(p);
  EXPECT_EQ(c.size(), 8u);
  for (PageId p = 100; p < 104; ++p) EXPECT_TRUE(c.lookup(p).has_value());
}

TEST(LruCacheTest, HitMovesPageWithoutChangingBank) {
  LruCache c(small_options(4));
  const auto placed = c.insert(7);
  for (int i = 0; i < 5; ++i) {
    const auto r = c.lookup(7);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->bank, placed.bank);
  }
}

TEST(LruCacheTest, RejectsBadGeometry) {
  EXPECT_THROW(LruCache(LruCacheOptions{0, 4, 0}), CheckError);
  EXPECT_THROW(LruCache(LruCacheOptions{16, 0, 4}), CheckError);
  EXPECT_THROW(LruCache(LruCacheOptions{16, 4, 32}), CheckError);
  EXPECT_THROW(LruCache(LruCacheOptions{15, 4, 4}), CheckError);  // ragged bank
}

TEST(LruCacheDirtyTest, MarkAndQuery) {
  LruCache c(small_options());
  c.insert(1);
  EXPECT_FALSE(c.is_dirty(1));
  c.mark_dirty(1);
  EXPECT_TRUE(c.is_dirty(1));
  EXPECT_EQ(c.dirty_count(), 1u);
  EXPECT_FALSE(c.is_dirty(99));  // absent page is not dirty
}

TEST(LruCacheDirtyTest, MarkDirtyOnAbsentPageThrows) {
  LruCache c(small_options());
  EXPECT_THROW(c.mark_dirty(5), CheckError);
}

TEST(LruCacheDirtyTest, TakeDirtyReturnsSortedAndClears) {
  LruCache c(small_options(8));
  for (PageId p : {5, 1, 9, 3}) {
    c.insert(p);
    c.mark_dirty(p);
  }
  c.insert(7);  // clean
  std::vector<PageId> dirty;
  c.take_dirty_pages(&dirty);
  EXPECT_EQ(dirty, (std::vector<PageId>{1, 3, 5, 9}));
  EXPECT_EQ(c.dirty_count(), 0u);
  EXPECT_FALSE(c.is_dirty(5));
  // The scratch vector is cleared before refilling, so a second drain with
  // the same buffer comes back empty.
  c.take_dirty_pages(&dirty);
  EXPECT_TRUE(dirty.empty());
}

TEST(LruCacheDirtyTest, DoubleMarkCountsOnce) {
  LruCache c(small_options());
  c.insert(4);
  c.mark_dirty(4);
  c.mark_dirty(4);
  EXPECT_EQ(c.dirty_count(), 1u);
  std::vector<PageId> dirty;
  c.take_dirty_pages(&dirty);
  EXPECT_EQ(dirty.size(), 1u);
}

TEST(LruCacheDirtyTest, EvictionReportsDirtyVictim) {
  LruCache c(small_options(2));
  c.insert(1);
  c.mark_dirty(1);
  c.insert(2);
  const auto out = c.insert(3);  // evicts 1 (LRU), which is dirty
  EXPECT_TRUE(out.evicted);
  EXPECT_EQ(out.evicted_page, 1u);
  EXPECT_TRUE(out.evicted_dirty);
  EXPECT_EQ(c.dirty_count(), 0u);  // the dirty page left the cache
}

TEST(LruCacheDirtyTest, CleanVictimReportedClean) {
  LruCache c(small_options(1));
  c.insert(1);
  const auto out = c.insert(2);
  EXPECT_TRUE(out.evicted);
  EXPECT_FALSE(out.evicted_dirty);
}

TEST(LruCacheDirtyTest, ShrinkCollectsDirtyVictims) {
  LruCache c(small_options(4));
  for (PageId p = 1; p <= 4; ++p) c.insert(p);
  c.mark_dirty(1);
  c.mark_dirty(2);
  std::vector<PageId> dirty;
  c.set_capacity(1, &dirty);  // evicts 1, 2, 3 (LRU order)
  EXPECT_EQ(dirty, (std::vector<PageId>{1, 2}));
}

TEST(LruCacheDirtyTest, InvalidateBankCollectsDirtyVictims) {
  LruCache c(small_options(8));
  std::vector<std::pair<PageId, BankIndex>> placed;
  for (PageId p = 0; p < 8; ++p) placed.emplace_back(p, c.insert(p).bank);
  const BankIndex victim = placed[0].second;
  for (auto& [page, bank] : placed) {
    if (bank == victim) c.mark_dirty(page);
  }
  std::vector<PageId> dirty;
  c.invalidate_bank(victim, &dirty);
  std::uint64_t expected = 0;
  for (auto& [page, bank] : placed) expected += bank == victim;
  EXPECT_EQ(dirty.size(), expected);
}

TEST(LruCacheDirtyTest, RecycledFrameDoesNotResurrectDirtyFlag) {
  LruCache c(small_options(1));
  c.insert(1);
  c.mark_dirty(1);
  c.insert(2);  // evicts dirty 1; frame reused for clean 2
  EXPECT_FALSE(c.is_dirty(2));
  std::vector<PageId> dirty;
  c.take_dirty_pages(&dirty);
  EXPECT_TRUE(dirty.empty());
}

// Property: against a naive reference LRU across random operations.
TEST(LruCacheTest, RandomizedAgainstReference) {
  LruCacheOptions opt{64, 8, 16};
  LruCache c(opt);
  std::vector<PageId> ref;  // front = MRU
  Rng rng(5);
  auto ref_lookup = [&](PageId p) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (ref[i] == p) {
        ref.erase(ref.begin() + static_cast<long>(i));
        ref.insert(ref.begin(), p);
        return true;
      }
    }
    return false;
  };
  std::uint64_t capacity = 16;
  for (int iter = 0; iter < 20000; ++iter) {
    if (rng.chance(0.02)) {
      capacity = 1 + rng.uniform_index(32);
      c.set_capacity(capacity);
      while (ref.size() > capacity) ref.pop_back();
      continue;
    }
    const PageId p = rng.uniform_index(64);
    const bool hit = c.lookup(p).has_value();
    const bool ref_hit = ref_lookup(p);
    ASSERT_EQ(hit, ref_hit) << "iter " << iter;
    if (!hit) {
      if (ref.size() == capacity) ref.pop_back();
      ref.insert(ref.begin(), p);
      c.insert(p);
    }
    ASSERT_EQ(c.size(), ref.size());
    ASSERT_EQ(c.lru_order(), ref);
  }
}

// ---- Closed-form warm start ------------------------------------------------
//
// fill_in_order(n) must leave exactly the state that streaming insert(0), ...,
// insert(n - 1) through a fresh cache leaves. The streamed loop is the
// oracle: both caches are compared directly, then driven through one random
// operation sequence whose outcomes depend on every free list and on the
// warm and cold bank stacks.

struct FillShape {
  const char* name;
  std::uint64_t total_frames;
  std::uint64_t frames_per_bank;
  std::uint64_t capacity;
  std::uint64_t n;
};

const FillShape kFillShapes[] = {
    {"n = 0", 64, 8, 40, 0},
    {"n < capacity, ragged bank", 64, 8, 40, 21},
    {"n = capacity", 64, 8, 40, 40},
    {"n = 2.5 x capacity", 64, 8, 40, 100},
    {"capacity not whole banks", 64, 8, 29, 73},
    {"capacity not whole banks, n < capacity", 64, 8, 29, 27},
    {"capacity = physical", 64, 8, 64, 150},
    {"one frame per bank", 32, 1, 12, 30},
};

// One cache plus, in shared mode, the external table it resolves through.
struct CacheUnderTest {
  CacheUnderTest(const FillShape& s, bool shared)
      : table(shared ? std::make_unique<PageTable>() : nullptr),
        cache(LruCacheOptions{s.total_frames, s.frames_per_bank, s.capacity},
              table.get()) {}
  std::unique_ptr<PageTable> table;
  LruCache cache;
};

void expect_same_state(const LruCache& a, const LruCache& b,
                       std::uint64_t page_space) {
  ASSERT_EQ(a.lru_order(), b.lru_order());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.capacity(), b.capacity());
  for (BankIndex k = 0; k < a.bank_count(); ++k) {
    ASSERT_EQ(a.bank_population(k), b.bank_population(k)) << "bank " << k;
  }
  for (PageId p = 0; p < page_space; ++p) {
    ASSERT_EQ(a.contains(p), b.contains(p)) << "page " << p;
  }
}

void expect_same_insert(const InsertOutcome& a, const InsertOutcome& b) {
  ASSERT_EQ(a.bank, b.bank);
  ASSERT_EQ(a.frame, b.frame);
  ASSERT_EQ(a.evicted, b.evicted);
  ASSERT_EQ(a.evicted_page, b.evicted_page);
  ASSERT_EQ(a.evicted_dirty, b.evicted_dirty);
}

// Drives both caches through one seeded sequence of lookups and inserts,
// capacity changes, dirty marks, drains and bank invalidations (used and
// never-used banks alike), requiring identical outcomes at every step.
void drive_identically(LruCache& a, LruCache& b, std::uint64_t page_space,
                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> dirty_a, dirty_b;
  for (int iter = 0; iter < 4000; ++iter) {
    SCOPED_TRACE(::testing::Message() << "iter " << iter);
    const double op = rng.uniform();
    if (op < 0.03) {
      const std::uint64_t frames = 1 + rng.uniform_index(a.total_frames());
      dirty_a.clear();
      dirty_b.clear();
      a.set_capacity(frames, &dirty_a);
      b.set_capacity(frames, &dirty_b);
      ASSERT_EQ(dirty_a, dirty_b);
    } else if (op < 0.05) {
      const auto bank =
          static_cast<BankIndex>(rng.uniform_index(a.bank_count()));
      dirty_a.clear();
      dirty_b.clear();
      ASSERT_EQ(a.invalidate_bank(bank, &dirty_a),
                b.invalidate_bank(bank, &dirty_b));
      ASSERT_EQ(dirty_a, dirty_b);
    } else if (op < 0.06) {
      a.take_dirty_pages(&dirty_a);
      b.take_dirty_pages(&dirty_b);
      ASSERT_EQ(dirty_a, dirty_b);
    } else if (op < 0.20) {
      const PageId p = rng.uniform_index(page_space);
      ASSERT_EQ(a.contains(p), b.contains(p));
      if (a.contains(p)) {
        a.mark_dirty(p);
        b.mark_dirty(p);
      }
    } else {
      const PageId p = rng.uniform_index(page_space);
      const auto hit_a = a.lookup(p);
      const auto hit_b = b.lookup(p);
      ASSERT_EQ(hit_a.has_value(), hit_b.has_value()) << "page " << p;
      if (hit_a) {
        ASSERT_EQ(hit_a->bank, hit_b->bank);
      } else {
        ASSERT_NO_FATAL_FAILURE(expect_same_insert(a.insert(p), b.insert(p)));
      }
    }
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.dirty_count(), b.dirty_count());
  }
  expect_same_state(a, b, page_space);
}

TEST(LruCacheFillTest, MatchesStreamedInserts) {
  std::uint64_t seed = 1;
  for (const FillShape& shape : kFillShapes) {
    for (const bool shared : {false, true}) {
      SCOPED_TRACE(::testing::Message() << shape.name
                                        << (shared ? ", shared" : ", owned"));
      CacheUnderTest streamed(shape, shared);
      CacheUnderTest filled(shape, shared);
      for (PageId p = 0; p < shape.n; ++p) streamed.cache.insert(p);
      filled.cache.fill_in_order(shape.n);
      const std::uint64_t page_space = 2 * shape.n + 2 * shape.total_frames;
      ASSERT_NO_FATAL_FAILURE(
          expect_same_state(streamed.cache, filled.cache, page_space));
      EXPECT_EQ(filled.cache.size(), std::min(shape.n, shape.capacity));
      ASSERT_NO_FATAL_FAILURE(drive_identically(
          streamed.cache, filled.cache, page_space, seed++));
    }
  }
}

TEST(LruCacheFillTest, ResidentPagesSitAtPageModCapacity) {
  // 2.5 x capacity: pages 60..99 resident, 99 at MRU, 60 at LRU, and page
  // p's frame (reported back through the bank of a hit) is p % 40.
  LruCache c(LruCacheOptions{64, 8, 40});
  c.fill_in_order(100);
  const auto order = c.lru_order();
  ASSERT_EQ(order.size(), 40u);
  EXPECT_EQ(order.front(), 99u);
  EXPECT_EQ(order.back(), 60u);
  for (PageId p = 60; p < 100; ++p) {
    const auto hit = c.lookup(p);
    ASSERT_TRUE(hit.has_value()) << "page " << p;
    EXPECT_EQ(hit->bank, (p % 40) / 8) << "page " << p;
  }
  EXPECT_FALSE(c.contains(59));
  for (BankIndex b = 0; b < 5; ++b) EXPECT_EQ(c.bank_population(b), 8u);
  for (BankIndex b = 5; b < 8; ++b) EXPECT_EQ(c.bank_population(b), 0u);
}

TEST(LruCacheFillTest, TotalFramesReportsPhysicalMemory) {
  // Frame nodes exist only for the banks in use; the physical count is
  // what set_capacity checks against and what callers size by.
  LruCache c(LruCacheOptions{/*total_frames=*/1024, /*frames_per_bank=*/16,
                             /*capacity_frames=*/1024});
  EXPECT_EQ(c.total_frames(), 1024u);
  c.fill_in_order(20);  // two banks in use
  EXPECT_EQ(c.total_frames(), 1024u);
  EXPECT_EQ(c.bank_count(), 64u);
  c.set_capacity(1024);  // the whole physical memory stays addressable
  for (PageId p = 20; p < 1024; ++p) c.insert(p);
  EXPECT_EQ(c.size(), 1024u);
  EXPECT_EQ(c.total_frames(), 1024u);
  EXPECT_THROW(c.set_capacity(1025), CheckError);
}

TEST(LruCacheFillTest, NeverUsedBankInvalidatesToNothing) {
  LruCache c(small_options(16));
  c.fill_in_order(6);  // banks 0 and 1 in use; 2 and 3 never were
  const auto before = c.lru_order();
  EXPECT_EQ(c.invalidate_bank(3), 0u);
  EXPECT_EQ(c.invalidate_bank(2), 0u);
  EXPECT_EQ(c.lru_order(), before);
  EXPECT_EQ(c.invalidate_bank(1), 2u);
  EXPECT_EQ(c.size(), 4u);
}

TEST(LruCacheFillTest, RefusesAUsedCacheAndZeroCapacity) {
  LruCache used(small_options());
  used.insert(3);
  EXPECT_THROW(used.fill_in_order(4), CheckError);

  // Like the first streamed insert, a fill into a zero-capacity cache fails;
  // an empty fill does nothing.
  LruCache empty(small_options(1));
  empty.set_capacity(0);
  empty.fill_in_order(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_THROW(empty.fill_in_order(1), CheckError);
}

}  // namespace
}  // namespace jpm::cache
