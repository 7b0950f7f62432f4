#include "jpm/cache/page_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "jpm/util/check.h"
#include "jpm/util/rng.h"

namespace jpm::cache {
namespace {

constexpr PageId kBlock = PageTable::kBlockEntries;

// The entry as a reader sees it: a null entry reads as vacant.
PageEntry read(const PageTable& table, PageId page) {
  const PageEntry* e = table.find(page);
  return e == nullptr ? PageEntry{} : *e;
}

std::map<PageId, PageEntry> visited(PageTable& table) {
  std::map<PageId, PageEntry> seen;
  PageId prev = 0;
  bool first = true;
  table.for_each([&](PageId page, PageEntry& entry) {
    EXPECT_FALSE(entry.vacant()) << "page " << page;
    EXPECT_TRUE(first || page > prev) << "page " << page << " after " << prev;
    EXPECT_TRUE(seen.emplace(page, entry).second) << "page " << page;
    prev = page;
    first = false;
  });
  return seen;
}

TEST(PageTableTest, StartsEmpty) {
  PageTable table;
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(kBlock), nullptr);
  table.prefetch(0);  // advisory: safe on an untouched block
  EXPECT_TRUE(visited(table).empty());
}

TEST(PageTableTest, InsertAllocatesOnlyItsBlock) {
  PageTable table;
  PageEntry* e = table.find_or_insert(kBlock + 1);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->vacant());
  // Same block: a vacant entry; other blocks: still untouched.
  ASSERT_NE(table.find(kBlock), nullptr);
  EXPECT_TRUE(table.find(2 * kBlock - 1)->vacant());
  EXPECT_EQ(table.find(kBlock - 1), nullptr);
  EXPECT_EQ(table.find(2 * kBlock), nullptr);
  EXPECT_EQ(table.find_or_insert(kBlock + 1), e);
  EXPECT_TRUE(visited(table).empty());  // vacant entries are not visited
}

TEST(PageTableTest, IndexesTheWholeRangeAndRejectsPastIt) {
  PageTable table;
  const PageId last = PageTable::kMaxPages - 1;
  table.find_or_insert(last)->frame = 5;
  EXPECT_EQ(read(table, last).frame, 5u);
  EXPECT_EQ(table.find(PageTable::kMaxPages), nullptr);
  EXPECT_EQ(table.find(~PageId{0}), nullptr);
  EXPECT_THROW(table.find_or_insert(PageTable::kMaxPages), CheckError);
  EXPECT_THROW(table.find_or_insert(~PageId{0}), CheckError);
  const auto seen = visited(table);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.begin()->first, last);
}

// Random find / find_or_insert / vacate operations against a hash-map
// reference, over a page range that straddles block edges and leaves some
// blocks untouched: pages 0, 511, 512, 513 and the range's last page are
// drawn often, the rest uniformly from the first blocks and one far block.
TEST(PageTableTest, RandomizedDifferentialAgainstUnorderedMap) {
  const std::vector<PageId> edges{0, kBlock - 1, kBlock, kBlock + 1,
                                  40 * kBlock - 1};
  PageTable table;
  std::unordered_map<PageId, PageEntry> ref;  // non-vacant entries only
  Rng rng(2024);
  const auto draw = [&]() -> PageId {
    const double roll = rng.uniform();
    if (roll < 0.3) return edges[rng.uniform_index(edges.size())];
    if (roll < 0.9) return rng.uniform_index(4 * kBlock);
    return 30 * kBlock + rng.uniform_index(kBlock);
  };
  for (int op = 0; op < 200000; ++op) {
    const PageId page = draw();
    const double roll = rng.uniform();
    if (roll < 0.4) {
      const PageEntry got = read(table, page);
      const auto it = ref.find(page);
      const PageEntry want = it == ref.end() ? PageEntry{} : it->second;
      ASSERT_EQ(got.frame, want.frame) << "op " << op << " page " << page;
      ASSERT_EQ(got.slot, want.slot) << "op " << op << " page " << page;
    } else if (roll < 0.8) {
      // Write one half, as LruCache and the tracker each do.
      PageEntry* e = table.find_or_insert(page);
      const auto value = static_cast<std::uint32_t>(rng.uniform_index(1000));
      if (rng.chance(0.5)) {
        e->frame = value;
      } else {
        e->slot = value;
      }
      ref[page] = *e;
    } else if (PageEntry* e = table.find(page)) {
      // Vacate one half or both; an entry with both halves vacant is gone.
      if (rng.chance(0.5)) e->frame = kNoFrame;
      if (rng.chance(0.5)) e->slot = kNoSlot;
      if (e->vacant()) {
        ref.erase(page);
      } else {
        ref[page] = *e;
      }
    }
    if (op % 20000 == 0 || op == 199999) {
      const auto seen = visited(table);
      ASSERT_EQ(seen.size(), ref.size()) << "op " << op;
      for (const auto& [p, entry] : seen) {
        const auto it = ref.find(p);
        ASSERT_NE(it, ref.end()) << "page " << p;
        EXPECT_EQ(entry.frame, it->second.frame) << "page " << p;
        EXPECT_EQ(entry.slot, it->second.slot) << "page " << p;
      }
    }
  }
  EXPECT_EQ(table.find(20 * kBlock), nullptr);  // never drawn
}

// Entries never move: a pointer taken before thousands of inserts across
// new blocks still addresses the same, unchanged entry. LruCache and the
// engine rely on this to hold an entry across an insert.
TEST(PageTableTest, EntryPointersStayValidAcrossInserts) {
  PageTable table;
  PageEntry* early = table.find_or_insert(kBlock + 3);
  early->frame = 7;
  early->slot = 11;
  Rng rng(9);
  for (int i = 0; i < 20000; ++i) {
    PageEntry* e = table.find_or_insert(rng.uniform_index(64 * kBlock));
    if (e != early) e->slot = static_cast<std::uint32_t>(i);
  }
  EXPECT_EQ(table.find(kBlock + 3), early);
  EXPECT_EQ(early->frame, 7u);
  EXPECT_EQ(early->slot, 11u);
}

}  // namespace
}  // namespace jpm::cache
