// The shared page table behind the per-event hot loop.
//
// A joint-policy run resolves every accessed page twice: once in the LRU
// cache (page -> frame) and once in the stack-distance tracker
// (page -> slot). Both maps key on the same page id, so the engine fuses
// them into one PageTable whose entries carry both halves:
//
//   frame  — the resident frame index, or kNoFrame when not cached
//   slot   — the page's most recent slot in the extended LRU list, or
//            kNoSlot before its first tracked access
//
// One lookup per access hands the engine both the cache residency check and
// the stack-distance bookkeeping. LruCache and StackDistanceTracker each
// accept a shared PageTable (owning a private one otherwise), touching only
// their half of the entry.
//
// Storage is dense: the entry for page p is element p % kBlockEntries of
// block p / kBlockEntries. A block is allocated the first time one of its
// pages is inserted, so a table costs 8 bytes per page of the blocks it
// touched — a whole data set once a tracker has slotted every page, the
// resident pages after a cache-only warm start, one or two blocks for a
// cluster shard whose partition is one or two extents. Entries never move
// and are never freed before the table is, so a PageEntry* stays valid for
// the table's lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "jpm/util/check.h"
#include "jpm/util/prefetch.h"

namespace jpm::cache {

using PageId = std::uint64_t;
using FrameIndex = std::uint32_t;

inline constexpr FrameIndex kNoFrame = ~FrameIndex{0};
inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

struct PageEntry {
  FrameIndex frame = kNoFrame;  // LruCache's half
  std::uint32_t slot = kNoSlot;  // StackDistanceTracker's half

  bool vacant() const { return frame == kNoFrame && slot == kNoSlot; }
};

class PageTable {
 public:
  // Entries per block: 512 x 8 bytes = one 4 kB page of memory.
  static constexpr std::size_t kBlockEntries = 512;
  // Page ids at or past this bound are rejected. The engine refuses a data
  // set larger than this before it builds anything: the tracker's u32 slot
  // space could not hold every page of a prefilled run.
  static constexpr std::uint64_t kMaxPages = std::uint64_t{1} << 32;

  // The page's entry, or null when no page of its block was ever inserted
  // (a null and a vacant entry mean the same).
  PageEntry* find(PageId page) {
    const std::uint64_t b = page / kBlockEntries;
    if (b >= blocks_.size() || blocks_[b] == nullptr) return nullptr;
    return &blocks_[b][page % kBlockEntries];
  }
  const PageEntry* find(PageId page) const {
    return const_cast<PageTable*>(this)->find(page);
  }

  // Returns the entry for `page`, allocating its block (vacant entries)
  // when absent.
  PageEntry* find_or_insert(PageId page) {
    if (PageEntry* e = find(page)) [[likely]] return e;
    return add_block(page / kBlockEntries) + page % kBlockEntries;
  }

  // Hints the page's entry into cache ahead of a find/find_or_insert.
  // Advisory; a page whose block does not exist yet is not hinted.
  void prefetch(PageId page) const {
    if (const PageEntry* e = find(page)) util::prefetch_read(e);
  }

  // Visits every non-vacant entry once, in ascending page order.
  template <typename F>
  void for_each(F&& f) {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      PageEntry* block = blocks_[b].get();
      if (block == nullptr) continue;
      for (std::size_t i = 0; i < kBlockEntries; ++i) {
        if (!block[i].vacant()) f(PageId{b * kBlockEntries + i}, block[i]);
      }
    }
  }

 private:
  PageEntry* add_block(std::uint64_t b) {
    JPM_CHECK_MSG(b < kMaxPages / kBlockEntries,
                  "page id past the page table's range");
    if (b >= blocks_.size()) blocks_.resize(b + 1);
    blocks_[b] = std::make_unique<PageEntry[]>(kBlockEntries);
    return blocks_[b].get();
  }

  std::vector<std::unique_ptr<PageEntry[]>> blocks_;
};

}  // namespace jpm::cache
