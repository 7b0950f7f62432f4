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
// One FlatMap probe per access hands the engine both the cache residency
// check and the stack-distance bookkeeping. LruCache and
// StackDistanceTracker each accept a shared PageTable (owning a private one
// otherwise), touching only their half of the entry; an entry is physically
// erased only when both halves are vacant, so a tracker that still holds a
// slot for an evicted page keeps its entry — and, in fused runs, entries
// are never erased at all, which keeps entry pointers stable across
// evictions within an event.
//
// Nothing here exposes iteration order to simulation results: every
// consumer either probes by key or sorts what it collects (see
// StackDistanceTracker::compact), so swapping the map implementation leaves
// all outputs byte-identical.
#pragma once

#include <cstdint>

#include "jpm/util/flat_map.h"

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
  PageEntry* find(PageId page) { return map_.find(page); }
  const PageEntry* find(PageId page) const { return map_.find(page); }

  // Returns the entry for `page`, creating a vacant one when absent. The
  // pointer stays valid until the next insert or physical erase.
  PageEntry* find_or_insert(PageId page) { return map_.find_or_insert(page); }

  // Physically removes the entry (backward-shift; may relocate other
  // entries). Callers must only erase entries that are vacant.
  void erase(PageId page) { map_.erase(page); }

  // Hints the page's home slot into cache ahead of a find/find_or_insert.
  // Advisory.
  void prefetch(PageId page) const { map_.prefetch(page); }

  void reserve(std::size_t pages) { map_.reserve(pages); }
  std::size_t size() const { return map_.size(); }

  // Unspecified order; callers needing determinism sort what they collect.
  template <typename F>
  void for_each(F&& f) {
    map_.for_each(static_cast<F&&>(f));
  }
  template <typename F>
  void for_each(F&& f) const {
    map_.for_each(static_cast<F&&>(f));
  }

 private:
  util::FlatMap<PageEntry> map_;
};

}  // namespace jpm::cache
