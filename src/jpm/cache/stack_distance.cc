#include "jpm/cache/stack_distance.h"

#include <algorithm>

#include "jpm/util/check.h"

namespace jpm::cache {
namespace {
constexpr std::size_t kInitialSlots = 1024;
}

StackDistanceTracker::StackDistanceTracker(PageTable* shared)
    : tree_(kInitialSlots) {
  if (shared != nullptr) {
    table_ = shared;
  } else {
    owned_table_ = std::make_unique<PageTable>();
    table_ = owned_table_.get();
  }
}

std::uint64_t StackDistanceTracker::access(std::uint64_t page) {
  // The append slot is known before the page is: hint its lines in so the
  // tree walk overlaps the table probe's miss instead of following it.
  tree_.prefetch(next_slot_);
  return access_at(*table_->find_or_insert(page));
}

void StackDistanceTracker::fill_in_order(std::uint64_t n) {
  JPM_CHECK_MSG(total_accesses_ == 0, "fill_in_order needs a fresh tracker");
  // Streamed, the tracker would be at whatever size its compactions left;
  // the tree's size never shows in a depth (see compact()), so size it as a
  // compaction of n live pages would.
  reset_tree(n);
  for (std::uint64_t p = 0; p < n; ++p) {
    table_->find_or_insert(p)->slot = static_cast<std::uint32_t>(p);
  }
  live_pages_ = n;
  next_slot_ = n;
  total_accesses_ = n;
}

void StackDistanceTracker::compact() {
  // Rebuild with only the live (most recent per page) slots, preserving
  // relative order; size to 8x live so compactions are amortized O(1). The
  // live set is read straight off the page table — every entry with a slot
  // is live by construction. The table iterates in page order, not slot
  // order, so entries are scattered into a slot-indexed array (old slots
  // are unique in [0, next_slot_)) and then renumbered in ascending slot
  // order: comparison-free, unlike a sort.
  //
  // The ascending walk follows the tree's leaf bitmap, not the scatter
  // array: live entries and marked slots are in bijection, so every marked
  // slot's by_slot_ cell was just written and stale cells (dead slots from
  // earlier compactions) are never read. That makes clearing the scatter
  // array unnecessary — the old per-compact memset of next_slot_ pointers
  // was a measurable slice of the replay profile.
  by_slot_.resize(next_slot_);
  std::uint64_t live = 0;
  table_->for_each([&](PageId /*page*/, PageEntry& entry) {
    if (entry.slot != kNoSlot) {
      by_slot_[entry.slot] = &entry;
      ++live;
    }
  });
  JPM_CHECK(live == live_pages_);

  std::size_t fresh = 0;
  tree_.for_each_set([this, &fresh](std::size_t slot) {
    by_slot_[slot]->slot = static_cast<std::uint32_t>(fresh);
    ++fresh;
  });
  JPM_CHECK(fresh == live);
  next_slot_ = fresh;
  reset_tree(live);
}

void StackDistanceTracker::reset_tree(std::uint64_t live) {
  // 8x live: each rebuild buys 7x live accesses before the next one, and
  // compaction timing is invisible to results (depths depend only on the
  // relative order of marked slots, which renumbering preserves) — so the
  // factor is purely a cost knob: doubling it from 4x halved the compaction
  // share of the replay profile for a doubling of the (small) tree arrays.
  const std::size_t new_size =
      std::max<std::size_t>(kInitialSlots, static_cast<std::size_t>(live) * 8);
  JPM_CHECK_MSG(new_size < kNoSlot, "stack-distance slot space exhausted");
  // Slots [0, live) are all marked — build that tree in one O(new_size)
  // pass rather than live individual set() walks.
  tree_.reset_ones_prefix(new_size, live);
}

}  // namespace jpm::cache
