// O(log n) LRU stack-distance tracking (Bennett–Kruskal algorithm).
//
// This is the engine behind the paper's extended LRU list (Fig. 3): for every
// access it yields the page's depth in an unbounded LRU stack — the number of
// distinct pages referenced since the previous access to the same page, plus
// one. By LRU's inclusion property, the access would hit in any cache of
// capacity >= depth and miss in any smaller one, so a histogram of depths
// predicts the number of disk accesses at every candidate memory size without
// rerunning the workload.
//
// Implementation: each access occupies a time slot; a wide-fanout counter
// tree (util/counter_tree.h) marks the slots that are the *most recent*
// access of some page. The depth of a re-access equals the count of marked
// slots after the page's previous slot, which is the number of live slots
// minus the rank through it — one fused rank-and-clear descent touching
// 3-4 cache lines, versus the ~20 scattered nodes of the binary Fenwick
// tree this replaced. Slots are compacted when the array grows past eight
// times the live page count.
//
// The page -> slot map lives in a PageTable (the `slot` half of each
// PageEntry). By default the tracker owns a private table; the engine
// instead passes the table it shares with the LRU cache and resolves each
// page once per access, calling access_at() with the entry in hand.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "jpm/cache/page_table.h"
#include "jpm/util/counter_tree.h"

namespace jpm::cache {

// Depth reported for the first access to a page (compulsory / cold miss).
inline constexpr std::uint64_t kColdAccess = ~std::uint64_t{0};

class StackDistanceTracker {
 public:
  // With no argument the tracker owns its page table; a non-null `shared`
  // table lets callers fuse the page lookup with other per-page state (the
  // engine shares one table between this tracker and its LruCache).
  explicit StackDistanceTracker(PageTable* shared = nullptr);

  // Records an access and returns the page's LRU stack depth (1 = MRU
  // re-access) or kColdAccess for a first-ever reference.
  std::uint64_t access(std::uint64_t page);

  // Same, for a caller that already resolved the page's entry in the shared
  // table — the fused hot path; no table lookup happens here. Defined
  // inline: this plus the lookup is the whole per-event cost of prediction,
  // and the counter-tree descent inlines into the engine loop.
  JPM_FORCE_INLINE std::uint64_t access_at(PageEntry& entry) {
    ++total_accesses_;
    if (next_slot_ == tree_.size()) compact();

    std::uint64_t depth = kColdAccess;
    const std::size_t slot = next_slot_++;
    if (entry.slot != kNoSlot) {
      // Marked slots strictly after prev are pages touched since; +1 for the
      // page itself (depth 1 == immediate re-access). Every live page has
      // exactly one marked slot, so the count after prev is the live total
      // minus the rank through prev — one fused descent (rank_move) that
      // consumes prev's mark and plants the new slot's in the same walk
      // (the append slot is always past every marked slot).
      depth = live_pages_ - tree_.rank_move(entry.slot, slot) + 1;
    } else {
      ++live_pages_;
      tree_.set(slot);
    }
    entry.slot = static_cast<std::uint32_t>(slot);
    return depth;
  }

  // The warm start: builds, on a fresh tracker, exactly the state that
  // access(0), access(1), ..., access(n - 1) would leave — page p in slot p,
  // every page live — without walking the tree per page.
  void fill_in_order(std::uint64_t n);

  // Hints the lines a future access(page) will touch, assuming
  // `lanes_ahead` accesses happen first: the page's table entry plus the
  // predicted append-slot tree lines. With a large page table the entry's
  // line is the long pole — issuing it a few accesses early lets several
  // entry misses be in flight at once instead of serializing. Advisory: a
  // compaction between the hint and the access only makes the hint useless,
  // never wrong.
  void prefetch_page(std::uint64_t page, std::size_t lanes_ahead) const {
    table_->prefetch(page);
    tree_.prefetch(next_slot_ + lanes_ahead);
  }

  // Number of distinct pages seen so far.
  std::uint64_t distinct_pages() const { return live_pages_; }
  std::uint64_t total_accesses() const { return total_accesses_; }

 private:
  void compact();
  // Resizes the tree for `live` pages and marks slots [0, live).
  void reset_tree(std::uint64_t live);

  CounterTree tree_;
  std::unique_ptr<PageTable> owned_table_;  // null when sharing
  PageTable* table_;  // page -> slot lives in each entry's `slot` half
  std::vector<PageEntry*> by_slot_;  // compact() scratch, reused across calls
  std::size_t next_slot_ = 0;
  std::uint64_t live_pages_ = 0;
  std::uint64_t total_accesses_ = 0;
};

}  // namespace jpm::cache
