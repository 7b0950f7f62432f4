// Resizable LRU disk cache with bank-structured frames.
//
// Mirrors the paper's setup: physical memory is an array of frames grouped
// into banks (16 MB each in the paper); the disk cache occupies frames and is
// managed LRU, like Linux's page cache. The cache supports
//   * capacity resizing (the joint method / fixed-memory methods), which
//     evicts LRU pages when shrinking, and
//   * bank invalidation (the "disable" memory policy), which drops every page
//     held in a bank's frames.
// Frame allocation prefers banks that already hold pages, so unused banks can
// stay in deep low-power modes. Never-used banks are handed out in ascending
// order and only once no drained bank is left, so the frames ever used form
// a prefix of physical memory: frame nodes exist for that prefix only,
// growing one bank at a time.
//
// Residency (page -> frame) lives in a PageTable — dense per-page entries —
// as the `frame` half of each PageEntry. By default the cache owns a
// private table; the engine instead passes the table it shares with its
// stack-distance tracker, so one lookup per access resolves both. An
// eviction only clears the victim's `frame` half.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "jpm/cache/page_table.h"
#include "jpm/util/check.h"

namespace jpm::cache {

using BankIndex = std::uint32_t;

struct LruCacheOptions {
  std::uint64_t total_frames = 0;     // physical memory, in frames
  std::uint64_t frames_per_bank = 0;  // bank granularity, in frames
  std::uint64_t capacity_frames = 0;  // initial logical capacity
};

struct AccessOutcome {
  bool hit = false;
  BankIndex bank = 0;  // bank of the touched/allocated frame
};

struct InsertOutcome {
  BankIndex bank = 0;       // bank that received the page
  FrameIndex frame = kNoFrame;  // frame that received the page
  bool evicted = false;     // an LRU victim was pushed out
  PageId evicted_page = 0;
  bool evicted_dirty = false;  // the victim needs writing back to disk
};

class LruCache {
 public:
  // A non-null `shared` table fuses residency with other per-page state;
  // otherwise the cache owns a private table.
  explicit LruCache(const LruCacheOptions& options,
                    PageTable* shared = nullptr);

  // Looks up a page; on hit moves it to the MRU position. Does NOT insert.
  std::optional<AccessOutcome> lookup(PageId page);

  // The fused hot path: promotes an already-resolved resident frame (a
  // PageEntry's non-kNoFrame `frame` half) to MRU. No table lookup happens;
  // inline so the list splice fuses into the engine's event loop.
  AccessOutcome touch(FrameIndex f) {
    JPM_DCHECK(nodes_[f].occupied);
    if (f != head_) {
      unlink(f);
      push_front(f);
    }
    return AccessOutcome{true, bank_of(f)};
  }

  // Inserts a page known to be absent, evicting the LRU page when the cache
  // is at capacity. The outcome reports the receiving bank/frame and any
  // victim (with its dirty state, so the caller can write it back).
  InsertOutcome insert(PageId page);

  // The warm start: builds, on a fresh cache, exactly the state that
  // insert(0), insert(1), ..., insert(n - 1) would leave, in O(min(n,
  // capacity)) — the last min(n, capacity) pages resident, page p in frame
  // p % capacity, n - 1 at MRU.
  void fill_in_order(std::uint64_t n);

  // Changes the logical capacity; shrinking evicts LRU pages immediately.
  // Dirty victims are appended to `dirty_out` when provided.
  void set_capacity(std::uint64_t frames,
                    std::vector<PageId>* dirty_out = nullptr);

  // Drops every page resident in the given bank (the DS policy's disable).
  // Returns the number of pages invalidated; dirty victims are appended to
  // `dirty_out` when provided.
  std::uint64_t invalidate_bank(BankIndex bank,
                                std::vector<PageId>* dirty_out = nullptr);

  // Writeback bookkeeping: marks a resident page dirty / queries it / drains
  // every dirty page, clearing the flags — what a periodic flush daemon
  // does. take_dirty_pages fills the caller's scratch vector (cleared first,
  // ascending page order) instead of allocating, so the engine's periodic
  // flush reuses one buffer for the whole run.
  void mark_dirty(PageId page);
  // Same, for a caller that already resolved the page's frame; no probe.
  void mark_dirty_frame(FrameIndex frame);
  bool is_dirty(PageId page) const;
  void take_dirty_pages(std::vector<PageId>* out);
  std::uint64_t dirty_count() const { return dirty_count_; }

  std::uint64_t size() const { return size_; }
  std::uint64_t capacity() const { return capacity_; }
  // Physical memory in frames, whether or not a page ever reached them.
  std::uint64_t total_frames() const { return bank_count() * frames_per_bank_; }
  std::uint64_t bank_count() const { return bank_free_.size(); }
  std::uint64_t frames_per_bank() const { return frames_per_bank_; }
  // Number of pages currently resident in the given bank.
  std::uint64_t bank_population(BankIndex bank) const;
  bool contains(PageId page) const {
    const PageEntry* e = table_->find(page);
    return e != nullptr && e->frame != kNoFrame;
  }

  // LRU order from most to least recently used (test/diagnostic helper;
  // O(size)).
  std::vector<PageId> lru_order() const;

 private:
  struct Node {
    PageId page = 0;
    FrameIndex prev = kNoFrame;
    FrameIndex next = kNoFrame;
    bool occupied = false;
    bool dirty = false;
  };

  BankIndex bank_of(FrameIndex f) const {
    return static_cast<BankIndex>(f / frames_per_bank_);
  }
  void unlink(FrameIndex f) {
    Node& n = nodes_[f];
    if (n.prev != kNoFrame) nodes_[n.prev].next = n.next;
    if (n.next != kNoFrame) nodes_[n.next].prev = n.prev;
    if (head_ == f) head_ = n.next;
    if (tail_ == f) tail_ = n.prev;
    n.prev = n.next = kNoFrame;
  }
  void push_front(FrameIndex f) {
    Node& n = nodes_[f];
    n.prev = kNoFrame;
    n.next = head_;
    if (head_ != kNoFrame) nodes_[head_].prev = f;
    head_ = f;
    if (tail_ == kNoFrame) tail_ = f;
  }
  FrameIndex allocate_frame();
  // Removes the LRU page; reports the victim through the out-params.
  void evict_lru(PageId* page, bool* dirty);
  void remove_frame(FrameIndex f);

  std::uint64_t frames_per_bank_;
  std::uint64_t capacity_;
  std::uint64_t size_ = 0;
  FrameIndex head_ = kNoFrame;  // MRU
  FrameIndex tail_ = kNoFrame;  // LRU
  // Indexed by frame; covers the used banks only. Capacity for every frame
  // is reserved up front, with a huge-page hint: growth never moves a node,
  // and the unused tail is never touched.
  std::vector<Node> nodes_;
  std::unique_ptr<PageTable> owned_table_;  // null when sharing
  PageTable* table_;  // page -> frame lives in each entry's `frame` half
  // Per-bank free-frame stacks plus the set of banks with both free frames
  // and at least one resident page ("warm" banks preferred for allocation).
  std::vector<std::vector<FrameIndex>> bank_free_;
  std::vector<std::uint64_t> bank_population_;
  std::vector<BankIndex> warm_banks_;       // stack of candidates (lazy)
  std::vector<BankIndex> cold_banks_;       // fully-free banks, ascending order
  // Frames that were dirty when pushed; entries go stale when the frame is
  // cleaned or recycled (the node's dirty flag is authoritative).
  std::vector<FrameIndex> dirty_frames_;
  std::uint64_t dirty_count_ = 0;
};

}  // namespace jpm::cache
