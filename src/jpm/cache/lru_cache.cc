#include "jpm/cache/lru_cache.h"

#include <algorithm>

#include "jpm/util/hugepage.h"

namespace jpm::cache {

LruCache::LruCache(const LruCacheOptions& options, PageTable* shared)
    : frames_per_bank_(options.frames_per_bank),
      capacity_(options.capacity_frames) {
  JPM_CHECK(options.total_frames > 0);
  JPM_CHECK(options.frames_per_bank > 0);
  JPM_CHECK(options.capacity_frames <= options.total_frames);
  JPM_CHECK_MSG(options.total_frames % options.frames_per_bank == 0,
                "total frames must be a whole number of banks");
  nodes_.reserve(options.total_frames);
  // Before any node is built: a hint given after the pages have faulted in
  // at 4 KiB would leave them there.
  util::advise_hugepages(nodes_.data(), options.total_frames * sizeof(Node));
  const std::uint64_t banks = options.total_frames / options.frames_per_bank;
  bank_free_.resize(banks);
  bank_population_.assign(banks, 0);
  // Cold banks kept descending so pop_back() yields the lowest index first.
  cold_banks_.reserve(banks);
  for (std::uint64_t b = banks; b > 0; --b) {
    cold_banks_.push_back(static_cast<BankIndex>(b - 1));
  }
  if (shared != nullptr) {
    table_ = shared;
  } else {
    owned_table_ = std::make_unique<PageTable>();
    table_ = owned_table_.get();
  }
}

std::optional<AccessOutcome> LruCache::lookup(PageId page) {
  const PageEntry* e = table_->find(page);
  if (e == nullptr || e->frame == kNoFrame) return std::nullopt;
  return touch(e->frame);
}

InsertOutcome LruCache::insert(PageId page) {
  JPM_CHECK_MSG(capacity_ > 0, "insert into zero-capacity cache");
  InsertOutcome out;
  if (size_ >= capacity_) {
    out.evicted = true;
    evict_lru(&out.evicted_page, &out.evicted_dirty);
  }
  const FrameIndex f = allocate_frame();
  Node& n = nodes_[f];
  n.page = page;
  n.occupied = true;
  n.dirty = false;
  push_front(f);
  PageEntry* e = table_->find_or_insert(page);
  JPM_DCHECK(e->frame == kNoFrame);
  e->frame = f;
  ++size_;
  out.bank = bank_of(f);
  out.frame = f;
  ++bank_population_[out.bank];
  return out;
}

void LruCache::fill_in_order(std::uint64_t n) {
  JPM_CHECK_MSG(nodes_.empty(), "fill_in_order needs a fresh cache");
  if (n == 0) return;
  JPM_CHECK_MSG(capacity_ > 0, "insert into zero-capacity cache");
  // Up to capacity, insert(p) takes frame p (banks fill in ascending order,
  // lowest frame first); past it, each insert evicts page p - capacity and
  // reuses its frame. Either way page p ends in frame p % capacity.
  const std::uint64_t resident = std::min(n, capacity_);
  const std::uint64_t used_banks =
      (resident + frames_per_bank_ - 1) / frames_per_bank_;
  nodes_.resize(used_banks * frames_per_bank_);
  // Link the resident pages from LRU (n - resident) to MRU (n - 1).
  FrameIndex f = static_cast<FrameIndex>((n - resident) % capacity_);
  tail_ = f;
  for (PageId p = n - resident; p < n; ++p) {
    Node& node = nodes_[f];
    node.page = p;
    node.occupied = true;
    node.next = head_;
    if (head_ != kNoFrame) nodes_[head_].prev = f;
    head_ = f;
    table_->find_or_insert(p)->frame = f;
    if (++f == capacity_) f = 0;
  }
  size_ = resident;
  for (BankIndex b = 0; b < used_banks; ++b) {
    bank_population_[b] =
        std::min(frames_per_bank_, resident - b * frames_per_bank_);
  }
  // The used banks left the cold stack from its lowest end; a partial last
  // bank keeps its unused frames, descending, and is the one warm bank.
  cold_banks_.resize(cold_banks_.size() - used_banks);
  if (const std::uint64_t filled = resident % frames_per_bank_; filled != 0) {
    const BankIndex b = static_cast<BankIndex>(used_banks - 1);
    const FrameIndex lo = static_cast<FrameIndex>(b * frames_per_bank_);
    for (std::uint64_t k = frames_per_bank_; k > filled; --k) {
      bank_free_[b].push_back(static_cast<FrameIndex>(lo + k - 1));
    }
    warm_banks_.push_back(b);
  }
}

void LruCache::set_capacity(std::uint64_t frames,
                            std::vector<PageId>* dirty_out) {
  JPM_CHECK(frames <= total_frames());
  capacity_ = frames;
  while (size_ > capacity_) {
    PageId page = 0;
    bool dirty = false;
    evict_lru(&page, &dirty);
    if (dirty && dirty_out != nullptr) dirty_out->push_back(page);
  }
}

std::uint64_t LruCache::invalidate_bank(BankIndex bank,
                                        std::vector<PageId>* dirty_out) {
  JPM_CHECK(bank < bank_count());
  std::uint64_t dropped = 0;
  const FrameIndex lo = static_cast<FrameIndex>(bank * frames_per_bank_);
  if (lo >= nodes_.size()) return 0;  // never used: no nodes, no pages
  const FrameIndex hi = static_cast<FrameIndex>(lo + frames_per_bank_);
  for (FrameIndex f = lo; f < hi; ++f) {
    if (nodes_[f].occupied) {
      if (nodes_[f].dirty && dirty_out != nullptr) {
        dirty_out->push_back(nodes_[f].page);
      }
      remove_frame(f);
      ++dropped;
    }
  }
  return dropped;
}

void LruCache::mark_dirty(PageId page) {
  const PageEntry* e = table_->find(page);
  JPM_CHECK_MSG(e != nullptr && e->frame != kNoFrame,
                "mark_dirty on a non-resident page");
  mark_dirty_frame(e->frame);
}

void LruCache::mark_dirty_frame(FrameIndex f) {
  Node& n = nodes_[f];
  JPM_DCHECK(n.occupied);
  if (!n.dirty) {
    n.dirty = true;
    ++dirty_count_;
    dirty_frames_.push_back(f);
  }
}

bool LruCache::is_dirty(PageId page) const {
  const PageEntry* e = table_->find(page);
  return e != nullptr && e->frame != kNoFrame && nodes_[e->frame].dirty;
}

void LruCache::take_dirty_pages(std::vector<PageId>* out) {
  out->clear();
  if (out->capacity() < dirty_count_) out->reserve(dirty_count_);
  for (FrameIndex f : dirty_frames_) {
    Node& n = nodes_[f];
    if (n.occupied && n.dirty) {
      n.dirty = false;
      --dirty_count_;
      out->push_back(n.page);
    }
  }
  dirty_frames_.clear();
  JPM_DCHECK(dirty_count_ == 0);
  std::sort(out->begin(), out->end());
}

std::uint64_t LruCache::bank_population(BankIndex bank) const {
  JPM_CHECK(bank < bank_count());
  return bank_population_[bank];
}

std::vector<PageId> LruCache::lru_order() const {
  std::vector<PageId> order;
  order.reserve(size_);
  for (FrameIndex f = head_; f != kNoFrame; f = nodes_[f].next) {
    order.push_back(nodes_[f].page);
  }
  return order;
}

FrameIndex LruCache::allocate_frame() {
  // Prefer a warm bank (already holds pages) to concentrate residency;
  // fall back to the lowest-index cold bank.
  while (!warm_banks_.empty()) {
    const BankIndex b = warm_banks_.back();
    auto& free_list = bank_free_[b];
    if (free_list.empty() || bank_population_[b] == 0) {
      warm_banks_.pop_back();  // stale entry
      continue;
    }
    const FrameIndex f = free_list.back();
    free_list.pop_back();
    if (!free_list.empty()) {
      // keep b as a candidate
    } else {
      warm_banks_.pop_back();
    }
    return f;
  }
  JPM_CHECK_MSG(!cold_banks_.empty(), "no free frame available");
  const BankIndex b = cold_banks_.back();
  cold_banks_.pop_back();
  auto& free_list = bank_free_[b];
  if (free_list.empty()) {
    // Bank has never been used: build its nodes right after the used prefix
    // and seed its free list with all frames but one (descending so lower
    // frames are handed out first).
    const FrameIndex lo = static_cast<FrameIndex>(b * frames_per_bank_);
    JPM_CHECK_MSG(lo == nodes_.size(), "used frames must stay a prefix");
    nodes_.resize(nodes_.size() + frames_per_bank_);
    for (std::uint64_t k = frames_per_bank_; k > 1; --k) {
      free_list.push_back(static_cast<FrameIndex>(lo + k - 1));
    }
    if (!free_list.empty()) warm_banks_.push_back(b);
    return lo;
  }
  const FrameIndex f = free_list.back();
  free_list.pop_back();
  if (!free_list.empty()) warm_banks_.push_back(b);
  return f;
}

void LruCache::evict_lru(PageId* page, bool* dirty) {
  JPM_CHECK_MSG(tail_ != kNoFrame, "evict from empty cache");
  const Node& victim = nodes_[tail_];
  *page = victim.page;
  *dirty = victim.dirty;
  remove_frame(tail_);
}

void LruCache::remove_frame(FrameIndex f) {
  Node& n = nodes_[f];
  JPM_DCHECK(n.occupied);
  unlink(f);
  PageEntry* e = table_->find(n.page);
  JPM_DCHECK(e != nullptr && e->frame == f);
  e->frame = kNoFrame;
  n.occupied = false;
  if (n.dirty) {
    n.dirty = false;
    --dirty_count_;
  }
  --size_;
  const BankIndex b = bank_of(f);
  --bank_population_[b];
  const bool was_free_empty = bank_free_[b].empty();
  bank_free_[b].push_back(f);
  if (bank_population_[b] == 0) {
    // Fully drained bank becomes cold again; its free list stays populated so
    // a future allocation can reuse it directly.
    cold_banks_.push_back(b);
  } else if (was_free_empty) {
    warm_banks_.push_back(b);
  }
}

}  // namespace jpm::cache
