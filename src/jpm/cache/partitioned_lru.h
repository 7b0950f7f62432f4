// PB-LRU-style energy-aware cache partitioning (Zhu, Shankar & Zhou — the
// paper's reference [36]).
//
// For multi-disk storage, a single global LRU sizes each disk's cache share
// by recency pressure alone; PB-LRU instead gives every disk its own LRU
// partition and periodically re-solves the partition sizes to minimize
// predicted *energy*, not miss ratio: a miss on a disk that could otherwise
// sleep costs far more than a miss on a disk that is busy anyway.
//
// Implementation: each partition tracks its own miss curve (stack-distance
// histogram at enumeration-unit granularity, the same machinery the joint
// manager uses); at each epoch a dynamic program allocates units to
// partitions minimizing sum_d cost_d(misses_d(m_d)), where the caller
// supplies each disk's energy-per-miss estimate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "jpm/cache/lru_cache.h"
#include "jpm/cache/miss_curve.h"
#include "jpm/cache/page_table.h"
#include "jpm/cache/stack_distance.h"

namespace jpm::cache {

// Minimum-cost allocation of `total_units` across partitions. The cost of
// giving partition d a size with predicted miss count m is
// cost(d, m) — an arbitrary (typically nonlinear) energy model: e.g. "p_d*T
// if the misses keep the disk awake, else a per-wake charge". Returns one
// size per partition (each >= 1 unit) summing to exactly total_units.
using PartitionCostFn = std::function<double(std::size_t, std::uint64_t)>;
std::vector<std::uint64_t> solve_partition_sizes(
    const std::vector<const MissCurve*>& curves, const PartitionCostFn& cost,
    std::uint64_t total_units);

// Linear special case: cost_per_miss[d] * misses.
std::vector<std::uint64_t> solve_partition_sizes(
    const std::vector<const MissCurve*>& curves,
    const std::vector<double>& cost_per_miss, std::uint64_t total_units);

struct PartitionedLruOptions {
  std::uint32_t partitions = 2;
  std::uint64_t total_frames = 0;   // cache frames shared by all partitions
  std::uint64_t unit_frames = 0;    // allocation granularity
};

class PartitionedLruCache {
 public:
  explicit PartitionedLruCache(const PartitionedLruOptions& options);

  // Looks up / installs a page in the given partition. The page id space may
  // overlap across partitions (they are independent caches).
  bool access(std::uint32_t partition, PageId page);

  // Re-solves partition sizes from the miss curves accumulated since the
  // last epoch, using the given per-partition cost per miss (or a full
  // energy model of the miss count); resets the epoch statistics. Shrinking
  // partitions evict immediately.
  void rebalance(const std::vector<double>& cost_per_miss);
  void rebalance(const PartitionCostFn& cost);

  // Clears the epoch statistics without resizing — call after a warm-up or
  // prefill pass whose compulsory misses would poison the first epoch's
  // curves (a cold miss looks unavoidable at every size, flattening the
  // solver's objective).
  void reset_epoch();

  std::uint64_t partition_units(std::uint32_t partition) const;
  std::uint64_t total_units() const { return total_units_; }
  // Misses observed in the current epoch.
  std::uint64_t epoch_misses(std::uint32_t partition) const;
  const MissCurve& epoch_curve(std::uint32_t partition) const;

 private:
  PartitionedLruOptions options_;
  std::uint64_t total_units_;
  // Each partition's cache and tracker share one page table, so access()
  // resolves a page with a single lookup (the engine's fused hot path).
  std::vector<std::unique_ptr<PageTable>> tables_;
  std::vector<LruCache> caches_;
  std::vector<StackDistanceTracker> trackers_;
  std::vector<MissCurve> curves_;
  std::vector<std::uint64_t> units_;
  std::vector<std::uint64_t> misses_;
};

}  // namespace jpm::cache
