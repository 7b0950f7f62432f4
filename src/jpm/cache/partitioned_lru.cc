#include "jpm/cache/partitioned_lru.h"

#include <limits>

#include "jpm/util/check.h"

namespace jpm::cache {

std::vector<std::uint64_t> solve_partition_sizes(
    const std::vector<const MissCurve*>& curves, const PartitionCostFn& cost_fn,
    std::uint64_t total_units) {
  const std::size_t n = curves.size();
  JPM_CHECK(n > 0);
  JPM_CHECK(cost_fn != nullptr);
  JPM_CHECK(total_units >= n);  // every partition keeps at least one unit

  // dp[d][u]: minimum cost serving partitions [0, d] with u units total;
  // each partition receives at least 1 unit.
  const auto units = total_units;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(n, std::vector<double>(units + 1, inf));
  std::vector<std::vector<std::uint64_t>> pick(
      n, std::vector<std::uint64_t>(units + 1, 0));

  auto cost = [&](std::size_t d, std::uint64_t m) {
    return cost_fn(d, curves[d]->misses_at(m));
  };

  for (std::uint64_t m = 1; m <= units; ++m) {
    dp[0][m] = cost(0, m);
    pick[0][m] = m;
  }
  for (std::size_t d = 1; d < n; ++d) {
    for (std::uint64_t u = d + 1; u <= units; ++u) {
      for (std::uint64_t m = 1; m + d <= u; ++m) {
        const double c = dp[d - 1][u - m] + cost(d, m);
        if (c < dp[d][u]) {
          dp[d][u] = c;
          pick[d][u] = m;
        }
      }
    }
  }

  std::vector<std::uint64_t> sizes(n, 0);
  std::uint64_t remaining = units;
  for (std::size_t d = n; d-- > 0;) {
    sizes[d] = pick[d][remaining];
    JPM_CHECK(sizes[d] >= 1);
    remaining -= sizes[d];
  }
  JPM_CHECK(remaining == 0);
  return sizes;
}

std::vector<std::uint64_t> solve_partition_sizes(
    const std::vector<const MissCurve*>& curves,
    const std::vector<double>& cost_per_miss, std::uint64_t total_units) {
  JPM_CHECK(cost_per_miss.size() == curves.size());
  for (double c : cost_per_miss) JPM_CHECK(c >= 0.0);
  return solve_partition_sizes(
      curves,
      [&cost_per_miss](std::size_t d, std::uint64_t misses) {
        return cost_per_miss[d] * static_cast<double>(misses);
      },
      total_units);
}

PartitionedLruCache::PartitionedLruCache(const PartitionedLruOptions& options)
    : options_(options) {
  JPM_CHECK(options.partitions > 0);
  JPM_CHECK(options.unit_frames > 0);
  JPM_CHECK_MSG(options.total_frames % options.unit_frames == 0,
                "cache must be a whole number of units");
  total_units_ = options.total_frames / options.unit_frames;
  JPM_CHECK_MSG(total_units_ >= options.partitions,
                "need at least one unit per partition");

  // Equal initial split; the first rebalance corrects it.
  const std::uint64_t base = total_units_ / options.partitions;
  std::uint64_t leftover = total_units_ - base * options.partitions;
  for (std::uint32_t p = 0; p < options.partitions; ++p) {
    const std::uint64_t u = base + (leftover > 0 ? 1 : 0);
    if (leftover > 0) --leftover;
    units_.push_back(u);
    tables_.push_back(std::make_unique<PageTable>());
    caches_.emplace_back(
        LruCacheOptions{options.total_frames, options.unit_frames,
                        u * options.unit_frames},
        tables_.back().get());
    trackers_.emplace_back(tables_.back().get());
    curves_.emplace_back(options.unit_frames, total_units_);
    misses_.push_back(0);
  }
}

bool PartitionedLruCache::access(std::uint32_t partition, PageId page) {
  JPM_CHECK(partition < caches_.size());
  // One lookup serves both the stack-distance update and the residency
  // check.
  PageEntry* entry = tables_[partition]->find_or_insert(page);
  curves_[partition].add(trackers_[partition].access_at(*entry));
  if (entry->frame != kNoFrame) {
    caches_[partition].touch(entry->frame);
    return true;
  }
  caches_[partition].insert(page);
  ++misses_[partition];
  return false;
}

void PartitionedLruCache::rebalance(const std::vector<double>& cost_per_miss) {
  JPM_CHECK(cost_per_miss.size() == caches_.size());
  rebalance([&cost_per_miss](std::size_t d, std::uint64_t misses) {
    return cost_per_miss[d] * static_cast<double>(misses);
  });
}

void PartitionedLruCache::rebalance(const PartitionCostFn& cost) {
  std::vector<const MissCurve*> curves;
  curves.reserve(curves_.size());
  for (const auto& c : curves_) curves.push_back(&c);
  const auto sizes = solve_partition_sizes(curves, cost, total_units_);
  for (std::uint32_t p = 0; p < caches_.size(); ++p) {
    units_[p] = sizes[p];
    caches_[p].set_capacity(sizes[p] * options_.unit_frames);
  }
  reset_epoch();
}

void PartitionedLruCache::reset_epoch() {
  for (auto& c : curves_) c.reset();
  for (auto& m : misses_) m = 0;
}

std::uint64_t PartitionedLruCache::partition_units(
    std::uint32_t partition) const {
  JPM_CHECK(partition < units_.size());
  return units_[partition];
}

std::uint64_t PartitionedLruCache::epoch_misses(
    std::uint32_t partition) const {
  JPM_CHECK(partition < misses_.size());
  return misses_[partition];
}

const MissCurve& PartitionedLruCache::epoch_curve(
    std::uint32_t partition) const {
  JPM_CHECK(partition < curves_.size());
  return curves_[partition];
}

}  // namespace jpm::cache
