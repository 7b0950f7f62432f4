#include "jpm/workload/trace_stats.h"

#include <algorithm>
#include <unordered_map>

#include "jpm/cache/lru_cache.h"
#include "jpm/cache/stack_distance.h"
#include "jpm/util/check.h"

namespace jpm::workload {

TraceCharacterization characterize(const Trace& trace) {
  JPM_CHECK(trace.page_bytes > 0);
  TraceCharacterization c;
  c.events = trace.size();
  if (trace.empty()) return c;

  std::unordered_map<std::uint64_t, std::uint64_t> page_counts;
  cache::StackDistanceTracker tracker;
  double prev_request = -1.0;
  double gap_sum = 0.0;
  std::uint64_t gaps = 0;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double t = trace.times[i];
    if ((trace.flags[i] & kTraceFlagStart) != 0) {
      ++c.requests;
      if (prev_request >= 0.0) {
        const double gap = t - prev_request;
        gap_sum += gap;
        ++gaps;
        c.max_interarrival_s = std::max(c.max_interarrival_s, gap);
      }
      prev_request = t;
    }
    if ((trace.flags[i] & kTraceFlagWrite) != 0) ++c.writes;
    ++page_counts[trace.pages[i]];

    const auto depth = tracker.access(trace.pages[i]);
    if (depth == cache::kColdAccess) {
      ++c.cold_accesses;
    } else {
      std::size_t bucket = 0;
      for (std::uint64_t d = depth; d > 1; d >>= 1) ++bucket;
      if (c.reuse_depth_pow2.size() <= bucket) {
        c.reuse_depth_pow2.resize(bucket + 1, 0);
      }
      ++c.reuse_depth_pow2[bucket];
    }
  }

  c.distinct_pages = page_counts.size();
  c.duration_s = trace.times.back();
  if (c.duration_s > 0.0) {
    c.request_rate_per_s = static_cast<double>(c.requests) / c.duration_s;
    c.byte_rate_per_s = static_cast<double>(c.events) *
                        static_cast<double>(trace.page_bytes) / c.duration_s;
  }
  if (gaps > 0) c.mean_interarrival_s = gap_sum / static_cast<double>(gaps);

  // Hot-page fraction: smallest share of distinct pages absorbing 90% of
  // accesses.
  std::vector<std::uint64_t> counts;
  counts.reserve(page_counts.size());
  for (const auto& [page, n] : page_counts) counts.push_back(n);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  const double target = 0.9 * static_cast<double>(c.events);
  double mass = 0.0;
  std::size_t hot = 0;
  for (; hot < counts.size() && mass < target; ++hot) {
    mass += static_cast<double>(counts[hot]);
  }
  c.hot_page_fraction_90 =
      static_cast<double>(hot) / static_cast<double>(counts.size());
  return c;
}

std::vector<double> idle_gaps_at_cache_size(const Trace& trace,
                                            std::uint64_t cache_pages,
                                            double window_s) {
  JPM_CHECK(cache_pages > 0);
  JPM_CHECK(window_s >= 0.0);
  // Bank structure is irrelevant here; one big bank keeps it simple.
  cache::LruCache cache(
      cache::LruCacheOptions{cache_pages, cache_pages, cache_pages});
  std::vector<double> gaps;
  double last_miss = -1.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (cache.lookup(trace.pages[i])) continue;
    cache.insert(trace.pages[i]);
    const double t = trace.times[i];
    if (last_miss >= 0.0) {
      const double gap = t - last_miss;
      if (gap >= window_s && gap > 0.0) gaps.push_back(gap);
    }
    last_miss = t;
  }
  return gaps;
}

}  // namespace jpm::workload
