#include "jpm/cache/idle_sweep.h"

#include <algorithm>
#include <cmath>

#include "jpm/util/check.h"
#include "jpm/util/prefetch.h"

namespace jpm::cache {
namespace {

// The sweep runs once per period per engine; its linked-list and bucket
// vectors are sized by the period's access count (often 10^5+). Reusing
// them across calls removes the dominant allocation churn of a period
// boundary. Every element is rewritten before use, so reuse is invisible
// in results; thread_local keeps concurrent sweep runners independent.
// 32-bit node ids: a period's event count is far below 2^32 (checked). The
// removal loop is bound by how many randomly-touched lines sit in cache,
// not by arithmetic.
// One 16-byte record per list node: the timestamp rides in the same line as
// the links, so a removal touches exactly three lines (victim, prev
// neighbour, next neighbour) — split prev/next/timestamp arrays touched up
// to six — and the baked-in sentinel times remove the two boundary
// compares from every neighbour lookup.
struct SweepNode {
  double time;
  std::uint32_t prev;
  std::uint32_t next;
};
static_assert(sizeof(SweepNode) == 16);

struct SweepScratch {
  std::vector<SweepNode> nodes;
  // by_unit flattened: nodes grouped by first-hit unit via counting sort
  // (unit_offset[u] .. unit_offset[u+1] are unit u's node ids, ascending —
  // the same order the nested-vector form produced).
  std::vector<std::uint32_t> unit_offset;
  std::vector<std::uint32_t> unit_nodes;
  std::vector<std::uint32_t> unit_fill;
  // Per-event first-hit unit, computed once in the counting pass and reused
  // by the fill pass (kSkip for cold / beyond-candidate events) — the fill
  // pass then streams 4-byte units instead of re-deriving from 8-byte
  // depths.
  std::vector<std::uint32_t> unit_of_event;
};

SweepScratch& scratch() {
  thread_local SweepScratch s;
  return s;
}

}  // namespace

std::vector<IdleEstimate> sweep_idle_intervals(
    const IdleSeries& events, double period_start_s, double period_end_s,
    std::uint64_t unit_frames, double window_s,
    const std::vector<std::uint64_t>& candidate_units) {
  const double* times = events.times.data();
  const std::uint64_t* depths = events.depths.data();
  const std::size_t n = events.size();
  JPM_CHECK(unit_frames > 0);
  JPM_CHECK(window_s >= 0.0);
  JPM_CHECK(period_end_s >= period_start_s);
  JPM_CHECK(std::is_sorted(candidate_units.begin(), candidate_units.end()));

  JPM_CHECK(n + 2 < ~std::uint32_t{0});

  SweepScratch& s = scratch();
  // Node layout: [0] start sentinel, [1..n] events, [n+1] end sentinel.
  // Sentinel timestamps are baked into their records, so neighbour lookups
  // in the removal loop are straight loads with no boundary branches.
  s.nodes.resize(n + 2);
  s.nodes[0] = {period_start_s, 0, 1};
  for (std::size_t i = 1; i <= n; ++i) {
    s.nodes[i] = {times[i - 1], static_cast<std::uint32_t>(i - 1),
                  static_cast<std::uint32_t>(i + 1)};
  }
  s.nodes[n + 1] = {period_end_s, static_cast<std::uint32_t>(n),
                    static_cast<std::uint32_t>(n + 1)};
#ifndef NDEBUG
  for (std::size_t i = 0; i < n; ++i) {
    JPM_DCHECK(times[i] >= period_start_s && times[i] <= period_end_s);
    JPM_DCHECK(i == 0 || times[i - 1] <= times[i]);
  }
#endif

  // Group removable events by the candidate unit at which they become hits:
  // an event with depth d frames hits once m >= ceil(d / unit_frames) units.
  // Counting sort into one flat array, ascending node id within each unit —
  // identical removal order to the nested-vector formulation.
  std::uint64_t live = n;
  std::size_t unit_count = 0;
  if (!candidate_units.empty()) {
    // Power-of-two unit sizes (the common configurations) bucket by shift.
    int unit_shift = -1;
    if ((unit_frames & (unit_frames - 1)) == 0) {
      unit_shift = 0;
      while ((std::uint64_t{1} << unit_shift) < unit_frames) ++unit_shift;
    }
    const auto unit_of = [unit_frames, unit_shift](std::uint64_t d) {
      return (unit_shift >= 0 ? (d - 1) >> unit_shift
                              : (d - 1) / unit_frames) +
             1;
    };
    unit_count = static_cast<std::size_t>(candidate_units.back()) + 1;
    constexpr std::uint32_t kSkip = ~std::uint32_t{0};
    s.unit_offset.assign(unit_count + 1, 0);
    s.unit_of_event.resize(n);
    std::size_t grouped = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t d = depths[i];
      std::uint32_t unit = kSkip;
      if (d != kColdAccess) {
        const std::uint64_t u = unit_of(d);
        if (u < unit_count) {
          unit = static_cast<std::uint32_t>(u);
          ++s.unit_offset[unit + 1];
          ++grouped;
        }
      }
      s.unit_of_event[i] = unit;
    }
    for (std::size_t u = 0; u < unit_count; ++u) {
      s.unit_offset[u + 1] += s.unit_offset[u];
    }
    s.unit_nodes.resize(grouped);
    s.unit_fill.assign(s.unit_offset.begin(), s.unit_offset.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t unit = s.unit_of_event[i];
      if (unit != kSkip) {
        s.unit_nodes[s.unit_fill[unit]++] = static_cast<std::uint32_t>(i + 1);
      }
    }
  }

  // Gap statistics over the current list.
  std::uint64_t gap_count = 0;
  double gap_sum = 0.0;
  double gap_log_sum = 0.0;
  auto gap_add = [&](double g) {
    if (g >= window_s && g > 0.0) {
      ++gap_count;
      gap_sum += g;
      gap_log_sum += std::log(g);
    }
  };
  auto gap_remove = [&](double g) {
    if (g >= window_s && g > 0.0) {
      JPM_DCHECK(gap_count > 0);
      --gap_count;
      gap_sum -= g;
      gap_log_sum -= std::log(g);
    }
  };
  {
    double prev_t = period_start_s;
    for (std::size_t i = 0; i < n; ++i) {
      gap_add(times[i] - prev_t);
      prev_t = times[i];
    }
    gap_add(period_end_s - prev_t);
  }

  std::vector<IdleEstimate> out;
  out.reserve(candidate_units.size());
  std::uint64_t done_unit = 0;
  for (std::uint64_t m : candidate_units) {
    // Remove every event that becomes a memory hit at size m.
    for (std::uint64_t u = done_unit + 1; u <= m && u < unit_count; ++u) {
      const std::size_t lo = s.unit_offset[u];
      const std::size_t hi = s.unit_offset[u + 1];
      for (std::size_t k = lo; k < hi; ++k) {
        // Node ids ascend within a unit but stride irregularly; hint the
        // link and timestamp lines a few removals ahead so the list surgery
        // below overlaps their fetches instead of serializing on them.
        if (k + 16 < hi) {
          util::prefetch_write(&s.nodes[s.unit_nodes[k + 16]]);
        }
        const std::size_t node = s.unit_nodes[k];
        const SweepNode nd = s.nodes[node];
        SweepNode& np = s.nodes[nd.prev];
        SweepNode& nq = s.nodes[nd.next];
        const double tp = np.time;
        const double tq = nq.time;
        gap_remove(nd.time - tp);
        gap_remove(tq - nd.time);
        gap_add(tq - tp);
        np.next = nd.next;
        nq.prev = nd.prev;
        --live;
      }
    }
    done_unit = std::max(done_unit, m);

    IdleEstimate est;
    est.memory_units = m;
    est.disk_accesses = live;
    est.idle_intervals = gap_count;
    est.idle_time_s = gap_sum;
    est.mean_idle_s =
        gap_count == 0 ? 0.0 : gap_sum / static_cast<double>(gap_count);
    est.log_idle_sum = gap_log_sum;
    out.push_back(est);
  }
  return out;
}

}  // namespace jpm::cache
