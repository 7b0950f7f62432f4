#include "jpm/cache/idle_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "jpm/cache/miss_curve.h"
#include "jpm/cache/stack_distance.h"
#include "jpm/util/check.h"
#include "jpm/util/rng.h"

namespace jpm::cache {
namespace {

// One access: its time and LRU stack depth (kColdAccess for a compulsory
// miss).
using Access = std::pair<double, std::uint64_t>;
Access ev(double t, std::uint64_t depth) { return {t, depth}; }
Access cold(double t) { return {t, kColdAccess}; }

IdleSeries series(std::initializer_list<Access> accesses) {
  IdleSeries s;
  for (const auto& [t, depth] : accesses) s.push_back(t, depth);
  return s;
}

TEST(IdleSweepTest, EmptyPeriodIsOneBigGap) {
  const auto out = sweep_idle_intervals(IdleSeries{}, 0.0, 100.0, 1, 0.1, {1, 2});
  ASSERT_EQ(out.size(), 2u);
  for (const auto& e : out) {
    EXPECT_EQ(e.disk_accesses, 0u);
    EXPECT_EQ(e.idle_intervals, 1u);
    EXPECT_DOUBLE_EQ(e.idle_time_s, 100.0);
    EXPECT_DOUBLE_EQ(e.mean_idle_s, 100.0);
  }
}

TEST(IdleSweepTest, ColdAccessesNeverRemoved) {
  const auto events = series({cold(10), cold(50)});
  const auto out = sweep_idle_intervals(events, 0, 100, 1, 0.1, {1000});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].disk_accesses, 2u);
  EXPECT_EQ(out[0].idle_intervals, 3u);  // 0-10, 10-50, 50-100
  EXPECT_DOUBLE_EQ(out[0].idle_time_s, 100.0);
}

TEST(IdleSweepTest, WindowFiltersShortGaps) {
  // Gaps: 1.0, 0.05, 8.95 -> with w = 0.1 only two count.
  const auto events = series({cold(1.0), cold(1.05)});
  const auto out = sweep_idle_intervals(events, 0, 10, 1, 0.1, {1});
  EXPECT_EQ(out[0].idle_intervals, 2u);
  EXPECT_NEAR(out[0].idle_time_s, 1.0 + 8.95, 1e-12);
}

TEST(IdleSweepTest, RemovingAccessMergesGaps) {
  // Access at t=5 with depth 1 disappears once memory >= 1 unit; the two
  // 5-second gaps merge into the whole period.
  const auto events = series({ev(5.0, 1)});
  const auto out = sweep_idle_intervals(events, 0, 10, 4, 0.1, {0, 1});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].disk_accesses, 1u);
  EXPECT_EQ(out[0].idle_intervals, 2u);
  EXPECT_EQ(out[1].disk_accesses, 0u);
  EXPECT_EQ(out[1].idle_intervals, 1u);
  EXPECT_DOUBLE_EQ(out[1].idle_time_s, 10.0);
}

TEST(IdleSweepTest, MergeOfSubWindowGapsCanCrossWindow) {
  // Two 0.08 s gaps (below w = 0.1) merge into a 0.16 s gap (above w) when
  // the middle access becomes a hit; the boundary gaps (0.05 s) stay below w
  // throughout.
  const auto events = series({cold(1.0), ev(1.08, 1), cold(1.16)});
  const auto out = sweep_idle_intervals(events, 0.95, 1.21, 1, 0.1, {0, 1});
  EXPECT_EQ(out[0].idle_intervals, 0u);
  EXPECT_EQ(out[1].idle_intervals, 1u);
  EXPECT_NEAR(out[1].idle_time_s, 0.16, 1e-9);
}

// Paper Fig. 4: accesses (1,2,3,5,2,1,4,6,5,2); with 4-page memory the disk
// idles between the 4th and 7th and between the 8th and 9th accesses; with
// 2 pages the first interval splits; with 5 pages the second one extends.
TEST(IdleSweepTest, PaperFigure4Example) {
  StackDistanceTracker tr;
  const std::vector<std::uint64_t> refs{1, 2, 3, 5, 2, 1, 4, 6, 5, 2};
  IdleSeries events;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    events.push_back(static_cast<double>(i + 1) * 10.0, tr.access(refs[i]));
  }
  const auto out =
      sweep_idle_intervals(events, 0.0, 110.0, 1, 0.1, {2, 4, 5, 8});

  // m = 2: disk accesses are all but the 5th (depth 3 > 2? no: depth 3 means
  // hit needs >= 3 pages, so at 2 pages accesses 5,6 miss as well) -> only
  // the initial gap 0-10 plus gaps of 10 s between consecutive accesses 1..8
  // and the trailing 100..110 gap remain around accesses; every event is a
  // disk access except none.
  EXPECT_EQ(out[0].disk_accesses, 10u);

  // m = 4 (paper's resident memory): 8 disk accesses, idle I1 = t4..t7
  // (30 s), I2 = t8..t9 (10 s); plus the 10 s gaps between consecutive
  // accesses and the boundary gaps.
  EXPECT_EQ(out[1].disk_accesses, 8u);

  // m = 5: accesses 9 and 10 become hits (depth 5); I2 extends to the end of
  // the period: t8 = 80 .. 110 = 30 s.
  EXPECT_EQ(out[2].disk_accesses, 6u);

  // m = 8: nothing more to absorb (no depths beyond 5).
  EXPECT_EQ(out[3].disk_accesses, 6u);
  EXPECT_EQ(out[3].idle_intervals, out[2].idle_intervals);
}

TEST(IdleSweepTest, DiskAccessCountsMatchMissCurve) {
  Rng rng(13);
  StackDistanceTracker tr;
  MissCurve mc(4, 32);
  IdleSeries events;
  double t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    t += rng.exponential(0.05);
    const std::uint64_t page = rng.chance(0.8) ? rng.uniform_index(20)
                                               : rng.uniform_index(400);
    const auto depth = tr.access(page);
    mc.add(depth);
    events.push_back(t, depth);
  }
  std::vector<std::uint64_t> candidates{1, 2, 3, 5, 8, 13, 21, 32};
  const auto out =
      sweep_idle_intervals(events, 0.0, t + 1.0, 4, 0.1, candidates);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(out[i].disk_accesses, mc.misses_at(candidates[i]))
        << "m=" << candidates[i];
  }
}

// Brute-force reference: recompute gaps from scratch at each size.
TEST(IdleSweepTest, RandomizedAgainstBruteForce) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    IdleSeries events;
    double t = 0.0;
    for (int i = 0; i < 200; ++i) {
      t += rng.exponential(0.3);
      const bool is_cold = rng.chance(0.2);
      events.push_back(t, is_cold ? kColdAccess : 1 + rng.uniform_index(40));
    }
    const double end = t + 2.0;
    const double w = 0.25;
    std::vector<std::uint64_t> candidates{1, 2, 4, 8, 16, 40};
    const auto out =
        sweep_idle_intervals(events, 0.0, end, /*unit_frames=*/1, w,
                             candidates);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const std::uint64_t m = candidates[c];
      std::vector<double> times{0.0};
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (events.depths[i] == kColdAccess || events.depths[i] > m) {
          times.push_back(events.times[i]);
        }
      }
      times.push_back(end);
      std::uint64_t gaps = 0;
      double sum = 0.0;
      for (std::size_t i = 0; i + 1 < times.size(); ++i) {
        const double g = times[i + 1] - times[i];
        if (g >= w && g > 0.0) {
          ++gaps;
          sum += g;
        }
      }
      ASSERT_EQ(out[c].disk_accesses, times.size() - 2) << "m=" << m;
      ASSERT_EQ(out[c].idle_intervals, gaps) << "m=" << m;
      ASSERT_NEAR(out[c].idle_time_s, sum, 1e-9) << "m=" << m;
    }
  }
}

TEST(IdleSweepTest, RejectsUnsortedCandidates) {
  EXPECT_THROW(
      sweep_idle_intervals(IdleSeries{}, 0, 1, 1, 0.1, {3, 1}), CheckError);
}

}  // namespace
}  // namespace jpm::cache
