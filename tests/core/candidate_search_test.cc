#include "jpm/core/candidate_search.h"

#include <gtest/gtest.h>

#include <cmath>

#include "jpm/pareto/timeout_math.h"

namespace jpm::core {
namespace {

// Small geometry: 4 MiB pages, 16 MiB units (4 frames), 10 units physical.
JointConfig small_config() {
  JointConfig c;
  c.page_bytes = 4 * kMiB;
  c.unit_bytes = 16 * kMiB;
  c.physical_bytes = 160 * kMiB;
  c.period_s = 600.0;
  c.window_s = 0.1;
  return c;
}

PeriodStats make_stats(const JointConfig& c, const cache::IdleSeries& events) {
  PeriodStats s;
  s.start_s = 0.0;
  s.end_s = c.period_s;
  s.curve = cache::MissCurve(c.unit_frames(), c.max_units());
  s.events = events;
  for (const std::uint64_t depth : events.depths) {
    s.curve.add(depth);
    ++s.cache_accesses;
    if (depth == cache::kColdAccess) ++s.cold_accesses;
  }
  return s;
}

constexpr double kFallbackService = 0.013;

TEST(CandidateSearchTest, HotWorkloadShrinksMemoryAndSleepsDisk) {
  const auto c = small_config();
  // 600 accesses, one per second, all hitting within one unit (depth <= 4).
  cache::IdleSeries events;
  for (int i = 0; i < 600; ++i) {
    events.push_back(static_cast<double>(i), 1 + (i % 4ull));
  }
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  EXPECT_TRUE(r.any_feasible);
  EXPECT_EQ(r.chosen.memory_units, 1u);
  EXPECT_EQ(r.chosen.disk_accesses, 0u);
  EXPECT_EQ(r.chosen.predicted_util, 0.0);
  // With no disk accesses predicted, the disk can sleep through the period.
  EXPECT_LT(r.chosen.timeout_s, pareto::kNeverTimeout);
}

TEST(CandidateSearchTest, UtilizationConstraintForcesLargerMemory) {
  const auto c = small_config();
  // Depth in unit 2 => hits only with >= 2 units. 10 accesses/s would
  // sustain util = 10 * 0.013 = 13% > 10% at one unit.
  cache::IdleSeries events;
  for (int i = 0; i < 6000; ++i) {
    events.push_back(i * 0.1, 5);  // depth 5 frames -> unit 2
  }
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  EXPECT_TRUE(r.any_feasible);
  EXPECT_GE(r.chosen.memory_units, 2u);
  // The one-unit candidate must have been evaluated and rejected.
  ASSERT_FALSE(r.candidates.empty());
  EXPECT_EQ(r.candidates.front().memory_units, 1u);
  EXPECT_FALSE(r.candidates.front().feasible);
  EXPECT_GT(r.candidates.front().predicted_util, c.util_limit);
}

TEST(CandidateSearchTest, InfeasibleFallbackMinimizesUtilThenEnergy) {
  const auto c = small_config();
  // Cold misses cannot be absorbed by any memory size; 20/s of them keep
  // utilization above the limit everywhere. With utilization flat across
  // sizes, the fallback picks the cheapest (smallest) memory.
  cache::IdleSeries events;
  for (int i = 0; i < 12000; ++i) {
    events.push_back(i * 0.05, cache::kColdAccess);
  }
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  EXPECT_FALSE(r.any_feasible);
  EXPECT_GT(r.chosen.predicted_util, c.util_limit);
  EXPECT_EQ(r.chosen.memory_units, 1u);
}

TEST(CandidateSearchTest, InfeasibleFallbackPrefersLowerUtilization) {
  const auto c = small_config();
  // Heavy capacity-miss traffic in unit 1 plus cold misses: at >= 2 units
  // utilization drops (still above the limit), so the fallback must move to
  // the larger size even though it costs more memory energy.
  cache::IdleSeries events;
  for (int i = 0; i < 12000; ++i) {
    events.push_back(i * 0.05, cache::kColdAccess);
    events.push_back(i * 0.05 + 0.02, 5);  // unit 2
  }
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  EXPECT_FALSE(r.any_feasible);
  EXPECT_GE(r.chosen.memory_units, 2u);
}

TEST(CandidateSearchTest, NoUsableIdlenessKeepsDiskOn) {
  const auto c = small_config();
  // Cold misses spaced below the aggregation window across the whole period:
  // no idle interval survives the filter, so spinning down never pays.
  cache::IdleSeries events;
  for (int i = 0; i < 12000; ++i) {
    events.push_back(i * 0.05, cache::kColdAccess);
  }
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  EXPECT_TRUE(std::isinf(r.chosen.timeout_s));
  EXPECT_EQ(r.chosen.predicted_delay_ratio, 0.0);
}

TEST(CandidateSearchTest, ChosenIsMinimumEnergyAmongFeasible) {
  const auto c = small_config();
  cache::IdleSeries events;
  for (int i = 0; i < 300; ++i) {
    events.push_back(i * 2.0, 1 + (i % 8ull));  // spans 2 units
  }
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  ASSERT_TRUE(r.any_feasible);
  for (const auto& cand : r.candidates) {
    if (cand.feasible) {
      EXPECT_LE(r.chosen.predicted_energy_j, cand.predicted_energy_j + 1e-9);
    }
  }
}

TEST(CandidateSearchTest, CandidatesAscendAndCoverBounds) {
  const auto c = small_config();
  cache::IdleSeries events;
  for (int i = 0; i < 100; ++i) {
    events.push_back(i * 5.0, 1 + (i % 20ull));  // depths across 5 units
  }
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  ASSERT_GE(r.candidates.size(), 2u);
  EXPECT_EQ(r.candidates.front().memory_units, 1u);
  EXPECT_EQ(r.candidates.back().memory_units, c.max_units());
  for (std::size_t i = 1; i < r.candidates.size(); ++i) {
    EXPECT_GT(r.candidates[i].memory_units,
              r.candidates[i - 1].memory_units);
    // More memory never predicts more disk accesses (LRU inclusion).
    EXPECT_LE(r.candidates[i].disk_accesses,
              r.candidates[i - 1].disk_accesses);
  }
}

TEST(CandidateSearchTest, TimeoutRespectsDelayConstraintBound) {
  const auto c = small_config();
  // Bursty misses in unit 3 with sizeable idle gaps: the disk wants to sleep
  // but eq. 6 bounds how aggressively.
  cache::IdleSeries events;
  double t = 0.0;
  for (int burst = 0; burst < 60; ++burst) {
    for (int k = 0; k < 40; ++k) {
      events.push_back(t, 9);  // unit 3
      t += 0.01;
    }
    t += 9.6;  // idle gap
  }
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  for (const auto& cand : r.candidates) {
    EXPECT_LE(cand.predicted_delay_ratio, c.delay_limit + 1e-12)
        << "m=" << cand.memory_units;
  }
}

TEST(CandidateSearchTest, MeasuredServiceTimeOverridesFallback) {
  const auto c = small_config();
  cache::IdleSeries events;
  for (int i = 0; i < 6000; ++i) events.push_back(i * 0.1, 5);
  auto stats = make_stats(c, events);
  // Pretend the disk measured far faster service than the fallback: one unit
  // then satisfies the utilization limit.
  stats.actual_disk_accesses = 1000;
  stats.disk_busy_s = 1.0;  // 1 ms per access
  const auto r = search_candidates(stats, c, kFallbackService);
  EXPECT_TRUE(r.candidates.front().feasible);
}

TEST(CandidateSearchTest, MleEstimatorProducesValidAlpha) {
  auto c = small_config();
  c.alpha_estimator = AlphaEstimator::kMle;
  cache::IdleSeries events;
  for (int i = 0; i < 300; ++i) events.push_back(i * 2.0, 1 + (i % 8ull));
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  for (const auto& cand : r.candidates) {
    if (cand.idle_intervals > 0) {
      EXPECT_GT(cand.alpha, 1.0) << "m=" << cand.memory_units;
    }
  }
}

TEST(CandidateSearchTest, ExponentialRuleSpinsImmediatelyOnLongIdleness) {
  auto c = small_config();
  c.timeout_rule = TimeoutRule::kExponential;
  // Sparse accesses: mean idle far above break-even.
  cache::IdleSeries events;
  for (int i = 0; i < 10; ++i) events.push_back(i * 60.0, 1);
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  // At 1 unit everything hits; idle = whole period -> immediate spin-down
  // (possibly raised by eq. 6, but with no disk accesses that bound is 0).
  EXPECT_EQ(r.chosen.memory_units, 1u);
  EXPECT_DOUBLE_EQ(r.chosen.timeout_s, 0.0);
}

TEST(CandidateSearchTest, ExponentialRuleNeverSpinsOnShortIdleness) {
  auto c = small_config();
  c.timeout_rule = TimeoutRule::kExponential;
  // Constant cold misses with ~5 s gaps: mean idle < t_be = 11.7 s.
  cache::IdleSeries events;
  for (int i = 0; i < 120; ++i) events.push_back(i * 5.0, cache::kColdAccess);
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  EXPECT_TRUE(std::isinf(r.chosen.timeout_s));
}

TEST(CandidateSearchTest, TwoCompetitiveRuleUsesBreakEven) {
  auto c = small_config();
  c.timeout_rule = TimeoutRule::kTwoCompetitive;
  cache::IdleSeries events;
  for (int i = 0; i < 20; ++i) events.push_back(i * 30.0, 1);
  const auto r = search_candidates(make_stats(c, events), c,
                                   kFallbackService);
  EXPECT_NEAR(r.chosen.timeout_s, c.disk.break_even_s(), 1e-9);
}

TEST(CandidateSearchTest, RejectsBadInputs) {
  const auto c = small_config();
  const auto stats = make_stats(c, {});
  EXPECT_THROW(search_candidates(stats, c, 0.0), CheckError);
  auto bad = c;
  bad.period_s = 0.0;
  EXPECT_THROW(search_candidates(stats, bad, kFallbackService), CheckError);
}

}  // namespace
}  // namespace jpm::core
