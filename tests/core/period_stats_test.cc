#include "jpm/core/period_stats.h"

#include <gtest/gtest.h>

namespace jpm::core {
namespace {

TEST(PeriodStatsCollectorTest, CollectsAccesses) {
  PeriodStatsCollector c(4, 16, 0.0);
  c.on_access(1.0, cache::kColdAccess);
  c.on_access(2.0, 5);
  c.on_disk_access(0.01);
  const auto s = c.harvest(10.0);
  EXPECT_EQ(s.cache_accesses, 2u);
  EXPECT_EQ(s.cold_accesses, 1u);
  EXPECT_EQ(s.actual_disk_accesses, 1u);
  EXPECT_DOUBLE_EQ(s.disk_busy_s, 0.01);
  EXPECT_DOUBLE_EQ(s.start_s, 0.0);
  EXPECT_DOUBLE_EQ(s.end_s, 10.0);
  ASSERT_EQ(s.events.size(), 2u);
  EXPECT_EQ(s.events.depths[1], 5u);
  EXPECT_EQ(s.curve.total_accesses(), 2u);
}

TEST(PeriodStatsCollectorTest, HarvestRestartsCollection) {
  PeriodStatsCollector c(4, 16, 0.0);
  c.on_access(1.0, 3);
  c.harvest(5.0);
  c.on_access(6.0, 7);
  const auto s = c.harvest(10.0);
  EXPECT_EQ(s.cache_accesses, 1u);
  EXPECT_DOUBLE_EQ(s.start_s, 5.0);
  EXPECT_EQ(s.events.depths[0], 7u);
}

TEST(PeriodStatsTest, MeanServiceHandlesZeroAccesses) {
  PeriodStats s;
  EXPECT_EQ(s.mean_service_s(), 0.0);
  s.actual_disk_accesses = 4;
  s.disk_busy_s = 0.08;
  EXPECT_DOUBLE_EQ(s.mean_service_s(), 0.02);
}

TEST(PeriodStatsCollectorTest, EmptyPeriodHarvests) {
  PeriodStatsCollector c(4, 16, 0.0);
  const auto s = c.harvest(10.0);
  EXPECT_EQ(s.cache_accesses, 0u);
  EXPECT_TRUE(s.events.empty());
  EXPECT_DOUBLE_EQ(s.duration_s(), 10.0);
}

}  // namespace
}  // namespace jpm::core
