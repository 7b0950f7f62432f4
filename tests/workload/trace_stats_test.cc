#include "jpm/workload/trace_stats.h"

#include <gtest/gtest.h>

#include <numeric>

#include "jpm/util/check.h"
#include "jpm/workload/synthesizer.h"
#include "make_trace.h"

namespace jpm::workload {
namespace {

using test::make_trace;
constexpr auto kStart = kTraceFlagStart;

TEST(CharacterizeTest, EmptyTraceIsZero) {
  const auto c = characterize(make_trace({}, 64 * kKiB));
  EXPECT_EQ(c.events, 0u);
  EXPECT_EQ(c.requests, 0u);
  EXPECT_EQ(c.duration_s, 0.0);
}

TEST(CharacterizeTest, CountsAndRates) {
  const auto trace = make_trace(
      {
          {0.0, 1, kStart},
          {1.0, 2, kStart | kTraceFlagWrite},  // a write
          {2.0, 1, kStart},
          {4.0, 3, kStart},
      },
      kMiB);
  const auto c = characterize(trace);
  EXPECT_EQ(c.events, 4u);
  EXPECT_EQ(c.requests, 4u);
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.distinct_pages, 3u);
  EXPECT_DOUBLE_EQ(c.duration_s, 4.0);
  EXPECT_DOUBLE_EQ(c.request_rate_per_s, 1.0);
  EXPECT_DOUBLE_EQ(c.byte_rate_per_s, 4.0 * static_cast<double>(kMiB) / 4.0);
  // Gaps 1, 1, 2.
  EXPECT_NEAR(c.mean_interarrival_s, 4.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(c.max_interarrival_s, 2.0);
  EXPECT_EQ(c.cold_accesses, 3u);
}

TEST(CharacterizeTest, ReuseBucketsByDepth) {
  // Page 1 re-accessed immediately (depth 1 -> bucket 0), then after two
  // intervening distinct pages (depth 3 -> bucket 1).
  const auto trace = make_trace({{0.0, 1, kStart},
                                 {1.0, 1, kStart},
                                 {2.0, 2, kStart},
                                 {3.0, 3, kStart},
                                 {4.0, 1, kStart}},
                                kMiB);
  const auto c = characterize(trace);
  ASSERT_GE(c.reuse_depth_pow2.size(), 2u);
  EXPECT_EQ(c.reuse_depth_pow2[0], 1u);  // depth 1
  EXPECT_EQ(c.reuse_depth_pow2[1], 1u);  // depth 3
}

TEST(CharacterizeTest, HotFractionDetectsSkew) {
  // 90 accesses to page 0, one access each to pages 1..10.
  Trace trace;
  trace.page_bytes = kMiB;
  for (int i = 0; i < 90; ++i) {
    trace.push_back({static_cast<double>(trace.size()), 0, kStart});
  }
  for (std::uint64_t p = 1; p <= 10; ++p) {
    trace.push_back({static_cast<double>(trace.size()), p, kStart});
  }
  const auto c = characterize(trace);
  // One of eleven pages carries 90% of the mass.
  EXPECT_NEAR(c.hot_page_fraction_90, 1.0 / 11.0, 1e-9);
}

TEST(CharacterizeTest, MatchesSynthesizerConfiguration) {
  SynthesizerConfig cfg;
  cfg.dataset_bytes = mib(256);
  cfg.byte_rate = 10e6;
  cfg.popularity = 0.1;
  cfg.duration_s = 300.0;
  cfg.page_bytes = 64 * kKiB;
  cfg.rate_modulation = 0.0;
  cfg.seed = 8;
  const auto c = characterize(synthesize_trace(cfg));
  TraceGenerator gen(cfg);
  const double expected_rate =
      cfg.byte_rate / gen.model()->mean_request_bytes();
  EXPECT_NEAR(c.request_rate_per_s / expected_rate, 1.0, 0.15);
  // Measured page-level popularity tracks the configured byte-level knob
  // loosely (pages aggregate small files).
  EXPECT_LT(c.hot_page_fraction_90, 0.5);
}

TEST(IdleGapsTest, GapsBetweenMissesOnly) {
  // Cache of 2 pages; stream: 1, 2 (misses), 1 (hit), 3 (miss at t=9).
  const auto trace = make_trace(
      {{0.0, 1, kStart}, {1.0, 2, kStart}, {2.0, 1, kStart}, {9.0, 3, kStart}});
  const auto gaps = idle_gaps_at_cache_size(trace, 2, 0.0);
  // Misses at 0, 1, 9 -> gaps 1 and 8.
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 1.0);
  EXPECT_DOUBLE_EQ(gaps[1], 8.0);
}

TEST(IdleGapsTest, WindowFiltersShortGaps) {
  const auto trace =
      make_trace({{0.0, 1, kStart}, {1.0, 2, kStart}, {9.0, 3, kStart}});
  const auto gaps = idle_gaps_at_cache_size(trace, 1, 2.0);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_DOUBLE_EQ(gaps[0], 8.0);
}

TEST(IdleGapsTest, BiggerCacheLeavesFewerLongerGaps) {
  SynthesizerConfig cfg;
  cfg.dataset_bytes = mib(128);
  cfg.byte_rate = 10e6;
  cfg.duration_s = 120.0;
  cfg.page_bytes = 64 * kKiB;
  cfg.seed = 10;
  const auto trace = synthesize_trace(cfg);
  // Note: a bigger cache can report MORE gaps above the window — dense
  // sub-window gaps merge into countable ones — so the invariants are the
  // mean gap length and the raw miss count, not the filtered gap count.
  const auto small = idle_gaps_at_cache_size(trace, 256, 0.1);
  const auto big = idle_gaps_at_cache_size(trace, 1024, 0.1);
  const auto small_all = idle_gaps_at_cache_size(trace, 256, 0.0);
  const auto big_all = idle_gaps_at_cache_size(trace, 1024, 0.0);
  ASSERT_FALSE(small.empty());
  ASSERT_FALSE(big.empty());
  EXPECT_LT(big_all.size(), small_all.size());  // fewer misses overall
  const double mean_small =
      std::accumulate(small.begin(), small.end(), 0.0) / small.size();
  const double mean_big =
      std::accumulate(big.begin(), big.end(), 0.0) / big.size();
  EXPECT_GT(mean_big, mean_small);
}

TEST(IdleGapsTest, RejectsZeroCache) {
  EXPECT_THROW(idle_gaps_at_cache_size(Trace{}, 0, 0.1), CheckError);
}

}  // namespace
}  // namespace jpm::workload
