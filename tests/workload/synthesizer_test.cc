#include "jpm/workload/synthesizer.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <unordered_set>

#include "jpm/util/check.h"

namespace jpm::workload {
namespace {

SynthesizerConfig small_cfg() {
  SynthesizerConfig c;
  c.dataset_bytes = mib(256);
  c.byte_rate = 10e6;
  c.popularity = 0.1;
  c.duration_s = 120.0;
  c.page_bytes = 64 * kKiB;
  c.file_scale = 4.0;
  c.rate_modulation = 0.0;
  c.seed = 9;
  return c;
}

TEST(SynthesizerConfigTest, ValidateAcceptsSaneConfigs) {
  EXPECT_NO_THROW(small_cfg().validate());
  EXPECT_NO_THROW(SynthesizerConfig{}.validate());
  // A modulated rate byte_rate (1 + a sin) stays positive for a < 1; with
  // modulation off the amplitude is unused.
  auto cfg = small_cfg();
  ASSERT_GT(cfg.modulation_period_s, 0.0);
  cfg.rate_modulation = 0.99;
  EXPECT_NO_THROW(cfg.validate());
  cfg.rate_modulation = 1.5;
  cfg.modulation_period_s = 0.0;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SynthesizerConfigTest, ValidateNamesTheOffendingKnob) {
  const auto expect_rejected = [](SynthesizerConfig cfg, const char* knob) {
    try {
      cfg.validate();
      FAIL() << "expected std::invalid_argument naming " << knob;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("invalid SynthesizerConfig"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find(knob), std::string::npos);
    }
  };
  auto cfg = small_cfg();
  cfg.dataset_bytes = 0;
  expect_rejected(cfg, "dataset_bytes");
  cfg = small_cfg();
  cfg.page_bytes = 0;
  expect_rejected(cfg, "page_bytes");
  cfg = small_cfg();
  cfg.byte_rate = 0.0;
  expect_rejected(cfg, "byte_rate");
  cfg = small_cfg();
  cfg.duration_s = -1.0;
  expect_rejected(cfg, "duration_s");
  cfg = small_cfg();
  cfg.popularity = 1.5;
  expect_rejected(cfg, "popularity");
  cfg = small_cfg();
  cfg.popularity = 0.0;  // no Zipf exponent puts 90% of requests on no bytes
  expect_rejected(cfg, "popularity must lie in (0, 1]");
  cfg = small_cfg();
  cfg.file_scale = 0.0;
  expect_rejected(cfg, "file_scale");
  cfg = small_cfg();
  cfg.temporal_locality = -0.1;
  expect_rejected(cfg, "temporal_locality");
  cfg = small_cfg();
  cfg.write_fraction = 2.0;
  expect_rejected(cfg, "write_fraction");
  // At a = 1 the modulated rate reaches 0 at a trough, and an infinite
  // arrival gap ends the stream early; above 1 arrivals run backward.
  cfg = small_cfg();
  cfg.rate_modulation = 1.0;
  expect_rejected(cfg, "rate_modulation");
  cfg.rate_modulation = 1.5;
  expect_rejected(cfg, "rate_modulation");
}

TEST(SynthesizerConfigTest, GeneratorRejectsInvalidConfig) {
  auto cfg = small_cfg();
  cfg.byte_rate = 0.0;
  EXPECT_THROW(TraceGenerator{cfg}, std::invalid_argument);
  EXPECT_THROW(synthesize_trace(cfg), std::invalid_argument);
}

TEST(SynthesizerTest, TimesNondecreasingAndBounded) {
  const auto trace = synthesize_trace(small_cfg());
  ASSERT_FALSE(trace.empty());
  double prev = 0.0;
  for (const double t : trace.times) {
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_LT(trace.times.front(), 10.0);
}

TEST(SynthesizerTest, RequestRateMatchesOfferedByteRate) {
  // Requests arrive at byte_rate / E[request bytes]; page rounding inflates
  // the raw page-byte volume, so the request count is the honest check.
  const auto cfg = small_cfg();
  TraceGenerator gen(cfg);
  const double expected_requests =
      cfg.byte_rate * cfg.duration_s / gen.model()->mean_request_bytes();
  std::uint64_t requests = 0;
  while (auto e = gen.next()) requests += (e->flags & kTraceFlagStart) != 0;
  EXPECT_NEAR(static_cast<double>(requests) / expected_requests, 1.0, 0.1);
}

TEST(SynthesizerTest, RequestsAreContiguousPageRuns) {
  // Continuation pages could interleave with other requests in time, but
  // each request's own pages ascend by one; we can't check across
  // interleaving here, so just ensure start flags exist.
  const auto trace = synthesize_trace(small_cfg());
  std::uint64_t starts = 0;
  for (const auto f : trace.flags) starts += (f & kTraceFlagStart) != 0;
  EXPECT_GT(starts, 0u);
  EXPECT_LE(starts, trace.size());
}

TEST(SynthesizerTest, PagesWithinDataset) {
  TraceGenerator gen(small_cfg());
  const std::uint64_t total = gen.total_pages();
  while (auto e = gen.next()) EXPECT_LT(e->page, total);
}

TEST(SynthesizerTest, DeterministicForSeed) {
  const auto a = synthesize_trace(small_cfg());
  const auto b = synthesize_trace(small_cfg());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.pages[i], b.pages[i]);
    EXPECT_DOUBLE_EQ(a.times[i], b.times[i]);
  }
}

TEST(SynthesizerTest, ResetReplaysIdenticalStream) {
  TraceGenerator gen(small_cfg());
  Trace first;
  for (int i = 0; i < 1000; ++i) {
    auto e = gen.next();
    if (!e) break;
    first.push_back(*e);
  }
  gen.reset();
  for (std::size_t i = 0; i < first.size(); ++i) {
    auto e = gen.next();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->page, first.pages[i]);
    EXPECT_DOUBLE_EQ(e->time_s, first.times[i]);
  }
}

TEST(SynthesizerTest, HigherRateMoreEvents) {
  auto lo = small_cfg();
  auto hi = small_cfg();
  hi.byte_rate = 4 * lo.byte_rate;
  const double ratio = static_cast<double>(synthesize_trace(hi).size()) /
                       static_cast<double>(synthesize_trace(lo).size());
  EXPECT_NEAR(ratio, 4.0, 0.8);
}

TEST(SynthesizerTest, DensePopularityTouchesFewerDistinctPages) {
  auto dense = small_cfg();
  dense.popularity = 0.05;
  auto sparse = small_cfg();
  sparse.popularity = 0.6;
  auto distinct = [](const Trace& t) {
    return std::unordered_set<std::uint64_t>(t.pages.begin(), t.pages.end())
        .size();
  };
  EXPECT_LT(distinct(synthesize_trace(dense)),
            distinct(synthesize_trace(sparse)));
}

TEST(SynthesizerTest, RateModulationChangesPerMinuteCounts) {
  auto cfg = small_cfg();
  cfg.duration_s = 600.0;
  cfg.rate_modulation = 0.5;
  cfg.modulation_period_s = 600.0;
  const auto trace = synthesize_trace(cfg);
  // First quarter (rising sine) should carry more traffic than the third
  // quarter (falling below baseline).
  std::uint64_t q1 = 0, q3 = 0;
  for (const double t : trace.times) {
    if (t < 150.0) ++q1;
    if (t >= 300.0 && t < 450.0) ++q3;
  }
  EXPECT_GT(q1, q3);
}

TEST(SynthesizerTest, MeanRequestBytesIsPopularityWeighted) {
  TraceGenerator gen(small_cfg());
  EXPECT_GT(gen.model()->mean_request_bytes(), 0.0);
  EXPECT_LT(gen.model()->mean_request_bytes(),
            static_cast<double>(gen.model()->files().total_bytes()));
}

TEST(SynthesizerTest, TemporalLocalityRaisesReuse) {
  // Sparse popularity keeps baseline short-range reuse rare; a tight
  // locality window forces the locality draws to repeat recent requests.
  auto plain = small_cfg();
  plain.popularity = 0.6;
  auto local = plain;
  local.temporal_locality = 0.8;
  local.locality_window = 256;
  // Fraction of requests whose first page appeared among the previous 256
  // request starts.
  auto short_range_reuse = [](const Trace& t) {
    std::vector<std::uint64_t> recent;
    std::uint64_t repeats = 0, starts = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if ((t.flags[i] & kTraceFlagStart) == 0) continue;
      ++starts;
      for (std::uint64_t p : recent) {
        if (p == t.pages[i]) {
          ++repeats;
          break;
        }
      }
      recent.push_back(t.pages[i]);
      if (recent.size() > 256) recent.erase(recent.begin());
    }
    return static_cast<double>(repeats) / static_cast<double>(starts);
  };
  const double with = short_range_reuse(synthesize_trace(local));
  const double without = short_range_reuse(synthesize_trace(plain));
  EXPECT_GT(with, without + 0.3);
}

TEST(SynthesizerTest, TemporalLocalityKeepsDeterminism) {
  auto cfg = small_cfg();
  cfg.temporal_locality = 0.7;
  const auto a = synthesize_trace(cfg);
  const auto b = synthesize_trace(cfg);
  EXPECT_EQ(a.pages, b.pages);
}

TEST(SynthesizerTest, ZeroLocalityWindowDisablesReuse) {
  auto cfg = small_cfg();
  cfg.temporal_locality = 0.9;
  cfg.locality_window = 0;
  // Must behave like the plain configuration (no recent buffer to draw
  // from) and, critically, not crash.
  const auto t = synthesize_trace(cfg);
  EXPECT_FALSE(t.empty());
}

TEST(SynthesizerTest, WriteFractionProducesWrites) {
  auto cfg = small_cfg();
  cfg.write_fraction = 0.25;
  const auto trace = synthesize_trace(cfg);
  std::uint64_t write_requests = 0, requests = 0;
  for (const auto f : trace.flags) {
    if ((f & kTraceFlagStart) == 0) continue;
    ++requests;
    write_requests += (f & kTraceFlagWrite) != 0;
  }
  ASSERT_GT(requests, 100u);
  EXPECT_NEAR(static_cast<double>(write_requests) /
                  static_cast<double>(requests),
              0.25, 0.05);
}

TEST(SynthesizerTest, WriteFlagCoversWholeRequest) {
  // At a very low rate requests almost never interleave, so each block from
  // one request start to the next is a single request whose pages must all
  // carry the same write flag.
  auto cfg = small_cfg();
  cfg.write_fraction = 0.5;
  cfg.byte_rate = 0.2e6;
  cfg.duration_s = 600.0;
  const auto trace = synthesize_trace(cfg);
  bool current = false;
  std::uint64_t continuations = 0, mismatches = 0;
  for (const auto f : trace.flags) {
    const bool is_write = (f & kTraceFlagWrite) != 0;
    if ((f & kTraceFlagStart) != 0) {
      current = is_write;
    } else {
      ++continuations;
      mismatches += is_write != current;
    }
  }
  // Allow a tiny number of mismatches from the rare interleaved request.
  EXPECT_LE(mismatches, continuations / 20 + 1);
}

TEST(SynthesizerTest, ZeroWriteFractionKeepsLegacyStream) {
  // The write extension must not consume RNG draws when disabled, so traces
  // from older configurations stay bit-identical.
  auto cfg = small_cfg();
  const auto a = synthesize_trace(cfg);
  for (const auto f : a.flags) ASSERT_EQ(f & kTraceFlagWrite, 0);
}

// ---- shared workload models ------------------------------------------------

void expect_same_lanes(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.page_bytes, b.page_bytes);
  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.duration_s, b.duration_s);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.times, b.times);
  EXPECT_EQ(a.pages, b.pages);
  EXPECT_EQ(a.flags, b.flags);
}

TEST(WorkloadModelTest, SharedModelStreamMatchesUnsharedLanes) {
  // One model serves generators differing in every non-key knob — writes
  // and temporal locality included — each bit-identical to a generator that
  // built its own.
  auto plain = small_cfg();
  auto writes = plain;
  writes.write_fraction = 0.3;
  writes.byte_rate = 25e6;
  auto local = plain;
  local.temporal_locality = 0.6;
  local.locality_window = 64;
  local.page_bytes = 16 * kKiB;
  local.rate_modulation = 0.3;
  local.modulation_period_s = 60.0;

  const auto model = build_model(plain);
  for (const auto& cfg : {plain, writes, local}) {
    SCOPED_TRACE(testing::Message() << "write_fraction " << cfg.write_fraction
                                    << ", temporal_locality "
                                    << cfg.temporal_locality);
    const Trace shared = synthesize_trace(cfg, model);
    expect_same_lanes(shared, synthesize_trace(cfg));
    ASSERT_FALSE(shared.empty());
  }
  // Writes and locality actually took effect on the shared model.
  const Trace with_writes = synthesize_trace(writes, model);
  bool any_write = false;
  for (const auto f : with_writes.flags) any_write |= (f & kTraceFlagWrite) != 0;
  EXPECT_TRUE(any_write);
}

TEST(WorkloadModelTest, GeneratorRejectsModelBuiltForAnotherKey) {
  auto cfg = small_cfg();
  auto other = cfg;
  other.seed = 10;
  const auto model = build_model(other);
  try {
    TraceGenerator gen(cfg, model);
    FAIL() << "expected a CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("seed=10"), std::string::npos) << what;
    EXPECT_NE(what.find("seed=9"), std::string::npos) << what;
    EXPECT_NE(what.find("dataset_bytes=268435456"), std::string::npos) << what;
  }
  EXPECT_THROW(TraceGenerator(cfg, nullptr), CheckError);
}

TEST(WorkloadModelTest, SharedGeneratorStillValidatesItsConfig) {
  auto cfg = small_cfg();
  const auto model = build_model(cfg);
  cfg.byte_rate = 0.0;  // not a key field: the model still matches
  EXPECT_THROW(TraceGenerator(cfg, model), std::invalid_argument);
}

TEST(WorkloadModelTest, ResetKeepsTheModel) {
  TraceGenerator gen(small_cfg());
  const auto model = gen.model();
  while (gen.next()) {
  }
  gen.reset();
  EXPECT_EQ(gen.model(), model);
  const auto first = gen.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->time_s, TraceGenerator(small_cfg()).next()->time_s);
}

TEST(WorkloadModelTest, TotalPagesHelperMatchesGenerator) {
  for (const std::uint64_t dataset : {mib(64), mib(512)}) {
    for (const double file_scale : {4.0, 16.0}) {
      for (const std::uint64_t page : {4 * kKiB, 64 * kKiB, 256 * kKiB}) {
        auto cfg = small_cfg();
        cfg.dataset_bytes = dataset;
        cfg.file_scale = file_scale;
        cfg.page_bytes = page;
        cfg.seed = dataset / kMiB + page;
        SCOPED_TRACE(testing::Message() << dataset << " B, file_scale "
                                        << file_scale << ", page " << page);
        EXPECT_EQ(total_pages(cfg), TraceGenerator(cfg).total_pages());
      }
    }
  }
  auto bad = small_cfg();
  bad.page_bytes = 0;
  EXPECT_THROW(total_pages(bad), std::invalid_argument);
}

}  // namespace
}  // namespace jpm::workload
