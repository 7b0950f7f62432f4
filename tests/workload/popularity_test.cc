#include "jpm/workload/popularity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <vector>

#include "jpm/util/hash.h"
#include "jpm/util/rng.h"
#include "workload/exact_popularity.h"

namespace jpm::workload {
namespace {

FileSet make_files(std::uint64_t dataset = mib(256)) {
  FileSetConfig c;
  c.dataset_bytes = dataset;
  c.base_dataset_bytes = mib(256);
  c.file_scale = 1.0;
  c.seed = 7;
  return FileSet(c);
}

TEST(PopularityTest, ProbabilitiesSumToOne) {
  const auto files = make_files();
  PopularityModel pop(files, PopularityConfig{0.1, 0.9, 1});
  double sum = 0.0;
  for (std::size_t i = 0; i < files.file_count(); ++i) {
    sum += pop.probability(i);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

class PopularitySolverTest : public ::testing::TestWithParam<double> {};

TEST_P(PopularitySolverTest, SolverHitsTargetHotByteFraction) {
  const double target = GetParam();
  const auto files = make_files();
  PopularityModel pop(files, PopularityConfig{target, 0.9, 1});
  EXPECT_NEAR(pop.achieved_popularity(), target, 0.03) << "target " << target;
}

INSTANTIATE_TEST_SUITE_P(PaperSweep, PopularitySolverTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4, 0.6));

TEST(PopularityTest, DenserPopularityMeansHigherExponent) {
  const auto files = make_files();
  PopularityModel dense(files, PopularityConfig{0.05, 0.9, 1});
  PopularityModel sparse(files, PopularityConfig{0.6, 0.9, 1});
  EXPECT_GT(dense.zipf_exponent(), sparse.zipf_exponent());
}

TEST(PopularityTest, SamplerMatchesProbabilities) {
  const auto files = make_files(mib(32));
  PopularityModel pop(files, PopularityConfig{0.2, 0.9, 1});
  Rng rng(17);
  std::vector<std::uint64_t> counts(files.file_count(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[pop.sample(rng)];
  // Check the most popular files' empirical frequencies.
  std::size_t top = 0;
  for (std::size_t i = 1; i < counts.size(); ++i) {
    if (pop.probability(i) > pop.probability(top)) top = i;
  }
  EXPECT_NEAR(static_cast<double>(counts[top]) / n, pop.probability(top),
              0.01);
}

TEST(PopularityTest, EmpiricalHotShareMatchesDefinition) {
  // Draw requests and verify the paper's definition: the most popular files
  // covering `popularity` of the bytes absorb ~90% of the draws.
  const auto files = make_files(mib(64));
  const double target = 0.1;
  PopularityModel pop(files, PopularityConfig{target, 0.9, 1});
  Rng rng(23);
  std::vector<std::uint64_t> counts(files.file_count(), 0);
  const int n = 300000;
  for (int i = 0; i < n; ++i) ++counts[pop.sample(rng)];

  // Sort files by probability descending and accumulate bytes until we reach
  // the target byte fraction; sum their draw counts.
  std::vector<std::size_t> order(files.file_count());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pop.probability(a) > pop.probability(b);
  });
  std::uint64_t bytes = 0, draws = 0;
  const auto budget = static_cast<std::uint64_t>(
      target * static_cast<double>(files.total_bytes()));
  for (std::size_t idx : order) {
    if (bytes >= budget) break;
    bytes += files.file(idx).size_bytes;
    draws += counts[idx];
  }
  EXPECT_NEAR(static_cast<double>(draws) / n, 0.9, 0.04);
}

TEST(PopularityTest, HotByteFractionMonotoneInExponent) {
  const auto files = make_files(mib(32));
  std::vector<std::uint32_t> order(files.file_count());
  std::iota(order.begin(), order.end(), 0u);
  double prev = 1.0;
  for (double s : {0.2, 0.6, 1.0, 1.5, 2.5}) {
    const double frac = hot_byte_fraction(files, order, s, 0.9);
    EXPECT_LE(frac, prev + 1e-12) << "s=" << s;
    prev = frac;
  }
}

TEST(PopularityTest, DeterministicForSeed) {
  const auto files = make_files(mib(32));
  PopularityModel a(files, PopularityConfig{0.1, 0.9, 5});
  PopularityModel b(files, PopularityConfig{0.1, 0.9, 5});
  for (std::size_t i = 0; i < files.file_count(); ++i) {
    EXPECT_EQ(a.probability(i), b.probability(i));
  }
}

// The solver's exact output, pinned bit for bit: the exponent feeds every
// probability, hence the mean request size, hence every synthesized arrival
// time. Any reordered sum or approximated pow shows up here first. Values
// were recorded from the unoptimized solver (60 full bisection passes, each
// normalizing all n weights, then two more passes) at the synthesizer's file
// sets: base data set 4 GB, both the fleet (16) and fig8_popularity (4) file
// scales.
struct PinnedSolve {
  std::uint64_t dataset_bytes;
  double file_scale;
  double popularity;
  std::uint64_t seed;
  std::uint64_t exponent_bits;
  std::uint64_t achieved_bits;
  std::uint64_t probability_fnv;  // FNV-1a over the probabilities' bytes
};

TEST(PopularityTest, SolveIsBitIdenticalToPinnedValues) {
  const PinnedSolve cases[] = {
      {gib(16), 16, 0.1, 1, 0x3ff255f10a57c838ull, 0x3fb9a5f886176d6cull,
       0xe95195acb492b687ull},  // 32239 files: the fleet point
      {gib(4), 16, 0.05, 2, 0x3ff3980d97356ce6ull, 0x3fa9bb949dfed38eull,
       0x40bf56d9ea3bcf32ull},
      {gib(4), 16, 0.4, 3, 0x3fef3f2555893b8cull, 0x3fd999444fd9616full,
       0xf82c85409728a661ull},
      {gib(4), 16, 0.6, 7, 0x3fea3667cc825442ull, 0x3fe33542e250f214ull,
       0x4259a8376cbdbbb7ull},
      {gib(1), 4, 0.05, 1, 0x3ff354bee8f2e93cull, 0x3fa96006568828f5ull,
       0x5c4a73656d927eb8ull},
      {gib(1), 4, 0.2, 5, 0x3ff12e866889dc36ull, 0x3fc9bd54737bb609ull,
       0xd0ae91471b39f5e3ull},
      {gib(1), 4, 0.6, 11, 0x3fea5c777091b058ull, 0x3fe333388a0af55dull,
       0x4be20e7be7a2ac49ull},
      {mib(256), 4, 0.1, 9, 0x3ff2b7838e8a7036ull, 0x3fb959a6bf753ac3ull,
       0x49455cab157cc624ull},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << c.dataset_bytes << " B, file_scale "
                                    << c.file_scale << ", popularity "
                                    << c.popularity << ", seed " << c.seed);
    const FileSet files(
        FileSetConfig{c.dataset_bytes, gib(4), c.file_scale, c.seed});
    const PopularityModel pop(files, PopularityConfig{c.popularity, 0.9,
                                                      c.seed});
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pop.zipf_exponent()),
              c.exponent_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pop.achieved_popularity()),
              c.achieved_bits);
    util::Fnv1a64 hash;
    for (std::size_t i = 0; i < files.file_count(); ++i) {
      const double p = pop.probability(i);
      hash.update(&p, sizeof p);
    }
    EXPECT_EQ(hash.digest(), c.probability_fnv);
  }
}

// The solve settles most bisection midpoints from a closed-form estimate and
// must land exactly where deciding every midpoint with a float pass lands.
// Keys are seeded and spread over the four file scales, data sets from
// 64 MB up (capped near 40,000 files to keep the all-exact oracle fast),
// popularity up to 1 (no prefix of the files exceeds it) and down to 1e-12
// (the hottest file alone does), and a few hot shares besides the paper's.
// Three more keys are close calls: at some midpoint their float hot mass
// and the real one straddle hot_share farther apart than the estimate's own
// error, so only the margin's float-rounding term keeps them exact (found by
// searching 1,600 seeded keys for ones that move without that term).
struct SolveKey {
  std::uint64_t dataset_bytes;
  double file_scale;
  double popularity;
  double hot_share;
  std::uint64_t seed;
};

std::vector<SolveKey> seeded_solve_keys() {
  constexpr double kScales[] = {1.0, 4.0, 16.0, 64.0};
  constexpr double kHotShares[] = {0.5, 0.75, 0.99};
  std::vector<SolveKey> keys;
  Rng rng(20240611);
  for (int i = 0; i < 104; ++i) {
    SolveKey k{};
    k.file_scale = kScales[i % 4];
    // File count grows as sqrt(data set) / file_scale: 32,239 files at
    // 16 GB and file scale 16.
    const double cap = 16.0 * static_cast<double>(gib(1)) *
                       std::pow(0.075 * k.file_scale, 2.0);
    const double low = static_cast<double>(mib(64));
    k.dataset_bytes = static_cast<std::uint64_t>(
        low * std::pow(cap / low, rng.uniform()));
    k.popularity = rng.uniform(0.02, 1.0);
    if (i % 10 == 0) k.popularity = 1.0;
    if (i % 10 == 1) k.popularity = 1e-12;
    k.hot_share = i % 7 == 3 ? kHotShares[(i / 7) % 3] : 0.9;
    k.seed = 1 + rng.uniform_index(1000000);
    keys.push_back(k);
  }
  keys.push_back({86470617, 1.0, 0.24022906293237173, 0.9, 493293});
  keys.push_back({928969559, 4.0, 0.63706749136529728, 0.9, 549696});
  keys.push_back({92403631, 1.0, 0.51257351279272012, 0.9, 224181});
  return keys;
}

TEST(PopularityTest, SolveMatchesExactBisectionOnSeededKeys) {
  for (const SolveKey& k : seeded_solve_keys()) {
    SCOPED_TRACE(testing::Message()
                 << k.dataset_bytes << " B, file_scale " << k.file_scale
                 << ", popularity " << k.popularity << ", hot_share "
                 << k.hot_share << ", seed " << k.seed);
    const FileSet files(
        FileSetConfig{k.dataset_bytes, gib(4), k.file_scale, k.seed});
    ASSERT_LE(files.file_count(), 40000u);
    const PopularityConfig config{k.popularity, k.hot_share, k.seed};
    const ExactPopularity exact(files, config);
    const PopularityModel pop(files, config);
    if (k.popularity == 1e-12) {
      ASSERT_EQ(exact.zipf_exponent(), 8.0);  // K* = 1: every midpoint is low
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pop.zipf_exponent()),
              std::bit_cast<std::uint64_t>(exact.zipf_exponent()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pop.achieved_popularity()),
              std::bit_cast<std::uint64_t>(exact.achieved_popularity()));
    std::size_t differing = 0;
    for (std::size_t f = 0; f < files.file_count(); ++f) {
      if (std::bit_cast<std::uint64_t>(pop.probability(f)) !=
          std::bit_cast<std::uint64_t>(exact.probability(f))) {
        ++differing;
      }
    }
    EXPECT_EQ(differing, 0u);
  }
}

// The CDF the model samples from, rebuilt from its probabilities the way the
// model builds it, with std::lower_bound as the reference inverse.
std::size_t lower_bound_index(const std::vector<double>& cdf, double u) {
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

// Checks quantile() against lower_bound on 1M seeded draws, through
// sample(), and at the guide table's edges: 0, every j / 2^b, the double
// just below each, and the largest uniform draw, 1 - 2^-53.
void expect_quantile_matches_lower_bound(const FileSet& files,
                                         const PopularityModel& pop) {
  const std::size_t n = files.file_count();
  std::vector<double> cdf(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += pop.probability(i);
    cdf[i] = cum;
  }
  cdf.back() = 1.0;

  Rng draws(99), mirror(99);
  std::size_t differing = 0;
  for (int k = 0; k < 1000000; ++k) {
    if (pop.sample(draws) != lower_bound_index(cdf, mirror.uniform())) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0u) << "of 1M seeded draws";

  const std::size_t slots = std::bit_ceil(n);
  std::vector<double> edges = {0.0, 1.0 - 0x1p-53};
  for (std::size_t j = 1; j < slots; ++j) {
    const double edge = static_cast<double>(j) / static_cast<double>(slots);
    edges.push_back(edge);
    edges.push_back(std::nextafter(edge, 0.0));
  }
  differing = 0;
  for (const double u : edges) {
    if (pop.quantile(u) != lower_bound_index(cdf, u)) ++differing;
  }
  EXPECT_EQ(differing, 0u) << "of " << edges.size() << " guide edges";
}

TEST(PopularityTest, QuantileMatchesLowerBoundAtScenarioShapes) {
  const struct {
    std::uint64_t dataset_bytes;
    double file_scale;
    double popularity;
    std::uint64_t seed;
  } shapes[] = {
      {gib(16), 16.0, 0.1, 1},  // the fleet point, 32,239 files
      {gib(1), 4.0, 0.05, 3},
      {mib(256), 1.0, 0.6, 7},
  };
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message() << s.dataset_bytes << " B, file_scale "
                                    << s.file_scale);
    const FileSet files(
        FileSetConfig{s.dataset_bytes, gib(4), s.file_scale, s.seed});
    const PopularityModel pop(files,
                              PopularityConfig{s.popularity, 0.9, s.seed});
    expect_quantile_matches_lower_bound(files, pop);
  }
}

// At popularity 1 the exponent is ~2^-58, every weight rounds to 1 and,
// over 2,048 files, every CDF entry is exactly (i + 1) / 2^11: each guide
// edge j / 2^11 lands on an entry, which lower_bound returns.
TEST(PopularityTest, QuantileReturnsEntriesEqualToAGuideEdge) {
  const FileSet files(FileSetConfig{mib(1057), gib(4), 64.0, 1});
  ASSERT_EQ(files.file_count(), 2048u);
  const PopularityModel pop(files, PopularityConfig{1.0, 0.9, 1});
  for (std::size_t i = 0; i < files.file_count(); ++i) {
    ASSERT_EQ(pop.probability(i), 0x1p-11) << "file " << i;
  }
  for (std::size_t j = 1; j < 2048; ++j) {
    EXPECT_EQ(pop.quantile(static_cast<double>(j) * 0x1p-11), j - 1);
  }
  expect_quantile_matches_lower_bound(files, pop);
}

}  // namespace
}  // namespace jpm::workload
