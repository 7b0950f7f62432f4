#include "jpm/workload/popularity.h"

#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include "jpm/util/hash.h"
#include "jpm/util/rng.h"

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

}  // namespace
}  // namespace jpm::workload
