// Popularity assignment with the paper's knob.
//
// The paper defines popularity as "the ratio between the size of the most
// popular data receiving 90% of total accesses and the size of the total data
// set" — e.g. popularity 0.1 means the hottest 10% of bytes receive 90% of
// requests. We realize this with a Zipf(s) weight over a random permutation of
// files and solve for the exponent s (binary search; concentration is
// monotone in s) so that the measured hot-byte fraction equals the requested
// popularity. Most bisection midpoints are settled from a closed-form
// estimate with a proven error margin; the rest take the exact float pass
// (see popularity.cc), so the solve's bits are those of the all-exact one.
#pragma once

#include <cstdint>
#include <vector>

#include "jpm/util/rng.h"
#include "jpm/workload/fileset.h"

namespace jpm::workload {

struct PopularityConfig {
  // Fraction of data-set bytes that should receive `hot_share` of requests.
  double popularity = 0.1;
  // Request mass concentrated on the hot bytes (paper fixes this at 90%).
  double hot_share = 0.9;
  std::uint64_t seed = 1;
};

// Per-file request probabilities plus a sampler.
class PopularityModel {
 public:
  PopularityModel(const FileSet& files, const PopularityConfig& config);

  // Probability that a request targets file i.
  double probability(std::size_t i) const { return prob_[i]; }
  // Draws a file index with the modeled distribution: quantile(rng.uniform()).
  std::size_t sample(Rng& rng) const;
  // CDF inverse: the first file index whose cumulative probability is >= u,
  // for u in [0, 1) (std::lower_bound's index over the CDF). A guide table
  // of bit_ceil(n) entries finds it in O(1) expected steps.
  std::size_t quantile(double u) const;

  // The Zipf exponent the solver converged to.
  double zipf_exponent() const { return exponent_; }
  // The achieved popularity (hot-byte fraction receiving hot_share of
  // requests) — should match the config within solver tolerance.
  double achieved_popularity() const { return achieved_; }

 private:
  std::vector<double> prob_;  // by file index
  std::vector<double> cdf_;   // cumulative, by file index; back() is 1.0
  // guide_[j] = first index whose CDF is >= j / guide_.size(); the size is
  // a power of two, so u * size and j / size are exact.
  std::vector<std::uint32_t> guide_;
  double exponent_ = 0.0;
  double achieved_ = 0.0;
};

// Computes the byte fraction of the most-requested files that together absorb
// `hot_share` of request mass, for Zipf exponent s over files in `rank_order`
// (rank_order[r] = file index of popularity rank r). Exposed for testing.
double hot_byte_fraction(const FileSet& files,
                         const std::vector<std::uint32_t>& rank_order,
                         double exponent, double hot_share);

}  // namespace jpm::workload
