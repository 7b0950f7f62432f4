// The popularity solve that decides every bisection midpoint with a full
// float pass: n calls to std::pow per midpoint, ~56 midpoints per solve. It
// is the all-exact form that jpm::workload::PopularityModel replaced by
// settling most midpoints from a closed-form estimate. Kept here only as the
// differential reference for popularity_test.cc: the two must agree on the
// exponent, the achieved popularity and every probability, bit for bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "jpm/util/check.h"
#include "jpm/util/rng.h"
#include "jpm/workload/fileset.h"
#include "jpm/workload/popularity.h"

namespace jpm::workload {

class ExactPopularity {
 public:
  ExactPopularity(const FileSet& files, const PopularityConfig& config) {
    JPM_CHECK(config.popularity > 0.0 && config.popularity <= 1.0);
    JPM_CHECK(config.hot_share > 0.0 && config.hot_share < 1.0);
    JPM_CHECK(files.file_count() > 0);
    const std::size_t n = files.file_count();

    // Random popularity ranking, independent of on-disk order and class.
    std::vector<std::uint32_t> rank_order(n);
    std::iota(rank_order.begin(), rank_order.end(), 0u);
    Rng rng(config.seed * 0xb5297a4du + 13);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(rank_order[i - 1], rank_order[rng.uniform_index(i)]);
    }

    // Larger exponent => more concentration => smaller hot-byte fraction.
    // Binary search the exponent whose hot-byte fraction equals the target:
    // 60 halvings of [0, 8], cut short once the midpoint rounds onto an
    // endpoint already evaluated — re-evaluating it would leave both
    // endpoints, and so every later midpoint, where they are.
    ZipfWeights zipf(n);
    double lo = 0.0, hi = 8.0;
    bool lo_evaluated = false, hi_evaluated = false;
    for (int iter = 0; iter < 60; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if ((mid == lo && lo_evaluated) || (mid == hi && hi_evaluated)) break;
      zipf.compute(mid);
      if (zipf.hot_byte_fraction(files, rank_order, config.hot_share) >
          config.popularity) {
        lo = mid;  // not concentrated enough
        lo_evaluated = true;
      } else {
        hi = mid;
        hi_evaluated = true;
      }
    }
    exponent_ = 0.5 * (lo + hi);
    if (zipf.exponent() != exponent_) zipf.compute(exponent_);
    achieved_ = zipf.hot_byte_fraction(files, rank_order, config.hot_share);

    prob_.assign(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      prob_[rank_order[r]] = zipf.probability(r);
    }
  }

  double probability(std::size_t i) const { return prob_[i]; }
  double zipf_exponent() const { return exponent_; }
  double achieved_popularity() const { return achieved_; }

 private:
  // Zipf weights 1/(r+1)^s and their sum; readers normalize lazily.
  class ZipfWeights {
   public:
    explicit ZipfWeights(std::size_t n) : w_(n) {}

    void compute(double exponent) {
      double sum = 0.0;
      for (std::size_t r = 0; r < w_.size(); ++r) {
        w_[r] = 1.0 / std::pow(static_cast<double>(r + 1), exponent);
        sum += w_[r];
      }
      sum_ = sum;
      exponent_ = exponent;
    }

    double exponent() const { return exponent_; }
    double probability(std::size_t r) const { return w_[r] / sum_; }

    double hot_byte_fraction(const FileSet& files,
                             const std::vector<std::uint32_t>& rank_order,
                             double hot_share) const {
      double mass = 0.0;
      std::uint64_t bytes = 0;
      for (std::size_t r = 0; r < rank_order.size(); ++r) {
        mass += probability(r);
        bytes += files.file(rank_order[r]).size_bytes;
        if (mass >= hot_share) break;
      }
      return static_cast<double>(bytes) /
             static_cast<double>(files.total_bytes());
    }

   private:
    std::vector<double> w_;
    double sum_ = 0.0;
    double exponent_ = -1.0;  // no exponent computed yet
  };

  std::vector<double> prob_;  // by file index
  double exponent_ = 0.0;
  double achieved_ = 0.0;
};

}  // namespace jpm::workload
