#include "jpm/workload/popularity.h"

#include <bit>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "jpm/util/check.h"

namespace jpm::workload {
namespace {

// Zipf weights 1/(r+1)^s for ranks r = 0..n-1 and their sum, computed in one
// pass into a buffer reused across exponents. Normalization is left to the
// readers (w[r] / sum): that is the value an eager normalization pass would
// store, so every derived figure keeps its exact bits while the bisection
// skips n divisions per pass.
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
  // Normalized weight of rank r.
  double probability(std::size_t r) const { return w_[r] / sum_; }

  // Byte fraction of the most-requested files that together absorb
  // `hot_share` of request mass.
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

// K*: the smallest rank count k whose bytes fraction, computed as
// hot_byte_fraction computes it, exceeds `popularity`; 0 when even the
// whole set does not (popularity 1).
std::size_t ranks_to_exceed(const FileSet& files,
                            const std::vector<std::uint32_t>& rank_order,
                            double popularity) {
  std::uint64_t bytes = 0;
  for (std::size_t k = 1; k <= rank_order.size(); ++k) {
    bytes += files.file(rank_order[k - 1]).size_bytes;
    if (static_cast<double>(bytes) / static_cast<double>(files.total_bytes()) >
        popularity) {
      return k;
    }
  }
  return 0;
}

// H(N, s) = sum_{k=1..N} k^-s, with a bound on the estimate's absolute
// error. N <= 64 sums directly. Otherwise terms k < 32 are summed directly
// and the tail k = 32..N by Euler-Maclaurin: the integral of x^-s (log form
// at s = 1, expm1 elsewhere, which stays accurate near s = 1), the two
// endpoint halves and three Bernoulli corrections. Every even derivative of
// x^-s is positive for s > 0, so the remainder lies between 0 and the first
// omitted correction; the bound takes twice that term plus 1e-14 H for
// rounding (against a compensated long-double sum, the evaluation's error
// stayed below 1.6e-15 H for N up to 10^6 and s in (0, 8]).
struct Harmonic {
  double value;
  double error;
};

Harmonic harmonic(std::uint64_t n, double s) {
  constexpr std::uint64_t kDirect = 32;
  double h = 0.0;
  if (n <= 2 * kDirect) {
    for (std::uint64_t k = 1; k <= n; ++k) {
      h += std::pow(static_cast<double>(k), -s);
    }
    return {h, 1e-14 * h};
  }
  for (std::uint64_t k = 1; k < kDirect; ++k) {
    h += std::pow(static_cast<double>(k), -s);
  }
  const double a = static_cast<double>(kDirect);
  const double b = static_cast<double>(n);
  const double log_ratio = std::log(b / a);
  const double t = 1.0 - s;
  const double integral =
      t == 0.0 ? log_ratio : std::pow(a, t) * std::expm1(t * log_ratio) / t;
  const double fa = std::pow(a, -s);
  const double fb = std::pow(b, -s);
  // Correction j is B_2j/(2j)! (f^(2j-1)(b) - f^(2j-1)(a)), where
  // f^(2j-1)(x) = -s(s+1)...(s+2j-2) x^(-s-2j+1).
  const auto edge_gap = [&](int power) {
    return fa / std::pow(a, power) - fb / std::pow(b, power);
  };
  const double p1 = s;
  const double p3 = p1 * (s + 1.0) * (s + 2.0);
  const double p5 = p3 * (s + 3.0) * (s + 4.0);
  const double p7 = p5 * (s + 5.0) * (s + 6.0);
  h += integral + 0.5 * (fa + fb) + p1 * edge_gap(1) / 12.0 -
       p3 * edge_gap(3) / 720.0 + p5 * edge_gap(5) / 30240.0;
  const double omitted = p7 * edge_gap(7) / 1209600.0;
  return {h, 2.0 * std::abs(omitted) + 1e-14 * h};
}

// Whether the float mass of ranks 0..m-1 at exponent s, summed as
// hot_byte_fraction sums it, lies below `hot_share`, settled from the
// estimate R~ = H~(m) / H~(n); nullopt when R~ is too close to call.
//
// Float pass: pow is within an ulp and 1/pow adds a rounding, so each weight
// carries relative error <= 3u (u = 2^-53); the left-to-right sum of n
// positive weights adds <= (n-1)u, w[r] / sum one more, and the running sum
// of m probabilities <= (m-1)u. The float mass is therefore within
// R (n + m + 5)u of the real mass R <= 1. The estimate is within
// R~ (eps_m + eps_n) of R, eps being each H~'s relative bound, and the
// 1.01 factor covers the second-order terms. When R~ is farther from
// hot_share than the sum of both, doubled in the rounding term for the
// margin's own arithmetic, the float mass lies on R~'s side: the decision is
// the exact pass's, bit for bit.
std::optional<bool> estimated_mass_below(std::size_t n, std::size_t m,
                                         double s, double hot_share) {
  const Harmonic head = harmonic(m, s);
  const Harmonic all = harmonic(n, s);
  const double r = head.value / all.value;
  const double eps = head.error / head.value + all.error / all.value;
  const double margin =
      r * eps * 1.01 + 2.0 * static_cast<double>(n + m + 8) * 0x1p-53;
  if (std::abs(r - hot_share) > margin) return r < hot_share;
  return std::nullopt;
}

}  // namespace

double hot_byte_fraction(const FileSet& files,
                         const std::vector<std::uint32_t>& rank_order,
                         double exponent, double hot_share) {
  JPM_CHECK(rank_order.size() == files.file_count());
  JPM_CHECK(hot_share > 0.0 && hot_share < 1.0);
  ZipfWeights zipf(rank_order.size());
  zipf.compute(exponent);
  return zipf.hot_byte_fraction(files, rank_order, hot_share);
}

PopularityModel::PopularityModel(const FileSet& files,
                                 const PopularityConfig& config) {
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

  // Whether the hot bytes at exponent s exceed the target, i.e. whether
  // hot_byte_fraction(s) > popularity. Both the bytes fraction (in k) and
  // the float mass (in ranks added) never decrease, and the walk stops at
  // the first k whose mass reaches hot_share; so the fraction exceeds the
  // target exactly when the mass of ranks 0..K*-2 is below hot_share.
  // K* = 1 makes that always true and no K* always false.
  const std::size_t k_star = ranks_to_exceed(files, rank_order,
                                             config.popularity);
  ZipfWeights zipf(n);
  const auto spread_too_wide = [&](double s) {
    if (k_star == 0) return false;  // not even the whole set exceeds it
    if (k_star == 1) return true;   // the hottest file alone exceeds it
    if (const auto below =
            estimated_mass_below(n, k_star - 1, s, config.hot_share)) {
      return *below;
    }
    zipf.compute(s);
    return zipf.hot_byte_fraction(files, rank_order, config.hot_share) >
           config.popularity;
  };

  // Larger exponent => more concentration => smaller hot-byte fraction.
  // Binary search the exponent whose hot-byte fraction equals the target:
  // 60 halvings of [0, 8], cut short once the midpoint rounds onto an
  // endpoint already evaluated — re-evaluating it would leave both
  // endpoints, and so every later midpoint, where they are.
  double lo = 0.0, hi = 8.0;
  bool lo_evaluated = false, hi_evaluated = false;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if ((mid == lo && lo_evaluated) || (mid == hi && hi_evaluated)) break;
    if (spread_too_wide(mid)) {
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

  cdf_.resize(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += prob_[i];
    cdf_[i] = cum;
  }
  // Guard against rounding. Every u < 1 is below this entry, so the entries
  // below any u < 1 stay a prefix even when rounding pushed the one before
  // it past 1.
  cdf_.back() = 1.0;

  guide_.resize(std::bit_ceil(n));
  const double slots = static_cast<double>(guide_.size());
  std::size_t i = 0;
  for (std::size_t j = 0; j < guide_.size(); ++j) {
    while (cdf_[i] < static_cast<double>(j) / slots) ++i;
    guide_[j] = static_cast<std::uint32_t>(i);
  }
}

std::size_t PopularityModel::sample(Rng& rng) const {
  return quantile(rng.uniform());
}

// u >= j / size, so the first entry >= u is at or past guide_[j], and every
// entry between them is below u.
std::size_t PopularityModel::quantile(double u) const {
  JPM_DCHECK(u >= 0.0 && u < 1.0);
  std::size_t i = guide_[static_cast<std::size_t>(
      u * static_cast<double>(guide_.size()))];
  while (cdf_[i] < u) ++i;
  return i;
}

}  // namespace jpm::workload
