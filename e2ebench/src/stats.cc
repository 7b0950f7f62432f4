#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2e {
namespace {

// Zero-based nearest-rank index of percentile p in a sample of n.
std::size_t rank_index(std::size_t n, double p) {
  // The epsilon keeps e.g. 99.9% of 1000 at rank 999 despite rounding in p.
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const auto k = static_cast<std::size_t>(std::max(r, 1.0));
  return std::min(k, n) - 1;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[rank_index(v.size(), p)];
}

Tail tail_percentile(std::vector<double> v, std::size_t min_beyond) {
  Tail best;
  if (v.empty()) return best;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  double p = 50.0;
  for (int step = 0; step < 9; ++step) {
    const std::size_t k = rank_index(n, p);
    const std::size_t beyond = n - 1 - k;
    if (beyond < min_beyond) break;
    best = Tail{p, v[k], beyond};
    p = step == 0 ? 90.0 : 100.0 - (100.0 - p) / 10.0;
  }
  return best;
}

}  // namespace e2e
