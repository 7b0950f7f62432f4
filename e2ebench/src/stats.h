// Order statistics for reported timings.
#pragma once

#include <cstddef>
#include <vector>

namespace e2e {

// The middle value (mean of the two middle values for an even count);
// 0 for an empty sample.
double median(std::vector<double> v);

// Nearest-rank percentile: the smallest sample with at least p% of the
// sample at or below it. 0 for an empty sample.
double percentile(std::vector<double> v, double p);

struct Tail {
  double p = 0.0;          // percentile (0 when the sample is too small)
  double value = 0.0;
  std::size_t beyond = 0;  // samples ranked above it
};
// The highest of p50, p90, p99, p99.9, ... that still has at least
// `min_beyond` samples ranked above it.
Tail tail_percentile(std::vector<double> v, std::size_t min_beyond = 10);

}  // namespace e2e
