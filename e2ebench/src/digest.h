// Digests and invariant checks over simulated statistics. A digest covers
// every counter, the bit pattern of every energy/time figure and every
// period record, so two runs agree on their digest only when their
// statistics are identical bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "jpm/sim/metrics.h"

namespace e2e {

// FNV-1a 64 over the bytes fed to it.
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_f64(double v);  // the IEEE bit pattern, so -0.0 != 0.0
  void add_str(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t digest_run(const jpm::sim::RunMetrics& m);
// Order-sensitive digest of a sequence of digests.
std::uint64_t digest_all(const std::vector<std::uint64_t>& digests);
std::string hex16(std::uint64_t v);

// Invariants every run must satisfy; returns an empty string or the first
// violation. The measured window's period records must add up to the run's
// access counters (warm-up is a whole number of periods in every workload),
// except for up to `trailing_events`: events at or after the declared
// duration are counted in the run's totals, but when the duration is a whole
// number of periods they fall into a period that is never closed.
std::string check_run(const jpm::sim::RunMetrics& m, double warm_up_s,
                      std::uint64_t trailing_events);

}  // namespace e2e
