// Trace characterization: measures, on any disk-cache trace (synthetic or
// captured), exactly the quantities the paper's method keys on — request
// rates, popularity concentration, reuse distances, and the idle-interval
// structure a given memory size would leave the disk.
//
// Use this to sanity-check a captured trace before replaying it, or to
// verify a synthesized trace matches its configuration.
#pragma once

#include <cstdint>
#include <vector>

#include "jpm/workload/trace.h"

namespace jpm::workload {

struct TraceCharacterization {
  // Volume.
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  std::uint64_t writes = 0;
  std::uint64_t distinct_pages = 0;
  double duration_s = 0.0;
  double request_rate_per_s = 0.0;
  double byte_rate_per_s = 0.0;  // page-granular

  // Popularity: fraction of distinct pages receiving 90% of the accesses
  // (the paper's popularity knob, measured on pages).
  double hot_page_fraction_90 = 0.0;

  // Reuse: fraction of accesses whose LRU stack depth (in pages) falls
  // within each power-of-two bucket; cold accesses excluded.
  std::vector<std::uint64_t> reuse_depth_pow2;  // [k] = depths in [2^k,2^{k+1})
  std::uint64_t cold_accesses = 0;

  // Inter-request gaps.
  double mean_interarrival_s = 0.0;
  double max_interarrival_s = 0.0;
};

// Measures `trace` from its events alone: the duration is the last event's
// timestamp, whatever duration the trace declares. The byte rate needs the
// trace's page_bytes (CheckError when it is 0, as a CSV load leaves it).
TraceCharacterization characterize(const Trace& trace);

// Idle-interval lengths the disk would see with an LRU cache of
// `cache_pages` (gaps between consecutive misses, aggregation window
// applied). Useful to feed the Pareto fitting utilities directly.
std::vector<double> idle_gaps_at_cache_size(const Trace& trace,
                                            std::uint64_t cache_pages,
                                            double window_s);

}  // namespace jpm::workload
