// Trace inspector: characterize a disk-cache trace and recommend a timeout.
//
//   ./examples/trace_inspector <trace-file> [cache_gib]
//   ./examples/trace_inspector --demo [cache_gib]
//
// Loads a JPMC or CSV trace (see tracefile/reader.h), prints the
// measured workload characteristics, derives the idle-interval population a
// given cache size would leave the disk, fits the paper's Pareto model, and
// prints the recommended timeout — the timeout-advisor pipeline applied to a
// real trace instead of synthetic gaps.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "jpm/disk/disk_model.h"
#include "jpm/pareto/pareto.h"
#include "jpm/pareto/timeout_math.h"
#include "jpm/tracefile/reader.h"
#include "jpm/workload/synthesizer.h"
#include "jpm/workload/trace_stats.h"

using namespace jpm;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <trace.jpmc|trace.csv|--demo> [cache_gib]\n",
                 argv[0]);
    return 1;
  }
  workload::Trace trace;
  if (std::strcmp(argv[1], "--demo") == 0) {
    workload::SynthesizerConfig cfg;
    cfg.dataset_bytes = gib(4);
    cfg.byte_rate = 20e6;
    cfg.popularity = 0.1;
    cfg.duration_s = 1200.0;
    cfg.page_bytes = 64 * kKiB;
    cfg.seed = 3;
    trace = workload::synthesize_trace(cfg);
    std::puts("(demo trace: 4 GiB data set, 20 MB/s, popularity 0.1)");
  } else {
    trace = tracefile::load_any_trace(argv[1]);
    // CSV carries no geometry (JPMC does): assume 64 KiB pages.
    if (trace.page_bytes == 0) trace.page_bytes = 64 * kKiB;
  }
  const double cache_gib = argc > 2 ? std::atof(argv[2]) : 1.0;
  const auto cache_pages =
      static_cast<std::uint64_t>(cache_gib * static_cast<double>(kGiB) /
                                 static_cast<double>(trace.page_bytes));

  const auto c = workload::characterize(trace);
  std::printf("\ntrace: %llu events, %llu requests (%llu writes), "
              "%llu distinct pages, %.0f s\n",
              static_cast<unsigned long long>(c.events),
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.writes),
              static_cast<unsigned long long>(c.distinct_pages),
              c.duration_s);
  std::printf("rates: %.1f req/s, %.2f MB/s page-granular\n",
              c.request_rate_per_s, c.byte_rate_per_s / 1e6);
  std::printf("popularity: hottest %.1f%% of pages receive 90%% of "
              "accesses\n",
              c.hot_page_fraction_90 * 100.0);
  std::printf("reuse: %llu cold accesses; depth histogram (pow-2 pages):",
              static_cast<unsigned long long>(c.cold_accesses));
  for (std::size_t k = 0; k < c.reuse_depth_pow2.size(); ++k) {
    if (c.reuse_depth_pow2[k] > 0) {
      std::printf(" [2^%zu]=%llu", k,
                  static_cast<unsigned long long>(c.reuse_depth_pow2[k]));
    }
  }
  std::puts("");

  const double window_s = 0.1;
  const auto gaps =
      workload::idle_gaps_at_cache_size(trace, cache_pages, window_s);
  std::printf("\nwith a %.1f GiB LRU cache: %zu disk idle intervals >= "
              "%.1f s window\n",
              cache_gib, gaps.size(), window_s);
  if (gaps.size() < 3) {
    std::puts("too few idle intervals to fit; the disk would rarely sleep");
    return 0;
  }
  const double mean =
      std::accumulate(gaps.begin(), gaps.end(), 0.0) /
      static_cast<double>(gaps.size());
  const auto fit = pareto::fit_from_mean(mean, window_s);
  const auto disk = disk::DiskParams{}.timeout_params();
  std::printf("mean idle %.3f s -> Pareto alpha %.2f -> recommended timeout "
              "%.1f s (expected p_d-band power %.2f W vs %.2f W never-off)\n",
              mean, fit.alpha(), pareto::optimal_timeout(fit, disk),
              pareto::expected_power(fit, static_cast<double>(gaps.size()),
                                     c.duration_s,
                                     pareto::optimal_timeout(fit, disk),
                                     disk),
              disk.static_power_w);
  return 0;
}
