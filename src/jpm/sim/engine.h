// Simulation engine (paper Fig. 6b): workload trace -> disk cache -> disk,
// with a pluggable power-management method driving memory size, bank modes,
// and the disk spin-down timeout.
#pragma once

#include <memory>

#include "jpm/core/joint_power_manager.h"
#include "jpm/fault/fault.h"
#include "jpm/sim/metrics.h"
#include "jpm/sim/policies.h"
#include "jpm/workload/synthesizer.h"

namespace jpm::sim {

struct EngineConfig {
  // Shared model constants; page_bytes is taken from the workload config.
  core::JointConfig joint;
  // Storage backend geometry: 1 disk reproduces the paper; more spindles
  // exercise its multi-disk future-work extension (striped layout, per-disk
  // timeout policies, one shared joint decision).
  std::uint32_t disk_count = 1;
  std::uint64_t stripe_bytes = 64 * kMiB;
  // Latency above which a request counts as "long" (paper: half a second).
  double long_latency_threshold_s = 0.5;
  // Keep per-period records (Fig. 9 timelines); cheap, on by default.
  bool record_periods = true;
  // Warm start: stream the whole data set through cache and trackers before
  // t = 0 (no energy or latency accounted), modelling a server that has been
  // up long enough for the trace to contain no compulsory-miss storm — the
  // situation the paper's captured trace represents.
  bool prefill_cache = false;
  // Metrics (energy, latency, counters) accumulate only after this time;
  // power managers still adapt from t = 0. Keep it a multiple of the period.
  double warm_up_s = 0.0;
  // Writeback flush daemon period: every interval, all dirty pages are
  // written to disk in one (mostly sequential) burst. 0 disables background
  // flushing — dirty pages then reach disk only on eviction and at the end
  // of the run. Only matters for workloads with write traffic.
  double flush_interval_s = 30.0;
  // Sequential readahead on read misses: fetch this many following pages in
  // the same disk operation (Papathanasiou & Scott's energy-aware
  // prefetching direction). 0 disables.
  std::uint32_t readahead_pages = 0;
  // Fault injection (see fault/fault.h). Disabled by default; a disabled
  // plan leaves the run bit-identical to a config without one. Per-run
  // reliability counters surface in RunMetrics::reliability.
  fault::FaultPlan fault;
};

// Geometry of an event source. Every source feeds the engine through
// push_chunk: sweep traces (run_simulation), generator streams, JPMC files
// (FileReplay), the jpm::stream daemon and cluster shards. The data-set
// size must be declared up front (prefill, readahead bounds, the page range
// check) and the run's end arrives with Engine::finish.
struct LiveSource {
  std::uint64_t page_bytes = 256 * kKiB;
  std::uint64_t total_pages = 0;  // data-set size in pages (required)
  // Expected duration, used only for telemetry annotations; the actual end
  // is whatever finish() receives. 0 = open-ended.
  double duration_hint_s = 0.0;
};

class Engine {
 public:
  Engine(const LiveSource& source, const PolicySpec& policy,
         const EngineConfig& config);
  ~Engine();

  // Feeds events over SoA lanes, one at a time through the per-event loop.
  // Events must arrive with nondecreasing timestamps and pages below the
  // source's total_pages (std::out_of_range naming both otherwise); `flags`
  // uses the workload trace flag bits. Results are bit-identical for every
  // chunking of the same event stream.
  void push_chunk(const double* times, const std::uint64_t* pages,
                  const std::uint8_t* flags, std::size_t n);
  // Advances timers (period boundaries, flush ticks, warm-up snapshot, bank
  // expiries) to `t` without an access — the watchdog's forced period close.
  void advance_to(double t);
  // The next period boundary after the events seen so far.
  double next_boundary_s() const;
  double period_s() const;
  // Stream overload hooks. Forced fallback pins the manager to the
  // conservative posture (all memory, 2-competitive timeout, no search) at
  // every boundary while engaged; shed events are charged to the current
  // period, which is flagged degraded-accuracy when it closes.
  void set_forced_fallback(bool on);
  void note_shed(std::uint64_t events);
  // Closes the run at `end_s` (drain flushes, close the final period) and
  // returns the metrics. Single-shot.
  RunMetrics finish(double end_s);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Streams the config's synthesized events through an engine in chunks and
// finishes at the configured duration. A config that synthesizes no events
// still runs (idle for the whole duration).
RunMetrics run_simulation(const workload::SynthesizerConfig& workload,
                          const PolicySpec& policy, const EngineConfig& config);
// Replays a shared immutable trace without copying it; any number of runs
// may replay the same Trace concurrently. The trace must be nonempty and
// time-sorted (CheckError otherwise); a zero total_pages derives
// max(page) + 1 and a zero duration the last event's timestamp. Metrics are
// bit-identical to the synthesizing form when the trace came from
// workload::synthesize_trace of the same config.
RunMetrics run_simulation(const workload::Trace& trace,
                          const PolicySpec& policy, const EngineConfig& config);

}  // namespace jpm::sim
