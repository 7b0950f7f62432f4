// Push-mode streaming engine (jpm::stream).
//
// StreamEngine is the daemon core: producer threads offer() live events into
// a bounded MPSC EventRing, a single consumer thread pump()s them into a
// push-mode sim::Engine that makes the paper's T-period joint decisions as
// the stream arrives. What happens when producers outrun the consumer is an
// explicit, spec-configurable policy:
//
//   * block   — a full ring back-pressures the producer: offer() waits up to
//               block_timeout_s for space, then sheds the event (counted as
//               a block timeout AND a shed).
//   * shed    — drop-newest: a full ring sheds immediately, with per-class
//               (read/write) shed counters. Shed events are charged to the
//               simulated period that was current when the consumer noticed
//               them, which closes flagged degraded-accuracy.
//   * degrade — offers behave like block, and additionally while ring
//               occupancy sits above high_watermark the joint manager is
//               pinned to its conservative fallback posture (all memory,
//               2-competitive timeout, no candidate search) so each period
//               boundary costs O(1); occupancy below low_watermark releases
//               it. Affected periods are flagged degraded.
//
// A watchdog in run_until_closed() detects a stalled stream (no events for
// watchdog_timeout_s of wall time) and forces a clean close of the current
// simulated period, so reports never hang on a half-open period. Timestamps
// are clamped monotonic (live producers race; simulated time cannot go
// backwards) with a counter recording how often.
//
// Threading contract: offer()/close() from any number of threads;
// pump()/run_until_closed()/force_period_close()/finish*() from exactly one
// consumer thread. Driven lock-step from a single thread (as the overload
// tests do), every counter and metric is deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "jpm/sim/engine.h"
#include "jpm/stream/ring.h"

namespace jpm::stream {

enum class OverloadPolicy { kBlock, kShed, kDegrade };

const char* overload_policy_name(OverloadPolicy policy);
// Parses "block" / "shed" / "degrade"; returns false on an unknown name.
bool overload_policy_from_name(const std::string& name, OverloadPolicy* out);

struct StreamConfig {
  // Ring slots; power of two in [1, 2^30].
  std::uint64_t ring_capacity = 1024;
  OverloadPolicy overload = OverloadPolicy::kBlock;
  // Degrade policy watermarks, as occupancy fractions of ring_capacity:
  // engage the conservative fallback at >= high, release at <= low.
  double high_watermark = 0.875;
  double low_watermark = 0.5;
  // Longest a blocked offer() waits for ring space before shedding.
  double block_timeout_s = 1.0;
  // Wall-clock silence after which the watchdog forces a period close;
  // 0 disables the watchdog.
  double watchdog_timeout_s = 5.0;
  // Events drained per pump() into one engine chunk (SoA hot path).
  std::uint32_t max_batch = 256;

  friend bool operator==(const StreamConfig&, const StreamConfig&) = default;
};

// Throws std::invalid_argument naming the offending knob.
void validate(const StreamConfig& config);

// Point-in-time counters; exact once producers have stopped.
struct StreamStats {
  std::uint64_t events_offered = 0;    // offer() calls
  std::uint64_t events_accepted = 0;   // made it into the ring
  std::uint64_t events_processed = 0;  // reached the engine
  std::uint64_t shed_reads = 0;
  std::uint64_t shed_writes = 0;
  std::uint64_t block_waits = 0;     // offers that waited at least once
  std::uint64_t block_timeouts = 0;  // waits that expired (event shed)
  double blocked_s = 0.0;            // producer wall time spent waiting
  std::uint64_t degrade_engagements = 0;
  std::uint64_t watchdog_closes = 0;
  std::uint64_t clamped_timestamps = 0;  // non-monotonic arrivals clamped
  std::uint64_t max_occupancy = 0;       // high-water mark of ring occupancy
};

class StreamEngine {
 public:
  // Validates `stream_config` (see validate()) before building the ring or
  // the engine from it.
  StreamEngine(const sim::LiveSource& source, const sim::PolicySpec& policy,
               const sim::EngineConfig& engine_config,
               const StreamConfig& stream_config);

  // ---- producer side (any thread) ----------------------------------------
  // Applies the overload policy; returns true iff the event entered the
  // ring (false = shed, after any configured blocking wait).
  bool offer(const StreamEvent& event);
  // EOF: no further offers; the consumer drains what remains.
  void close() { ring_.close(); }

  // ---- consumer side (one thread) ----------------------------------------
  // Drains up to max_batch events into the engine; returns the count.
  std::size_t pump();
  // Pumps until close() + a drained ring, with the watchdog forcing period
  // closes across wall-clock stalls. Returns with the ring drained.
  void run_until_closed();
  // Advances simulated time to the next period boundary without an access —
  // the watchdog's action, callable directly for deterministic tests.
  void force_period_close();
  bool drained() const { return ring_.drained(); }

  // Ends the run: drains any pending shed accounting, publishes stream
  // telemetry, and closes the engine. finish() picks the end time as the
  // latest of the last event, the source's duration hint, and one period
  // past warm-up (a run must outlast its warm-up).
  sim::RunMetrics finish();
  sim::RunMetrics finish_at(double end_s);

  StreamStats stats() const;
  const StreamConfig& config() const { return config_; }
  std::size_t ring_occupancy() const { return ring_.size_approx(); }
  double last_time_s() const { return last_time_; }

 private:
  bool offer_blocking(const StreamEvent& event);
  void shed(const StreamEvent& event);
  void drain_pending_shed();
  void update_degrade(std::size_t occupancy);
  void publish_telemetry(double end_s);

  StreamConfig config_;
  EventRing ring_;
  sim::Engine engine_;
  double warm_up_s_;
  double duration_hint_s_;

  // Producer-shared counters (consumer reads them in stats()/drain).
  std::atomic<std::uint64_t> events_offered_{0};
  std::atomic<std::uint64_t> events_accepted_{0};
  std::atomic<std::uint64_t> shed_reads_{0};
  std::atomic<std::uint64_t> shed_writes_{0};
  std::atomic<std::uint64_t> pending_shed_{0};  // not yet charged to a period
  std::atomic<std::uint64_t> block_waits_{0};
  std::atomic<std::uint64_t> block_timeouts_{0};
  std::atomic<std::uint64_t> blocked_ns_{0};

  // Consumer-only state.
  std::uint64_t events_processed_ = 0;
  std::uint64_t degrade_engagements_ = 0;
  std::uint64_t watchdog_closes_ = 0;
  std::uint64_t clamped_timestamps_ = 0;
  std::uint64_t max_occupancy_ = 0;
  bool degrade_engaged_ = false;
  bool finished_ = false;
  double last_time_ = 0.0;  // simulated clock high-water mark
  std::vector<StreamEvent> scratch_;
  std::vector<double> times_;
  std::vector<std::uint64_t> pages_;
  std::vector<std::uint8_t> flags_;
};

}  // namespace jpm::stream
