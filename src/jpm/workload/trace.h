// Disk-cache access trace: the stream every power-management method consumes.
#pragma once

#include <cstdint>
#include <vector>

namespace jpm::workload {

// One page-granular access to the disk cache.
struct TraceEvent {
  double time_s = 0.0;
  std::uint64_t page = 0;
  // True for the first page of a request: a disk read for this page pays seek
  // and rotation; subsequent pages of the same request are sequential.
  bool request_start = false;
  // Write access: the page is overwritten in the cache (no disk read) and
  // becomes dirty; a flush daemon writes it back later.
  bool is_write = false;
};

// Flag bits of Trace::flags (matching the binary trace format's flag byte).
inline constexpr std::uint8_t kTraceFlagStart = 1u << 0;
inline constexpr std::uint8_t kTraceFlagWrite = 1u << 1;

// A fully materialized, immutable trace: synthesized (or loaded) once and
// then shared read-only by any number of concurrent engine replays. The
// derived fields are filled by synthesize_trace (synthesizer.h) so a replay
// is bit-identical to a generator-driven run of the same config.
//
// Events are stored structure-of-arrays: a replay pushes timestamps, page
// ids, and op flags into the engine as independent densely packed lanes
// (the same shape every other event source uses), instead of striding
// through 24-byte AoS records for fields it may not need. All three lanes
// always have equal length and share one index.
struct Trace {
  std::vector<double> times;          // time-sorted
  std::vector<std::uint64_t> pages;
  std::vector<std::uint8_t> flags;    // kTraceFlagStart | kTraceFlagWrite
  std::uint64_t page_bytes = 0;
  std::uint64_t total_pages = 0;   // data-set size in pages (linear layout)
  double duration_s = 0.0;         // simulated duration

  std::size_t size() const { return times.size(); }
  bool empty() const { return times.empty(); }
  void reserve(std::size_t n) {
    times.reserve(n);
    pages.reserve(n);
    flags.reserve(n);
  }
  void push_back(const TraceEvent& e) {
    times.push_back(e.time_s);
    pages.push_back(e.page);
    flags.push_back(
        static_cast<std::uint8_t>((e.request_start ? kTraceFlagStart : 0) |
                                  (e.is_write ? kTraceFlagWrite : 0)));
  }
  // By-value event view for callers indexing the AoS way.
  TraceEvent event(std::size_t i) const {
    return TraceEvent{times[i], pages[i], (flags[i] & kTraceFlagStart) != 0,
                      (flags[i] & kTraceFlagWrite) != 0};
  }
  // AoS materialization (persistence, interop with vector<TraceEvent> APIs).
  std::vector<TraceEvent> to_events() const;
};

// Builds a Trace from an AoS event vector plus the derived fields.
Trace trace_from_events(const std::vector<TraceEvent>& events,
                        std::uint64_t page_bytes, std::uint64_t total_pages,
                        double duration_s);

// Materialized trace plus summary properties used by harness reporting.
struct TraceSummary {
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  std::uint64_t writes = 0;
  std::uint64_t distinct_pages = 0;
  double duration_s = 0.0;
  double bytes_accessed = 0.0;  // events * page_bytes
};

TraceSummary summarize(const std::vector<TraceEvent>& trace,
                       std::uint64_t page_bytes);
TraceSummary summarize(const Trace& trace);

}  // namespace jpm::workload
