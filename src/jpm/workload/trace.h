// Disk-cache access trace: the stream every power-management method consumes.
#pragma once

#include <cstdint>
#include <vector>

namespace jpm::workload {

// Flag bits of an event (matching the binary trace format's flag byte).
// kTraceFlagStart marks the first page of a request: a disk read for it pays
// seek and rotation, while later pages of the same request are sequential.
// kTraceFlagWrite marks a write access: the page is overwritten in the cache
// (no disk read) and becomes dirty, and a flush daemon writes it back later.
inline constexpr std::uint8_t kTraceFlagStart = 1u << 0;
inline constexpr std::uint8_t kTraceFlagWrite = 1u << 1;

// One page-granular access to the disk cache: the record the generator
// emits, the stream ring carries (stream::StreamEvent names this type) and
// the wire formats encode.
struct TraceEvent {
  double time_s = 0.0;
  std::uint64_t page = 0;
  std::uint8_t flags = 0;  // kTraceFlagStart | kTraceFlagWrite
};
static_assert(sizeof(TraceEvent) == 24);

// A fully materialized, immutable trace: synthesized (or loaded) once and
// then shared read-only by any number of concurrent engine replays. The
// derived fields are filled by synthesize_trace (synthesizer.h) so a replay
// is bit-identical to a generator-driven run of the same config.
//
// Events are stored structure-of-arrays: a replay pushes timestamps, page
// ids, and op flags into the engine as independent densely packed lanes
// (the same shape every other event source uses), instead of striding
// through 24-byte records for fields it may not need. All three lanes
// always have equal length and share one index. A decoded JPMC chunk uses
// the same lanes (tracefile::TraceReader::decode_chunk).
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
    flags.push_back(e.flags);
  }
  // Bytes the three lanes hold allocated: a chunk-window replay's working
  // set (what the capped-RSS test asserts on).
  std::size_t capacity_bytes() const {
    return times.capacity() * sizeof(double) +
           pages.capacity() * sizeof(std::uint64_t) + flags.capacity();
  }
};

}  // namespace jpm::workload
