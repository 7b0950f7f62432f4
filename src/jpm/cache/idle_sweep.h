// Disk idle-interval prediction across candidate memory sizes (paper
// Section IV-B, Fig. 4).
//
// Given one period's accesses annotated with LRU stack depths, the accesses
// that remain disk accesses at candidate size m are exactly those with depth
// beyond m (plus cold misses). Growing m removes accesses and merges the
// idle gaps around them. The sweep processes candidate sizes in ascending
// order over a doubly-linked list of events: every event is removed exactly
// once, so the whole sweep costs O(events + candidates) while maintaining the
// count and total length of idle intervals at least as long as the
// aggregation window w (intervals shorter than w "provide no opportunity for
// saving energy" and are ignored, per the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "jpm/cache/stack_distance.h"

namespace jpm::cache {

// One period's accesses in structure-of-arrays layout: the sweep and the
// collector touch timestamps and depths in independent streaming passes, so
// splitting the lanes keeps each pass on densely packed cache lines. Both
// lanes always have equal length.
struct IdleSeries {
  std::vector<double> times;  // time-ordered
  // LRU stack depth in frames, or kColdAccess for compulsory misses (which
  // no memory size can absorb).
  std::vector<std::uint64_t> depths;

  std::size_t size() const { return times.size(); }
  bool empty() const { return times.empty(); }
  void clear() {
    times.clear();
    depths.clear();
  }
  void reserve(std::size_t n) {
    times.reserve(n);
    depths.reserve(n);
  }
  void push_back(double t, std::uint64_t depth) {
    times.push_back(t);
    depths.push_back(depth);
  }
};

struct IdleEstimate {
  std::uint64_t memory_units = 0;  // candidate size, in enumeration units
  std::uint64_t disk_accesses = 0;
  std::uint64_t idle_intervals = 0;  // gaps >= window
  double idle_time_s = 0.0;          // total length of those gaps
  double mean_idle_s = 0.0;          // idle_time / intervals (0 if none)
  // Sum of ln(gap) over the counted gaps — enough for the Pareto
  // maximum-likelihood alpha estimate without retaining the samples.
  double log_idle_sum = 0.0;
};

// Sweeps the given candidate sizes (ascending, in enumeration units).
//
// events must be sorted by time and fall within [period_start, period_end];
// the period boundaries act as sentinels, so leading/trailing quiet stretches
// count as idle intervals. window_s is the paper's aggregation window w.
//
// One call per period per run; its working vectors are thread-local scratch
// reused across calls.
std::vector<IdleEstimate> sweep_idle_intervals(
    const IdleSeries& events, double period_start_s, double period_end_s,
    std::uint64_t unit_frames, double window_s,
    const std::vector<std::uint64_t>& candidate_units);

}  // namespace jpm::cache
