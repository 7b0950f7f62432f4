// Reusable metric registries attached to one telemetry stream (one
// simulation run): counters, gauges, fixed-bucket histograms, and numeric
// tables (the per-period timeline, the manager's decision log).
//
// A RunRecorder is single-writer: exactly one thread may mutate it at a
// time (the thread holding the ScopedRun). All containers are ordered maps
// keyed by name, so export order is alphabetical and deterministic
// regardless of creation order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "jpm/telemetry/telemetry.h"
#include "jpm/util/stats.h"

namespace jpm::telemetry {

struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
};

// Last-write-wins sample with running min/max (queue depth, memory size...).
struct Gauge {
  double value = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t samples = 0;
  void set(double v) {
    if (samples == 0) {
      min = max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    value = v;
    ++samples;
  }
};

// Fixed-column numeric table; rows append in simulation order.
class TableRecorder {
 public:
  explicit TableRecorder(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void add_row(std::initializer_list<double> row) {
    rows_.emplace_back(row);
  }
  void add_row(std::vector<double> row) { rows_.push_back(std::move(row)); }

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<double>>& rows() const { return rows_; }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
};

// Shared bucket layouts so the same quantity uses the same histogram shape
// in every subsystem (and across threads — the layouts are closed-form).
namespace buckets {
// 1 ms .. 10 ks, 4 per decade: idle intervals and period-scale durations.
std::vector<double> idle_seconds();
// 0.1 ms .. 100 s, 4 per decade: request latency, queue backlog.
std::vector<double> latency_seconds();
// 0 .. 60 s linear-ish spin-up wait (retry storms land in overflow).
std::vector<double> spinup_seconds();
}  // namespace buckets

class RunRecorder {
 public:
  // `event_capacity` is the session's ring capacity: the recorder keeps the
  // stream's last that many events however often its thread's ring was
  // flushed into it, so a run whose binding switches many times (a
  // trajectory group member) records what one unbroken binding would.
  RunRecorder(std::string name, std::uint32_t stream,
              std::size_t event_capacity =
                  std::numeric_limits<std::size_t>::max())
      : name_(std::move(name)), stream_(stream),
        event_capacity_(event_capacity) {}

  const std::string& name() const { return name_; }
  std::uint32_t stream() const { return stream_; }

  // All accessors get-or-create; pointers remain stable for the recorder's
  // lifetime (node-based maps), so hot paths can cache them.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  BucketHistogram& histogram(const std::string& name,
                                   const std::vector<double>& bounds) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, BucketHistogram(bounds)).first;
    }
    return it->second;
  }
  TableRecorder& table(const std::string& name,
                       std::vector<std::string> columns) {
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      it = tables_.emplace(name, TableRecorder(std::move(columns))).first;
    }
    return it->second;
  }

  // Export access (deterministic: alphabetical by name).
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, BucketHistogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, TableRecorder>& tables() const {
    return tables_;
  }
  const std::deque<Event>& events() const { return events_; }
  std::uint64_t dropped_events() const { return dropped_events_; }

  // Ring-flush sink (telemetry.cc); callable directly for tests.
  void append_events(const Event* events, std::size_t n,
                     std::uint64_t dropped) {
    events_.insert(events_.end(), events, events + n);
    dropped_events_ += dropped;
    for (; events_.size() > event_capacity_; ++dropped_events_) {
      events_.pop_front();
    }
  }

 private:
  std::string name_;
  std::uint32_t stream_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, BucketHistogram> histograms_;
  std::map<std::string, TableRecorder> tables_;
  std::size_t event_capacity_;
  std::deque<Event> events_;
  std::uint64_t dropped_events_ = 0;
};

}  // namespace jpm::telemetry
