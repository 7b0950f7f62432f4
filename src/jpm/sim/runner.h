// Experiment runner: executes policy rosters over workload sweeps and
// normalizes results against the always-on baseline, the way every evaluation
// figure in the paper is reported.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "jpm/sim/engine.h"

namespace jpm::sim {

// Reorders lines produced by concurrently completing jobs so the sink sees
// them in job order, not completion order. Workers call emit(job, line) as
// they finish; each line is buffered until every lower-numbered job has
// emitted, then the contiguous prefix flushes to the sink. The full progress
// stream is therefore deterministic under any scheduler — a prerequisite for
// the work-stealing fan-out, where completion order varies run to run. Sink
// calls are serialized (made under the internal lock). Each job must emit
// exactly once.
class OrderedProgress {
 public:
  OrderedProgress(std::size_t jobs,
                  std::function<void(const std::string&)> sink);
  void emit(std::size_t job, std::string line);

 private:
  std::function<void(const std::string&)> sink_;
  std::mutex mu_;
  std::vector<std::string> lines_;
  std::vector<bool> ready_;
  std::size_t next_ = 0;
};

struct RunOutcome {
  PolicySpec spec;
  RunMetrics metrics;
  NormalizedEnergy normalized;  // vs the sweep's always-on run
};

struct SweepPoint {
  std::string label;                   // e.g. "16GB" or "100MB/s"
  workload::SynthesizerConfig workload;
  std::vector<RunOutcome> outcomes;    // same order as the policy roster
  RunMetrics baseline;                 // the always-on run
};

// One named sweep point, as a scenario file declares it and a sweep runs
// it. The label is the table column header ("16GB", "100MB/s", "0.05").
// The event source is synthesized from `workload` (the default), or — when
// `trace_path` is set (the scenario's "trace": {"path": ...}) — replayed
// from a JPMC trace file (see jpm/tracefile/) that is mmap'd once and
// shared read-only by all of the point's policy runs, each decoding one
// chunk window at a time. The workload section still declares the geometry
// the scenario validates against: the file's page size must match it.
// Metrics are bit-identical to synthesizing when the file came from
// synthesize_to_file of the same workload config. Relative paths resolve
// against the working directory at run time.
struct SweepWorkload {
  std::string label;
  workload::SynthesizerConfig workload;
  std::string trace_path;  // empty = synthesize
  // Grid provenance: the point's coordinates on each named sweep axis, in
  // axis declaration order (empty for hand-listed points). Published into
  // the point's telemetry runs as `axis/<name>` gauges so reports are
  // self-describing about where in the grid each run sits.
  std::vector<std::pair<std::string, double>> axes;
};

// Runs every policy for every workload; the roster must contain exactly one
// always-on entry, used as the normalization baseline. Each workload's trace
// is synthesized (or mmap'd) once and shared read-only by all of its policy
// runs; points sharing a workload model (workload::SharedModels) share its
// popularity solve too. Methods sharing a cache trajectory
// (sim::trajectory_groups) run as one engine, one job per (point, group).
// The jobs fan out as stealable tasks (JPM_THREADS workers, default
// hardware concurrency, 1 = serial) — results are bit-identical to each
// method running alone, regardless of worker count or which worker ran
// which task. `progress` (optional) is invoked with a human-readable line
// per method, serialized and in deterministic order (point-major, each
// point's baseline first, then roster order) regardless of completion
// order.
std::vector<SweepPoint> run_sweep(
    const std::vector<SweepWorkload>& workloads,
    const std::vector<PolicySpec>& roster, const EngineConfig& config,
    const std::function<void(const std::string&)>& progress = {});

}  // namespace jpm::sim
