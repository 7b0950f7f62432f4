#include "jpm/sim/runner.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "jpm/sim/file_replay.h"
#include "jpm/telemetry/registry.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/util/check.h"
#include "jpm/util/hash.h"
#include "jpm/util/parallel.h"
#include "jpm/workload/shared_models.h"

namespace jpm::sim {
namespace {

// The roster's single always-on entry: every energy figure normalizes
// against it, so its absence (or duplication) is a configuration error.
std::size_t find_baseline(const std::vector<PolicySpec>& roster) {
  std::size_t baseline = roster.size();
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (roster[i].is_baseline()) {
      JPM_CHECK_MSG(baseline == roster.size(),
                    "roster must contain exactly one always-on baseline; "
                    "found both \"" << roster[baseline].name << "\" and \""
                                    << roster[i].name << "\"");
      baseline = i;
    }
  }
  JPM_CHECK_MSG(baseline < roster.size(),
                "roster needs an always-on baseline to normalize energy "
                "against (no non-multi-speed always-on entry found)");
  return baseline;
}

}  // namespace

OrderedProgress::OrderedProgress(std::size_t jobs,
                                 std::function<void(const std::string&)> sink)
    : sink_(std::move(sink)), lines_(jobs), ready_(jobs, false) {}

void OrderedProgress::emit(std::size_t job, std::string line) {
  const std::lock_guard<std::mutex> lock(mu_);
  JPM_CHECK_MSG(job < ready_.size() && !ready_[job],
                "OrderedProgress: job " << job << " emitted twice or out of "
                                        << ready_.size());
  lines_[job] = std::move(line);
  ready_[job] = true;
  while (next_ < ready_.size() && ready_[next_]) {
    sink_(lines_[next_]);
    lines_[next_].clear();  // release the buffered line eagerly
    ++next_;
  }
}

std::vector<SweepPoint> run_sweep(
    const std::vector<SweepWorkload>& workloads,
    const std::vector<PolicySpec>& roster, const EngineConfig& config,
    const std::function<void(const std::string&)>& progress) {
  const std::size_t baseline_index = find_baseline(roster);
  const std::size_t n_points = workloads.size();
  const std::size_t n_policies = roster.size();

  // Materialize each sweep point's event source exactly once; every policy
  // run then consumes it read-only. Synthesized points build an in-RAM
  // trace; file-backed points mmap their JPMC file (index validated here,
  // chunks decoded per run inside a reusable window — the whole trace never
  // lands in memory). All randomness lives in the synthesizer, whose stream
  // derives solely from the point's seed, so neither sharing nor scheduling
  // can change any metric.
  TELEM_EVENT(kSweep, "sweep_begin", 0.0,
              {"points", static_cast<double>(n_points)},
              {"policies", static_cast<double>(n_policies)});
  std::vector<workload::Trace> traces(n_points);
  std::vector<std::unique_ptr<tracefile::TraceReader>> readers(n_points);
  std::vector<std::size_t> mapped, synthesized;
  std::vector<workload::SynthesizerConfig> synthesized_configs;
  for (std::size_t i = 0; i < n_points; ++i) {
    if (!workloads[i].trace_path.empty()) {
      mapped.push_back(i);
    } else {
      synthesized.push_back(i);
      synthesized_configs.push_back(workloads[i].workload);
    }
  }
  util::parallel_for(mapped.size(), [&](std::size_t k) {
    const std::size_t i = mapped[k];
    const telemetry::SpanTimer span("map_trace", workloads[i].label);
    readers[i] =
        std::make_unique<tracefile::TraceReader>(workloads[i].trace_path);
    JPM_CHECK_MSG(
        readers[i]->header().page_bytes == workloads[i].workload.page_bytes,
        workloads[i].trace_path
            << ": trace page_bytes (" << readers[i]->header().page_bytes
            << ") disagrees with the workload section's ("
            << workloads[i].workload.page_bytes
            << ") the scenario was validated against");
  });
  // Points that differ only in rate, duration or other non-key knobs share
  // one workload model (one popularity solve), synthesized model-major so
  // each model is freed after its last point.
  workload::SharedModels models(std::move(synthesized_configs));
  util::parallel_for(synthesized.size(), [&](std::size_t k) {
    const std::size_t job = models.order()[k];
    const std::size_t i = synthesized[job];
    const telemetry::SpanTimer span("synthesize", workloads[i].label);
    traces[i] = workload::synthesize_trace(workloads[i].workload,
                                           models.acquire(job));
  });
  // Publish file provenance in point order (deterministic, independent of
  // the parallel open above).
  for (std::size_t i = 0; i < n_points; ++i) {
    if (readers[i] != nullptr) {
      telemetry::add_trace(workloads[i].trace_path,
                           util::hex16(readers[i]->header().content_hash));
    }
  }

  std::vector<SweepPoint> points(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    points[i].label = workloads[i].label;
    points[i].workload = workloads[i].workload;
    points[i].outcomes.resize(n_policies);
    for (std::size_t j = 0; j < n_policies; ++j) {
      points[i].outcomes[j].spec = roster[j];
    }
  }

  // Methods sharing a cache trajectory run as one engine (see
  // sim::trajectory_groups): the paper roster's 16 runs per point are 7
  // group jobs. The jobs fan out across cores (JPM_THREADS workers; 1 =
  // serial), point-major, each point's baseline group first so its metrics
  // are ready as early as possible. Every task writes only its members'
  // preallocated outcome slots, keeping results in roster order and
  // bit-identical to the serial path and to each method running alone.
  std::vector<std::vector<std::size_t>> groups =
      trajectory_groups(roster, config.joint.physical_bytes);
  std::stable_partition(groups.begin(), groups.end(), [&](const auto& g) {
    return std::find(g.begin(), g.end(), baseline_index) != g.end();
  });
  std::vector<std::pair<std::size_t, std::size_t>> jobs;  // (point, group)
  jobs.reserve(n_points * groups.size());
  for (std::size_t i = 0; i < n_points; ++i) {
    for (std::size_t g = 0; g < groups.size(); ++g) jobs.emplace_back(i, g);
  }
  // A method's progress line keeps its place in the per-method job order
  // (point-major, each point's baseline first, then roster order).
  const auto progress_slot = [&](std::size_t i, std::size_t j) {
    const std::size_t within =
        j == baseline_index ? 0 : (j < baseline_index ? j + 1 : j);
    return i * n_policies + within;
  };
  // Telemetry streams registered serially in structural order (point-major,
  // roster order) BEFORE the fan-out: stream ids — and therefore the report
  // — depend only on the sweep's shape, never on scheduling or JPM_THREADS.
  std::vector<telemetry::RunRecorder*> recorders;
  if (telemetry::session_active()) {
    recorders.resize(n_points * n_policies, nullptr);
    for (std::size_t i = 0; i < n_points; ++i) {
      for (std::size_t j = 0; j < n_policies; ++j) {
        telemetry::RunRecorder* rec =
            telemetry::begin_run(points[i].label + "/" + roster[j].name);
        // Grid provenance: the point's axis coordinates, stamped here on the
        // registering thread (the run's worker never touches these gauges).
        for (const auto& [axis, value] : workloads[i].axes) {
          rec->gauge("axis/" + axis).set(value);
        }
        recorders[i * n_policies + j] = rec;
      }
    }
  }
  const auto recorder = [&](std::size_t i, std::size_t j) {
    return recorders.empty() ? nullptr : recorders[i * n_policies + j];
  };
  OrderedProgress ordered(n_points * n_policies, progress);
  util::parallel_for(jobs.size(), [&](std::size_t t) {
    const auto [i, g] = jobs[t];
    const std::vector<std::size_t>& group = groups[g];
    std::vector<GroupMember> members;
    std::string names;
    for (const std::size_t j : group) {
      members.push_back({roster[j], recorder(i, j)});
      names += (names.empty() ? "" : "+") + roster[j].name;
    }
    // The first member records through the thread's binding; the engine
    // binds the others' runs around their own work.
    const telemetry::ScopedRun scope(recorder(i, group.front()));
    const telemetry::SpanTimer span("policy_run", points[i].label + "/" + names);
    std::vector<RunMetrics> results =
        readers[i] != nullptr ? replay_file(*readers[i], members, config)
                              : run_simulation(traces[i], members, config);
    for (std::size_t k = 0; k < group.size(); ++k) {
      const std::size_t j = group[k];
      RunOutcome& outcome = points[i].outcomes[j];
      outcome.metrics = std::move(results[k]);
      if (progress) {  // only pay for formatting when a sink is attached
        std::ostringstream os;
        os << "[" << points[i].label << "] " << roster[j].name << ": total "
           << outcome.metrics.total_j() / 1e3 << " kJ, "
           << outcome.metrics.disk_accesses << " disk accesses";
        ordered.emit(progress_slot(i, j), os.str());
      }
    }
  });

  // Normalize against the baseline run's metrics, computed once above.
  for (auto& point : points) {
    point.baseline = point.outcomes[baseline_index].metrics;
    for (auto& outcome : point.outcomes) {
      outcome.normalized = normalize_energy(outcome.metrics, point.baseline);
    }
  }
  TELEM_EVENT(kSweep, "sweep_end", 0.0,
              {"runs", static_cast<double>(n_points * n_policies)});
  return points;
}

}  // namespace jpm::sim
