#include "jpm/sim/runner.h"

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

  // Fan the independent policy runs out across cores (JPM_THREADS workers;
  // 1 = serial). Each point's baseline run is scheduled first so its metrics
  // are ready as early as possible; every task writes only its own
  // preallocated outcome slot, keeping results in roster order and
  // bit-identical to the serial path.
  std::vector<std::pair<std::size_t, std::size_t>> jobs;
  jobs.reserve(n_points * n_policies);
  for (std::size_t i = 0; i < n_points; ++i) {
    jobs.emplace_back(i, baseline_index);
    for (std::size_t j = 0; j < n_policies; ++j) {
      if (j != baseline_index) jobs.emplace_back(i, j);
    }
  }
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
  OrderedProgress ordered(jobs.size(), progress);
  util::parallel_for(jobs.size(), [&](std::size_t t) {
    const auto [i, j] = jobs[t];
    RunOutcome& outcome = points[i].outcomes[j];
    const telemetry::ScopedRun scope(
        recorders.empty() ? nullptr : recorders[i * n_policies + j]);
    const telemetry::SpanTimer span(
        "policy_run", points[i].label + "/" + roster[j].name);
    outcome.metrics = readers[i] != nullptr
                          ? replay_file(*readers[i], roster[j], config)
                          : run_simulation(traces[i], roster[j], config);
    if (progress) {  // only pay for formatting when a sink is attached
      std::ostringstream os;
      os << "[" << points[i].label << "] " << roster[j].name << ": total "
         << outcome.metrics.total_j() / 1e3 << " kJ, "
         << outcome.metrics.disk_accesses << " disk accesses";
      ordered.emit(t, os.str());
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
              {"runs", static_cast<double>(jobs.size())});
  return points;
}

std::vector<SweepPoint> run_sweep(
    const std::vector<std::pair<std::string, workload::SynthesizerConfig>>&
        workloads,
    const std::vector<PolicySpec>& roster, const EngineConfig& config,
    const std::function<void(const std::string&)>& progress) {
  std::vector<SweepWorkload> points;
  points.reserve(workloads.size());
  for (const auto& [label, workload] : workloads) {
    points.push_back(SweepWorkload{label, workload, {}, {}});
  }
  return run_sweep(points, roster, config, progress);
}

}  // namespace jpm::sim
