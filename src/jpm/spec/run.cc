#include "jpm/spec/run.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "jpm/telemetry/telemetry.h"
#include "jpm/util/check.h"
#include "jpm/util/table.h"

namespace jpm::spec {

bool fast_mode() {
  const char* v = std::getenv("JPM_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

std::string scenario_dir() {
  if (const char* dir = std::getenv("JPM_SCENARIO_DIR")) return dir;
#ifdef JPM_DEFAULT_SCENARIO_DIR
  return JPM_DEFAULT_SCENARIO_DIR;
#else
  return "scenarios";
#endif
}

std::string scenario_path(const std::string& name) {
  return scenario_dir() + "/" + name + ".json";
}

void apply_fast_mode(Scenario& sc) {
  const double warm = sc.engine.warm_up_s;
  const double new_warm = warm * 0.5;
  for (auto& point : sc.workloads) {
    const double measured = point.workload.duration_s - warm;
    JPM_CHECK_MSG(measured >= 0.0,
                  "workload duration shorter than the engine warm-up");
    point.workload.duration_s = new_warm + measured * 0.25;
  }
  sc.engine.warm_up_s = new_warm;
  // The expanded points no longer match the grid spec (durations were
  // rescaled, and a duration_s axis would diverge from re-expansion), so
  // provenance falls back to the resolved explicit array.
  sc.grid.reset();
}

Scenario load_for_run(const std::string& path) {
  Scenario sc = load_scenario_file(path);
  validate_scenario(sc);
  if (!sc.cluster.has_value()) {
    // run_sweep normalizes every energy figure against the roster's one
    // baseline. Files that only configure a bench harness carry rosters
    // without one: `jpm validate` accepts them, their harness reads them,
    // but no sweep can run them.
    const auto baselines = std::count_if(
        sc.roster.begin(), sc.roster.end(),
        [](const sim::PolicySpec& p) { return p.is_baseline(); });
    if (baselines != 1) {
      throw SpecError("$.roster: a non-cluster sweep needs exactly one "
                      "always-on baseline to normalize energy against "
                      "(found " + std::to_string(baselines) +
                      "); this file configures bench_" + sc.name +
                      ", run that harness instead");
    }
  }
  if (fast_mode()) apply_fast_mode(sc);
  return sc;
}

double measured_minutes(const Scenario& sc) {
  JPM_CHECK_MSG(!sc.workloads.empty(), "scenario has no workload points");
  return (sc.workloads.front().workload.duration_s - sc.engine.warm_up_s) /
         60.0;
}

std::string expand_header(const Scenario& sc) {
  std::string header = sc.output.header;
  const std::string token = "{measured_min}";
  std::size_t pos = header.find(token);
  if (pos == std::string::npos) return header;
  // Default ostream formatting, matching the harnesses' `<< minutes`.
  std::ostringstream minutes;
  minutes << measured_minutes(sc);
  do {
    header.replace(pos, token.size(), minutes.str());
    pos = header.find(token, pos + minutes.str().size());
  } while (pos != std::string::npos);
  return header;
}

std::string format_metric(Metric metric, const sim::RunOutcome& o) {
  switch (metric) {
    case Metric::kTotalPct:
      return pct(o.normalized.total);
    case Metric::kDiskPct:
      return pct(o.normalized.disk);
    case Metric::kMemoryPct:
      return pct(o.normalized.memory);
    case Metric::kMeanLatencyMs:
      return ms(o.metrics.mean_latency_s());
    case Metric::kUtilizationPct:
      return pct(o.metrics.utilization());
    case Metric::kLongLatencyPerS:
      return num(o.metrics.long_latency_per_s());
    case Metric::kDiskAccessesMillions:
      return num(static_cast<double>(o.metrics.disk_accesses) / 1e6, 3);
    case Metric::kTotalEnergyKj:
      return num(o.metrics.total_j() / 1e3, 1);
    case Metric::kDiskEnergyKj:
      return num(o.metrics.disk_energy.total_j() / 1e3, 1);
    case Metric::kMemoryEnergyKj:
      return num(o.metrics.mem_energy.total_j() / 1e3, 1);
    case Metric::kDiskShutdowns:
      return std::to_string(o.metrics.disk_shutdowns);
    case Metric::kHitPct:
      return pct(o.metrics.hit_ratio());
  }
  JPM_CHECK_MSG(false, "unknown metric");
  return {};
}

void print_metric_table(const std::string& title,
                        const std::vector<sim::SweepPoint>& points,
                        Metric metric) {
  std::vector<std::string> headers{"method"};
  for (const auto& p : points) headers.push_back(p.label);
  Table t(headers);
  const std::size_t n_policies = points.front().outcomes.size();
  for (std::size_t i = 0; i < n_policies; ++i) {
    t.row().cell(points.front().outcomes[i].spec.name);
    for (const auto& p : points) {
      t.cell(format_metric(metric, p.outcomes[i]));
    }
  }
  std::cout << "\n== " << title << " ==\n" << t.to_string();
}

void publish_provenance(const Scenario& sc) {
  telemetry::set_scenario(serialize_scenario(sc), scenario_hash(sc));
}

void print_cluster_table(
    const std::vector<cluster::ClusterSweepPoint>& points) {
  Table t({"point", "method", "pipeline_kj", "chassis_kj", "total_kj",
           "balance", "mean_lat_ms", "cycles", "failed_over"});
  for (const auto& p : points) {
    for (const auto& o : p.outcomes) {
      std::uint64_t cycles = 0;
      for (const auto& s : o.metrics.servers) cycles += s.power_cycles;
      t.row()
          .cell(p.label)
          .cell(o.spec.name)
          .cell(num(o.metrics.pipeline_energy_j() / 1e3, 1))
          .cell(num(o.metrics.chassis_energy_j() / 1e3, 1))
          .cell(num(o.metrics.total_j() / 1e3, 1))
          .cell(num(o.metrics.balance_index(), 3))
          .cell(ms(o.metrics.mean_latency_s()))
          .cell(std::to_string(cycles))
          .cell(std::to_string(o.metrics.reliability.failed_over_requests));
    }
  }
  std::cout << "\n== cluster sweep ==\n" << t.to_string();
}

std::vector<sim::SweepPoint> run_scenario(const Scenario& sc,
                                          const RunOptions& options) {
  publish_provenance(sc);
  const std::string header = expand_header(sc);
  if (!header.empty()) std::cout << header << "\n";

  if (sc.cluster.has_value()) {
    const auto points = cluster::run_cluster_sweep(
        cluster_config(sc), sc.workloads, sc.roster, options.progress);
    print_cluster_table(points);
    return {};
  }

  const auto points =
      sim::run_sweep(sc.workloads, sc.roster, sc.engine, options.progress);

  for (const auto& table : sc.output.tables) {
    print_metric_table(table.title, points, table.metric);
  }
  return points;
}

}  // namespace jpm::spec
