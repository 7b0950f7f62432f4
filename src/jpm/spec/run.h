// Executing a Scenario: the shared driver behind `jpm run` and the migrated
// bench harnesses.
//
// A scenario file always stores the full-scale experiment (paper durations).
// The JPM_BENCH_FAST=1 smoke mode is a *transform* of those numbers —
// apply_fast_mode halves the warm-up and quarters the measured window — so
// one checked-in file serves both modes and both producers (`jpm run`,
// bench binaries) print byte-identical tables for the same mode.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "jpm/sim/runner.h"
#include "jpm/spec/spec.h"

namespace jpm::spec {

// The paper-harness cell formatters. Shared (bench_common.h delegates here)
// so spec-driven tables are byte-identical to hand-written ones.
inline std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

inline std::string ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", seconds * 1e3);
  return buf;
}

inline std::string num(double v, int precision = 2) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

// JPM_BENCH_FAST=1 in the environment.
bool fast_mode();

// The checked-in scenario directory: $JPM_SCENARIO_DIR when set, else the
// build-time default (<source>/scenarios).
std::string scenario_dir();

// "<scenario_dir()>/<name>.json" — how harnesses name their scenario.
std::string scenario_path(const std::string& name);

// Rescales the scenario in place to the smoke-run schedule: warm-up is
// halved, the measured window (each workload's duration minus the engine
// warm-up) is quartered. Equals the bench harnesses' historical fast-mode
// numbers (e.g. 1200 s + 3600 s -> 600 s + 900 s).
void apply_fast_mode(Scenario& sc);

// Loads a scenario file and applies the fast transform when JPM_BENCH_FAST
// is set — what every scenario consumer that produces tables should use.
// A non-cluster file must name exactly one always-on baseline (SpecError at
// $.roster naming the file's bench harness otherwise): the harness-only
// files validate but cannot be swept.
Scenario load_for_run(const std::string& path);

// Measured minutes of the first workload point: (duration - warm-up) / 60.
double measured_minutes(const Scenario& sc);

// The scenario header with "{measured_min}" expanded (default ostream
// formatting, matching the harnesses' `<< minutes` output).
std::string expand_header(const Scenario& sc);

// One cell of a result table.
std::string format_metric(Metric metric, const sim::RunOutcome& outcome);

// Renders one metric across the sweep exactly like the bench harnesses:
// rows = roster policies, columns = sweep points.
void print_metric_table(const std::string& title,
                        const std::vector<sim::SweepPoint>& points,
                        Metric metric);

// Publishes the resolved scenario + content hash to telemetry provenance
// (telemetry::set_scenario); the run report embeds both.
void publish_provenance(const Scenario& sc);

struct RunOptions {
  // Per-run progress lines (serialized, any order); bench harnesses pass
  // their stderr progress printer.
  std::function<void(const std::string&)> progress;
};

// The fixed summary table of a cluster sweep: one row per (point, policy)
// job, in job order — pipeline/chassis/total energy, balance index, mean
// latency, power cycles, failover count.
void print_cluster_table(const std::vector<cluster::ClusterSweepPoint>& points);

// The full driver: publishes provenance, prints the expanded header (when
// non-empty), executes the sweep, prints every configured table, and returns
// the sweep points for bespoke post-processing.
//
// Scenarios with a cluster section instead run every roster policy's
// ClusterEngine at every workload point (no always-on baseline required —
// cluster metrics are absolute) and print the fixed cluster summary table;
// `output.tables`, which name single-server sweep metrics, are ignored, and
// the return value is empty. Use cluster::run_cluster_sweep directly for
// bespoke post-processing of cluster outcomes.
std::vector<sim::SweepPoint> run_scenario(const Scenario& sc,
                                          const RunOptions& options = {});

}  // namespace jpm::spec
