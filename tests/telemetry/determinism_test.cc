// The telemetry determinism contract (ISSUE/DESIGN): the JSON run report
// and the periods CSV are byte-identical across JPM_THREADS settings,
// because they contain only simulated time and structural stream order. And
// enabling telemetry must not change what the simulator computes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "jpm/sim/runner.h"
#include "jpm/telemetry/export.h"
#include "jpm/telemetry/registry.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/util/json.h"

namespace jpm::telemetry {
namespace {

workload::SynthesizerConfig point_workload(std::uint64_t dataset_bytes,
                                           std::uint64_t seed) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = dataset_bytes;
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = 1200.0;
  w.page_bytes = 64 * kKiB;
  w.file_scale = 16.0;
  w.seed = seed;
  return w;
}

sim::EngineConfig sweep_engine() {
  sim::EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = 64 * kKiB;
  e.joint.period_s = 300.0;
  e.prefill_cache = true;
  e.warm_up_s = 300.0;
  return e;
}

std::vector<sim::PolicySpec> four_policy_roster() {
  return {sim::joint_policy(),
          sim::fixed_policy(sim::DiskPolicyKind::kTwoCompetitive, mib(64)),
          sim::powerdown_policy(sim::DiskPolicyKind::kAdaptive, gib(1)),
          sim::always_on_policy()};
}

std::vector<sim::SweepWorkload> three_point_sweep() {
  return {{"128MB", point_workload(mib(128), 7), {}, {}},
          {"256MB", point_workload(mib(256), 8), {}, {}},
          {"512MB", point_workload(mib(512), 9), {}, {}}};
}

struct SweepArtifacts {
  std::string report;
  std::string csv;
  std::vector<sim::SweepPoint> points;
};

// Runs the sweep under a fresh telemetry session with JPM_THREADS forced,
// snapshots the deterministic artifacts, and tears the session down.
SweepArtifacts sweep_with_threads(const char* threads) {
  const char* old = std::getenv("JPM_THREADS");
  const std::string saved = old ? old : "";
  const bool had_old = old != nullptr;
  ::setenv("JPM_THREADS", threads, 1);

  start({});
  SweepArtifacts out;
  out.points =
      sim::run_sweep(three_point_sweep(), four_policy_roster(), sweep_engine());
  out.report = report_json();
  out.csv = periods_csv();
  stop();

  if (had_old) {
    ::setenv("JPM_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("JPM_THREADS");
  }
  return out;
}

TEST(TelemetryDeterminismTest, ReportAndCsvAreThreadCountInvariant) {
  const auto serial = sweep_with_threads("1");
  const auto parallel = sweep_with_threads("8");

  // Byte-for-byte: any scheduling leak into the report shows up here.
  EXPECT_EQ(serial.report, parallel.report);
  EXPECT_EQ(serial.csv, parallel.csv);

  // And the artifacts are substantive, not vacuously equal: one stream per
  // (point, policy) in structural order, with a populated period timeline.
  util::json::Value report;
  std::string error;
  ASSERT_TRUE(util::json::parse(serial.report, &report, &error)) << error;
  const auto& runs = report.as_object().find("runs")->as_array();
  ASSERT_EQ(runs.size(), 12u);  // 3 points x 4 policies
  EXPECT_EQ(runs[0].as_object().find("name")->as_string(), "128MB/Joint");
  EXPECT_EQ(runs[0].as_object().find("stream")->as_number(), 0.0);
  for (const auto& run : runs) {
    const auto& tables = run.as_object().find("tables")->as_object();
    ASSERT_TRUE(tables.contains("periods"));
    EXPECT_FALSE(
        tables.find("periods")->as_object().find("rows")->as_array().empty());
  }
  EXPECT_GT(serial.csv.size(), 100u);
}

// Back-to-back identical sweeps in one process must produce byte-identical
// artifacts: the engine's page tables, slot compaction, and scratch buffers
// hold no state that leaks across runs.
TEST(TelemetryDeterminismTest, RepeatedSweepIsByteStable) {
  const auto first = sweep_with_threads("1");
  const auto second = sweep_with_threads("1");
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.csv, second.csv);
}

TEST(TelemetryDeterminismTest, EnablingTelemetryDoesNotChangeMetrics) {
  const auto w = point_workload(mib(128), 7);
  const auto e = sweep_engine();

  for (const auto& policy : four_policy_roster()) {
    SCOPED_TRACE(policy.name);
    const auto off = sim::run_simulation(w, policy, e);

    start({});
    RunRecorder* rec = begin_run("metrics_check");
    const sim::RunMetrics on = [&] {
      const ScopedRun scope(rec);
      return sim::run_simulation(w, policy, e);
    }();
    stop();

    // Counts must match exactly; energies may differ only at ulp level from
    // the mid-run energy snapshots the instrumentation takes.
    EXPECT_EQ(on.cache_accesses, off.cache_accesses);
    EXPECT_EQ(on.disk_accesses, off.disk_accesses);
    EXPECT_EQ(on.disk_writes, off.disk_writes);
    EXPECT_EQ(on.spin_ups, off.spin_ups);
    EXPECT_EQ(on.disk_shutdowns, off.disk_shutdowns);
    EXPECT_EQ(on.long_latency_count, off.long_latency_count);
    EXPECT_EQ(on.periods.size(), off.periods.size());
    EXPECT_EQ(on.total_latency_s, off.total_latency_s);
    EXPECT_EQ(on.disk_busy_s, off.disk_busy_s);
    EXPECT_NEAR(on.total_j(), off.total_j(),
                1e-9 * std::max(1.0, off.total_j()));
  }
}

}  // namespace
}  // namespace jpm::telemetry
