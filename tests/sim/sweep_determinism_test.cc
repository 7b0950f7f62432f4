// Determinism suite for the parallel sweep runner: a multi-threaded
// run_sweep must produce bit-identical RunMetrics to the serial legacy path
// (JPM_THREADS=1) and, for every method of a trajectory group, to that
// method running alone; the shared-trace engine overload must be
// bit-identical to the synthesizing one, and points sharing a workload model
// must match runs that built their own.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "jpm/sim/runner.h"
#include "sim/bit_identical.h"

namespace jpm::sim {
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

EngineConfig sweep_engine() {
  EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = 64 * kKiB;
  e.joint.period_s = 300.0;
  e.prefill_cache = true;
  e.warm_up_s = 300.0;
  return e;
}

// A 6-policy roster spanning every policy family plus the baseline.
std::vector<PolicySpec> six_policy_roster() {
  return {joint_policy(),
          fixed_policy(DiskPolicyKind::kTwoCompetitive, mib(64)),
          fixed_policy(DiskPolicyKind::kAdaptive, mib(128)),
          powerdown_policy(DiskPolicyKind::kTwoCompetitive, gib(1)),
          disable_policy(DiskPolicyKind::kAdaptive, gib(1)),
          always_on_policy()};
}

// The paper's 16-method roster (Section V-A) scaled from 128 GB to 1 GB of
// physical memory: FM at 64 MB to 1 GB, PD and DS over the whole 1 GB. Its
// 16 methods make 7 trajectory groups.
std::vector<PolicySpec> scaled_paper_roster() {
  std::vector<PolicySpec> roster{joint_policy()};
  for (const auto disk :
       {DiskPolicyKind::kTwoCompetitive, DiskPolicyKind::kAdaptive}) {
    const std::string prefix =
        disk == DiskPolicyKind::kTwoCompetitive ? "2T" : "AD";
    for (const std::uint64_t mb : {64, 128, 256, 512, 1024}) {
      roster.push_back(fixed_policy(disk, mib(mb)));
      roster.back().name = prefix + "FM-" + std::to_string(mb) + "MB";
    }
    roster.push_back(powerdown_policy(disk, gib(1)));
    roster.push_back(disable_policy(disk, gib(1)));
  }
  roster.push_back(always_on_policy());
  return roster;
}

std::vector<SweepWorkload> three_point_sweep() {
  return {{"128MB", point_workload(mib(128), 7), {}, {}},
          {"256MB", point_workload(mib(256), 8), {}, {}},
          {"512MB", point_workload(mib(512), 9), {}, {}}};
}

std::vector<SweepPoint> sweep_with_threads(
    const char* threads, const std::vector<SweepWorkload>& points_in,
    const EngineConfig& engine,
    const std::vector<PolicySpec>& roster = six_policy_roster()) {
  const char* old = std::getenv("JPM_THREADS");
  const std::string saved = old ? old : "";
  const bool had_old = old != nullptr;
  ::setenv("JPM_THREADS", threads, 1);
  auto points = run_sweep(points_in, roster, engine);
  if (had_old) {
    ::setenv("JPM_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("JPM_THREADS");
  }
  return points;
}

std::vector<SweepPoint> sweep_with_threads(const char* threads) {
  return sweep_with_threads(threads, three_point_sweep(), sweep_engine());
}

// Fault sweep setup: sparse requests and a short break-even so the disk
// spin-cycles constantly, making the injected spin-up failures (p = 0.5)
// actually fire; the determinism claim must hold under faults too.
workload::SynthesizerConfig sparse_point(std::uint64_t dataset_bytes,
                                         std::uint64_t seed) {
  auto w = point_workload(dataset_bytes, seed);
  w.byte_rate = 0.2e6;
  return w;
}

std::vector<SweepWorkload> sparse_sweep() {
  return {{"64MB", sparse_point(mib(64), 3), {}, {}},
          {"128MB", sparse_point(mib(128), 4), {}, {}}};
}

EngineConfig faulted_sweep_engine() {
  EngineConfig e = sweep_engine();
  e.prefill_cache = false;
  e.warm_up_s = 0.0;
  e.joint.disk.transition_j = 7.75;  // break-even ~1.2 s
  e.fault.enabled = true;
  e.fault.seed = 42;
  e.fault.p_spinup_fail = 0.5;
  e.fault.spinup_degrade_after = 4;
  e.fault.guard.enabled = true;
  return e;
}

void expect_points_bit_identical(const std::vector<SweepPoint>& serial,
                                 const std::vector<SweepPoint>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].label);
    EXPECT_EQ(serial[i].label, parallel[i].label);
    expect_bit_identical(serial[i].baseline, parallel[i].baseline);
    ASSERT_EQ(serial[i].outcomes.size(), parallel[i].outcomes.size());
    for (std::size_t j = 0; j < serial[i].outcomes.size(); ++j) {
      SCOPED_TRACE(serial[i].outcomes[j].spec.name);
      EXPECT_EQ(serial[i].outcomes[j].spec.name,
                parallel[i].outcomes[j].spec.name);
      expect_bit_identical(serial[i].outcomes[j].metrics,
                           parallel[i].outcomes[j].metrics);
      EXPECT_EQ(serial[i].outcomes[j].normalized.total,
                parallel[i].outcomes[j].normalized.total);
      EXPECT_EQ(serial[i].outcomes[j].normalized.disk,
                parallel[i].outcomes[j].normalized.disk);
      EXPECT_EQ(serial[i].outcomes[j].normalized.memory,
                parallel[i].outcomes[j].normalized.memory);
    }
  }
}

TEST(SweepDeterminismTest, EightThreadsMatchSerialBitForBit) {
  const auto serial = sweep_with_threads("1");
  const auto parallel = sweep_with_threads("8");
  expect_points_bit_identical(serial, parallel);

  // The paper roster runs as 7 trajectory groups per point; every method's
  // outcome must also equal its own solo run.
  const auto roster = scaled_paper_roster();
  ASSERT_EQ(trajectory_groups(roster, gib(1)).size(), 7u);
  const auto workloads = three_point_sweep();
  const auto paper_serial =
      sweep_with_threads("1", workloads, sweep_engine(), roster);
  const auto paper_parallel =
      sweep_with_threads("8", workloads, sweep_engine(), roster);
  expect_points_bit_identical(paper_serial, paper_parallel);
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto trace = workload::synthesize_trace(workloads[i].workload);
    for (std::size_t j = 0; j < roster.size(); ++j) {
      SCOPED_TRACE(workloads[i].label + "/" + roster[j].name);
      expect_bit_identical(paper_parallel[i].outcomes[j].metrics,
                           run_simulation(trace, roster[j], sweep_engine()));
    }
  }
}

TEST(SweepDeterminismTest, FaultInjectedSweepIsThreadCountInvariant) {
  const auto engine = faulted_sweep_engine();
  const auto serial = sweep_with_threads("1", sparse_sweep(), engine);
  const auto parallel = sweep_with_threads("8", sparse_sweep(), engine);
  expect_points_bit_identical(serial, parallel);
  // The plan above must actually exercise the fault paths, otherwise this
  // test degenerates into the fault-free one.
  bool any_reliability = false;
  for (const auto& point : serial) {
    for (const auto& outcome : point.outcomes) {
      any_reliability |= outcome.metrics.reliability.any();
    }
  }
  EXPECT_TRUE(any_reliability);
}

TEST(SweepDeterminismTest, DisabledFaultPlanMatchesNoPlanBitForBit) {
  // A present-but-disabled plan — even with aggressive knobs — must leave
  // every metric bit-identical to an engine config without one.
  EngineConfig with_knobs = sweep_engine();
  with_knobs.fault.enabled = false;
  with_knobs.fault.p_spinup_fail = 0.9;
  with_knobs.fault.server_mtbf_s = 100.0;
  with_knobs.fault.guard.enabled = true;  // inert while enabled == false

  const auto w = point_workload(mib(128), 7);
  for (const auto& policy : six_policy_roster()) {
    SCOPED_TRACE(policy.name);
    const auto plain = run_simulation(w, policy, sweep_engine());
    const auto gated = run_simulation(w, policy, with_knobs);
    expect_bit_identical(plain, gated);
    EXPECT_FALSE(gated.reliability.any());
  }
}

TEST(SweepDeterminismTest, SharedTraceMatchesSynthesizingEngine) {
  const auto w = point_workload(mib(128), 7);
  const auto e = sweep_engine();
  const auto policy = fixed_policy(DiskPolicyKind::kTwoCompetitive, mib(64));

  const auto trace = workload::synthesize_trace(w);
  const auto from_trace = run_simulation(trace, policy, e);
  const auto from_config = run_simulation(w, policy, e);
  expect_bit_identical(from_trace, from_config);
}

TEST(SweepDeterminismTest, SharedTraceSupportsRepeatedReplays) {
  const auto w = point_workload(mib(128), 11);
  const auto e = sweep_engine();
  const auto trace = workload::synthesize_trace(w);
  const auto first = run_simulation(trace, joint_policy(), e);
  const auto second = run_simulation(trace, joint_policy(), e);
  expect_bit_identical(first, second);
}

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

// fig8_rate's shape, scaled down: one data set and seed, five rates, so all
// five points share one workload model.
std::vector<SweepWorkload> rate_sweep() {
  std::vector<SweepWorkload> points;
  for (const double rate : {1e6, 2e6, 4e6, 8e6, 16e6}) {
    auto w = point_workload(mib(128), 5);
    w.byte_rate = rate;
    w.duration_s = 600.0;
    points.push_back({std::to_string(static_cast<int>(rate / 1e6)) + "MB/s",
                      w, "", {{"byte_rate", rate}}});
  }
  return points;
}

TEST(SweepDeterminismTest, SharedModelSweepMatchesUnsharedRuns) {
  const auto workloads = rate_sweep();
  const std::vector<PolicySpec> roster = {
      always_on_policy(), joint_policy(),
      fixed_policy(DiskPolicyKind::kTwoCompetitive, mib(64))};
  const auto engine = sweep_engine();

  // Reference: every (point, policy) run synthesizing from its own model,
  // and the progress line the sweep prints for it (baseline first).
  std::vector<std::vector<RunMetrics>> unshared;
  std::vector<std::string> want_lines;
  for (const auto& w : workloads) {
    auto& row = unshared.emplace_back();
    for (const auto& policy : roster) {
      row.push_back(run_simulation(w.workload, policy, engine));
      std::ostringstream os;
      os << "[" << w.label << "] " << policy.name << ": total "
         << row.back().total_j() / 1e3 << " kJ, " << row.back().disk_accesses
         << " disk accesses";
      want_lines.push_back(os.str());
    }
  }

  for (const char* threads : {"1", "4", "8"}) {
    SCOPED_TRACE(std::string("JPM_THREADS=") + threads);
    const ScopedEnv t("JPM_THREADS", threads);
    std::vector<std::string> lines;
    const auto points =
        run_sweep(workloads, roster, engine, [&](const std::string& line) {
          lines.push_back(line);
        });
    ASSERT_EQ(points.size(), workloads.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = 0; j < roster.size(); ++j) {
        SCOPED_TRACE(points[i].label + "/" + roster[j].name);
        expect_bit_identical(points[i].outcomes[j].metrics, unshared[i][j]);
      }
    }
    EXPECT_EQ(lines, want_lines);
  }
}

TEST(SweepDeterminismTest, InvalidSharedModelPointFailsWithTheConfigError) {
  // The bad knob sits outside the key, so whichever of the five points
  // acquires the shared model first — the bad one failing its build, or a
  // good one building it for the bad one's generator to reject — the sweep
  // fails with the config's own validation error.
  auto workloads = rate_sweep();
  workloads[2].workload.byte_rate = 0.0;
  for (const char* threads : {"1", "4", "8"}) {
    SCOPED_TRACE(std::string("JPM_THREADS=") + threads);
    const ScopedEnv t("JPM_THREADS", threads);
    try {
      run_sweep(workloads, {always_on_policy(), joint_policy()},
                sweep_engine());
      ADD_FAILURE() << "the sweep accepted an invalid point";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "invalid SynthesizerConfig: byte_rate must be positive and "
                "finite");
    }
  }
}

}  // namespace
}  // namespace jpm::sim
