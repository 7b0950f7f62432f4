// Trajectory groups: methods sharing one cache trajectory run on one engine
// (one page table and LRU, one disk half per member), and every member's
// RunMetrics must equal its solo run bit for bit. The cases cover what no
// golden reaches: write-backs from flush ticks and DS bank drains,
// readahead, a disk array, injected spin-up faults, a multi-speed disk next
// to spin-down disks, two page sizes and a live telemetry session.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "jpm/sim/engine.h"
#include "jpm/telemetry/export.h"
#include "jpm/telemetry/registry.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/util/check.h"
#include "jpm/workload/synthesizer.h"
#include "sim/bit_identical.h"

namespace jpm::sim {
namespace {

constexpr auto kTwoC = DiskPolicyKind::kTwoCompetitive;
constexpr auto kAd = DiskPolicyKind::kAdaptive;

workload::SynthesizerConfig small_workload(std::uint64_t page_bytes) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(256);
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = 1200.0;
  w.page_bytes = page_bytes;
  w.file_scale = 16.0;
  w.seed = 3;
  return w;
}

EngineConfig small_engine(std::uint64_t page_bytes) {
  EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = page_bytes;
  e.joint.period_s = 300.0;
  e.prefill_cache = true;
  e.warm_up_s = 300.0;
  return e;
}

PolicySpec named(PolicySpec p, const char* name) {
  p.name = name;
  return p;
}

// The groups the paper roster forms, at 1 GB of physical memory: FM twins
// that miss, the whole-memory group (FM at the full size, both PD methods
// and always-on) and the DS twins.
std::vector<PolicySpec> fm_twins() {
  return {named(fixed_policy(kTwoC, mib(64)), "2TFM-64MB"),
          named(fixed_policy(kAd, mib(64)), "ADFM-64MB")};
}
PolicySpec drpm_fm64() {
  return named(drpm_fixed_policy(mib(64)), "DRPM-FM-64MB");
}
std::vector<PolicySpec> whole_memory() {
  return {fixed_policy(kTwoC, gib(1)), powerdown_policy(kTwoC, gib(1)),
          fixed_policy(kAd, gib(1)), powerdown_policy(kAd, gib(1)),
          always_on_policy()};
}
std::vector<PolicySpec> ds_twins() {
  return {disable_policy(kTwoC, gib(1)), disable_policy(kAd, gib(1))};
}

std::vector<GroupMember> members_of(const std::vector<PolicySpec>& group) {
  std::vector<GroupMember> members;
  for (const PolicySpec& p : group) members.push_back({p, nullptr});
  return members;
}

// Runs `group` as one engine over `trace` and checks each member against
// its own run. Returns the grouped metrics for further checks.
std::vector<RunMetrics> expect_group_matches_solo(
    const workload::Trace& trace, const std::vector<PolicySpec>& group,
    const EngineConfig& e) {
  const auto grouped = run_simulation(trace, members_of(group), e);
  EXPECT_EQ(grouped.size(), group.size());
  for (std::size_t k = 0; k < group.size() && k < grouped.size(); ++k) {
    SCOPED_TRACE(group[k].name);
    expect_bit_identical(grouped[k], run_simulation(trace, group[k], e));
  }
  return grouped;
}

TEST(TrajectoryGroupTest, PaperRosterRunsAsSevenGroups) {
  const std::vector<std::vector<std::size_t>> want = {
      {0}, {1, 8}, {2, 9}, {3, 10}, {4, 11}, {5, 6, 12, 13, 15}, {7, 14}};
  EXPECT_EQ(trajectory_groups(paper_policies(), gib(128)), want);
  // The disk kind does not matter; a joint method always runs alone.
  EXPECT_TRUE(same_trajectory(drpm_fixed_policy(gib(8)),
                              fixed_policy(kTwoC, gib(8)), gib(128)));
  EXPECT_FALSE(same_trajectory(joint_policy(), joint_policy(), gib(128)));
  EXPECT_FALSE(same_trajectory(drpm_joint_policy(), joint_policy(), gib(128)));
}

TEST(TrajectoryGroupTest, RefusesMembersBreakingTheRule) {
  EngineConfig e = small_engine(256 * kKiB);
  e.joint.physical_bytes = gib(128);
  const LiveSource source{256 * kKiB, 4096, 0.0};
  const auto build = [&](const std::vector<PolicySpec>& group) {
    Engine engine(source, members_of(group), e);
  };
  EXPECT_THROW(build({joint_policy(), fixed_policy(kTwoC, gib(8))}),
               CheckError);
  EXPECT_THROW(
      build({fixed_policy(kTwoC, gib(8)), fixed_policy(kTwoC, gib(16))}),
      CheckError);
  EXPECT_THROW(build({powerdown_policy(kTwoC, gib(128)),
                      disable_policy(kTwoC, gib(128))}),
               CheckError);
  // One-method engines finish with finish(), groups with finish_group().
  Engine twins(source, members_of(fm_twins()), small_engine(256 * kKiB));
  EXPECT_THROW(twins.finish(600.0), CheckError);
  EXPECT_EQ(twins.finish_group(600.0).size(), 2u);
}

TEST(TrajectoryGroupTest, WritesFlushTicksAndBankDrainsMatchSolo) {
  auto w = small_workload(64 * kKiB);
  w.write_fraction = 0.3;
  auto e = small_engine(64 * kKiB);
  e.flush_interval_s = 30.0;
  // Banks disable within the run, so DS drains dirty pages as it drops
  // them, between flush ticks.
  e.joint.mem.disable_timeout_s = 20.0;
  const auto trace = workload::synthesize_trace(w);
  for (const auto& group : {fm_twins(), whole_memory(), ds_twins()}) {
    const auto grouped = expect_group_matches_solo(trace, group, e);
    ASSERT_FALSE(grouped.empty());
    EXPECT_GT(grouped.front().disk_writes, 0u);
  }
}

TEST(TrajectoryGroupTest, ReadaheadMatchesSolo) {
  auto e = small_engine(64 * kKiB);
  e.readahead_pages = 4;
  e.joint.mem.disable_timeout_s = 20.0;  // DS misses on dropped banks
  auto w = small_workload(64 * kKiB);
  w.file_scale = 64.0;  // bigger files: sequential runs worth prefetching
  const auto trace = workload::synthesize_trace(w);
  for (const auto& group : {fm_twins(), ds_twins()}) {
    const auto grouped = expect_group_matches_solo(trace, group, e);
    ASSERT_FALSE(grouped.empty());
    EXPECT_GT(grouped.front().readahead_fetches, 0u);
  }
}

TEST(TrajectoryGroupTest, DiskArrayMatchesSolo) {
  auto e = small_engine(64 * kKiB);
  e.disk_count = 4;
  e.stripe_bytes = 16 * kMiB;
  const auto trace = workload::synthesize_trace(small_workload(64 * kKiB));
  for (const auto& group : {fm_twins(), whole_memory()}) {
    const auto grouped = expect_group_matches_solo(trace, group, e);
    ASSERT_FALSE(grouped.empty());
    EXPECT_EQ(grouped.front().spindle_count, 4u);
  }
}

TEST(TrajectoryGroupTest, InjectedSpinUpFaultsMatchSolo) {
  // Sparse requests, no warm start and a ~1.2 s break-even keep the disks
  // spin-cycling, so the injected spin-up failures fire.
  auto w = small_workload(64 * kKiB);
  w.byte_rate = 0.2e6;
  auto e = small_engine(64 * kKiB);
  e.prefill_cache = false;
  e.warm_up_s = 0.0;
  e.joint.disk.transition_j = 7.75;
  e.fault.enabled = true;
  e.fault.seed = 42;
  e.fault.p_spinup_fail = 0.5;
  e.fault.spinup_degrade_after = 4;
  const auto trace = workload::synthesize_trace(w);
  bool any_fault = false;
  for (const auto& group : {fm_twins(), whole_memory(), ds_twins()}) {
    for (const auto& m : expect_group_matches_solo(trace, group, e)) {
      any_fault |= m.reliability.any();
    }
  }
  EXPECT_TRUE(any_fault);
}

TEST(TrajectoryGroupTest, MultiSpeedDiskBesideSpinDownDisksMatchesSolo) {
  auto group = fm_twins();
  group.push_back(drpm_fm64());
  const auto e = small_engine(64 * kKiB);
  const auto trace = workload::synthesize_trace(small_workload(64 * kKiB));
  const auto grouped = expect_group_matches_solo(trace, group, e);
  ASSERT_EQ(grouped.size(), 3u);
  EXPECT_GT(grouped[0].disk_accesses, 0u);
}

TEST(TrajectoryGroupTest, TwoPageSizesMatchSolo) {
  for (const std::uint64_t page_bytes : {16 * kKiB, 256 * kKiB}) {
    SCOPED_TRACE(page_bytes);
    const auto e = small_engine(page_bytes);
    const auto trace = workload::synthesize_trace(small_workload(page_bytes));
    for (const auto& group : {fm_twins(), whole_memory(), ds_twins()}) {
      expect_group_matches_solo(trace, group, e);
    }
  }
}

// Stops the session on scope exit, so a failed assertion cannot leak it
// into the next test.
struct Session {
  explicit Session(const telemetry::Options& options) {
    telemetry::start(options);
  }
  ~Session() {
    if (telemetry::session_active()) telemetry::stop();
  }
};

TEST(TrajectoryGroupTest, LiveTelemetryMatchesSoloRuns) {
  const auto e = small_engine(64 * kKiB);
  const auto trace = workload::synthesize_trace(small_workload(64 * kKiB));
  auto twins = fm_twins();
  twins.push_back(drpm_fm64());
  const std::vector<std::vector<PolicySpec>> groups = {twins, whole_memory()};
  // A small ring, so the members' streams drop their oldest events and the
  // kept tail must still match.
  telemetry::Options options;
  options.ring_capacity = 4;

  const auto register_runs = [&] {
    std::vector<std::vector<telemetry::RunRecorder*>> runs;
    for (const auto& group : groups) {
      auto& row = runs.emplace_back();
      for (const auto& p : group) row.push_back(telemetry::begin_run(p.name));
    }
    return runs;
  };

  std::string grouped_report, grouped_periods;
  bool dropped = false;
  {
    const Session session(options);
    const auto runs = register_runs();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::vector<GroupMember> members;
      for (std::size_t k = 0; k < groups[g].size(); ++k) {
        members.push_back({groups[g][k], runs[g][k]});
      }
      // The first group records its first member through the thread's
      // binding, the way run_sweep does; the second binds every member.
      const telemetry::ScopedRun scope(g == 0 ? runs[g][0] : nullptr);
      run_simulation(trace, members, e);
    }
    for (const auto& row : runs) {
      for (const auto* rec : row) dropped |= rec->dropped_events() > 0;
    }
    grouped_report = telemetry::report_json();
    grouped_periods = telemetry::periods_csv();
  }
  EXPECT_TRUE(dropped);

  std::string solo_report, solo_periods;
  {
    const Session session(options);
    const auto runs = register_runs();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (std::size_t k = 0; k < groups[g].size(); ++k) {
        const telemetry::ScopedRun scope(runs[g][k]);
        run_simulation(trace, groups[g][k], e);
      }
    }
    solo_report = telemetry::report_json();
    solo_periods = telemetry::periods_csv();
  }
  EXPECT_EQ(grouped_report, solo_report);
  EXPECT_EQ(grouped_periods, solo_periods);
  for (const auto& group : groups) {
    for (const auto& p : group) {
      EXPECT_NE(solo_periods.find(p.name), std::string::npos) << p.name;
    }
  }
}

TEST(TrajectoryGroupTest, RefusesTwoMembersRecordingIntoOneRun) {
  const Session session(telemetry::Options{});
  telemetry::RunRecorder* shared = telemetry::begin_run("shared");
  const auto trace = workload::synthesize_trace(small_workload(64 * kKiB));
  const std::vector<GroupMember> members = {{fm_twins()[0], shared},
                                            {fm_twins()[1], shared}};
  EXPECT_THROW(run_simulation(trace, members, small_engine(64 * kKiB)),
               CheckError);
}

}  // namespace
}  // namespace jpm::sim
