// Integration tests: full trace -> cache -> disk runs on a scaled-down
// configuration (1 GiB physical memory, 256 MiB data set) chosen so every
// policy's distinctive behaviour is visible in a sub-second run.
#include "jpm/sim/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "jpm/sim/runner.h"
#include "jpm/util/check.h"

namespace jpm::sim {
namespace {

workload::SynthesizerConfig small_workload() {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(256);
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = 1800.0;
  w.page_bytes = 64 * kKiB;
  w.file_scale = 16.0;
  w.seed = 4;
  return w;
}

EngineConfig small_engine() {
  EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = 64 * kKiB;
  e.joint.period_s = 300.0;
  e.prefill_cache = true;
  e.warm_up_s = 300.0;
  return e;
}

PolicySpec fm(std::uint64_t bytes) {
  return fixed_policy(DiskPolicyKind::kTwoCompetitive, bytes);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  const auto a = run_simulation(small_workload(), fm(mib(128)), small_engine());
  const auto b = run_simulation(small_workload(), fm(mib(128)), small_engine());
  EXPECT_EQ(a.cache_accesses, b.cache_accesses);
  EXPECT_EQ(a.disk_accesses, b.disk_accesses);
  EXPECT_DOUBLE_EQ(a.total_j(), b.total_j());
  EXPECT_DOUBLE_EQ(a.total_latency_s, b.total_latency_s);
}

TEST(EngineTest, AlwaysOnMemoryEnergyIsNapFloor) {
  const auto e = small_engine();
  const auto m = run_simulation(small_workload(), always_on_policy(), e);
  const double expected =
      e.joint.mem.nap_power_w(e.joint.physical_bytes) * m.duration_s;
  // Millions of per-touch integration segments accumulate float noise.
  EXPECT_NEAR(m.mem_energy.static_j, expected, expected * 1e-7);
  EXPECT_EQ(m.disk_shutdowns, 0u);
}

TEST(EngineTest, PrefillEliminatesColdMisses) {
  // Capacity >= data set and a prefilled cache: nothing ever misses.
  const auto m = run_simulation(small_workload(), fm(mib(512)), small_engine());
  EXPECT_EQ(m.disk_accesses, 0u);
  EXPECT_EQ(m.long_latency_count, 0u);
  EXPECT_DOUBLE_EQ(m.utilization(), 0.0);
}

TEST(EngineTest, WithoutPrefillColdMissesAppear) {
  auto e = small_engine();
  e.prefill_cache = false;
  e.warm_up_s = 0.0;
  const auto m = run_simulation(small_workload(), fm(mib(512)), e);
  EXPECT_GT(m.disk_accesses, 0u);
}

TEST(EngineTest, SmallerMemoryNeverMissesLess) {
  const auto big = run_simulation(small_workload(), fm(mib(256)),
                                  small_engine());
  const auto small = run_simulation(small_workload(), fm(mib(64)),
                                    small_engine());
  EXPECT_GE(small.disk_accesses, big.disk_accesses);
  EXPECT_GE(small.utilization(), big.utilization());
  // And the fixed memory sizes show up directly in static energy.
  EXPECT_GT(big.mem_energy.static_j, small.mem_energy.static_j);
}

TEST(EngineTest, WarmUpWindowExcludedFromMetrics) {
  auto e = small_engine();
  const auto m = run_simulation(small_workload(), fm(mib(128)), e);
  EXPECT_DOUBLE_EQ(m.duration_s, 1800.0 - 300.0);
  // Static memory energy reflects the measured window only.
  const double expected =
      e.joint.mem.nap_power_w(mib(128)) * m.duration_s;
  EXPECT_NEAR(m.mem_energy.static_j, expected, expected * 1e-9);
}

TEST(EngineTest, EnergiesAreNonNegativeAndAdditive) {
  for (const auto& spec :
       {joint_policy(), fm(mib(64)),
        powerdown_policy(DiskPolicyKind::kAdaptive, gib(1)),
        disable_policy(DiskPolicyKind::kTwoCompetitive, gib(1)),
        always_on_policy()}) {
    const auto m = run_simulation(small_workload(), spec, small_engine());
    EXPECT_GE(m.mem_energy.static_j, 0.0) << spec.name;
    EXPECT_GE(m.mem_energy.dynamic_j, 0.0) << spec.name;
    EXPECT_GE(m.disk_energy.standby_base_j, 0.0) << spec.name;
    EXPECT_GE(m.disk_energy.static_j, 0.0) << spec.name;
    EXPECT_GE(m.disk_energy.transition_j, 0.0) << spec.name;
    EXPECT_GE(m.disk_energy.dynamic_j, 0.0) << spec.name;
    EXPECT_NEAR(m.total_j(),
                m.mem_energy.total_j() + m.disk_energy.total_j(), 1e-9)
        << spec.name;
  }
}

TEST(EngineTest, PowerDownMemoryBetweenFloorAndNap) {
  const auto e = small_engine();
  const auto pd = run_simulation(
      small_workload(), powerdown_policy(DiskPolicyKind::kTwoCompetitive,
                                         gib(1)), e);
  const double nap = e.joint.mem.nap_power_w(gib(1)) * pd.duration_s;
  EXPECT_LT(pd.mem_energy.static_j, nap);
  EXPECT_GT(pd.mem_energy.static_j, 0.29 * nap);
  // PD retains data: post-prefill it misses exactly as the always-on does.
  const auto ao = run_simulation(small_workload(), always_on_policy(), e);
  EXPECT_EQ(pd.disk_accesses, ao.disk_accesses);
}

TEST(EngineTest, DisablePolicyLosesDataAndAddsDiskAccesses) {
  auto e = small_engine();
  // Shorten the disable timeout and slow the request stream so cool banks go
  // idle long enough to drop, then get re-requested.
  e.joint.mem.disable_timeout_s = 60.0;
  auto w = small_workload();
  w.byte_rate = 0.5e6;
  w.duration_s = 3600.0;
  const auto ds = run_simulation(
      w, disable_policy(DiskPolicyKind::kTwoCompetitive, gib(1)), e);
  const auto ao = run_simulation(w, always_on_policy(), e);
  // Disabled banks forget pages -> strictly more disk traffic than always-on.
  EXPECT_GT(ds.disk_accesses, ao.disk_accesses);
  // But unused banks stop burning nap power.
  EXPECT_LT(ds.mem_energy.static_j, ao.mem_energy.static_j);
}

TEST(EngineTest, JointBeatsAlwaysOnAndMeetsConstraints) {
  const auto e = small_engine();
  const auto joint = run_simulation(small_workload(), joint_policy(), e);
  const auto ao = run_simulation(small_workload(), always_on_policy(), e);
  EXPECT_LT(joint.total_j(), ao.total_j());
  EXPECT_LE(joint.utilization(), e.joint.util_limit + 0.02);
  // Delayed-request ratio within the configured D (plus prediction slack).
  const double delayed_ratio =
      joint.cache_accesses == 0
          ? 0.0
          : static_cast<double>(joint.long_latency_count) /
                static_cast<double>(joint.cache_accesses);
  EXPECT_LE(delayed_ratio, 10 * e.joint.delay_limit);
}

// Regression: a spec pairing joint memory with a non-joint disk policy used
// to slip past the manager gate (is_joint() keyed only on the disk half) and
// silently ran with memory pinned at full size. Both mismatches must now be
// rejected loudly.
TEST(EngineTest, RejectsMismatchedJointHalves) {
  PolicySpec mem_only{"mem-only-joint", DiskPolicyKind::kTwoCompetitive,
                      MemPolicyKind::kJoint, 0};
  EXPECT_THROW(run_simulation(small_workload(), mem_only, small_engine()),
               CheckError);
  PolicySpec disk_only{"disk-only-joint", DiskPolicyKind::kJoint,
                       MemPolicyKind::kNapAll, 0};
  EXPECT_THROW(run_simulation(small_workload(), disk_only, small_engine()),
               CheckError);
}

TEST(EngineTest, PeriodRecordsCoverRun) {
  const auto m = run_simulation(small_workload(), fm(mib(128)),
                                small_engine());
  ASSERT_EQ(m.periods.size(), 6u);  // 1800 s / 300 s
  double t = 0.0;
  std::uint64_t accesses = 0;
  for (const auto& p : m.periods) {
    EXPECT_DOUBLE_EQ(p.start_s, t);
    t = p.end_s;
    accesses += p.cache_accesses;
  }
  EXPECT_DOUBLE_EQ(t, 1800.0);
  EXPECT_GT(accesses, 0u);
}

TEST(EngineTest, RunIsSingleShot) {
  const auto w = small_workload();
  Engine engine(LiveSource{w.page_bytes, workload::total_pages(w), 0.0},
                fm(mib(128)), small_engine());
  engine.finish(w.duration_s);
  EXPECT_THROW(engine.finish(w.duration_s), CheckError);
}

TEST(EngineTest, RejectsWarmUpBeyondDuration) {
  auto e = small_engine();
  e.warm_up_s = 1e6;
  EXPECT_THROW(run_simulation(small_workload(), fm(mib(128)), e), CheckError);
}

TEST(EngineTest, MultiDiskArrayServesSameMisses) {
  auto e = small_engine();
  auto single = run_simulation(small_workload(), fm(mib(64)), e);
  e.disk_count = 4;
  e.stripe_bytes = mib(4);
  auto array = run_simulation(small_workload(), fm(mib(64)), e);
  // Same cache, same trace: identical miss counts; four spindles report
  // themselves; per-spindle utilization drops.
  EXPECT_EQ(array.disk_accesses, single.disk_accesses);
  EXPECT_EQ(array.spindle_count, 4u);
  EXPECT_LT(array.utilization(), single.utilization() + 1e-12);
  // Four idle spindles cost more standby-floor energy than one.
  EXPECT_GT(array.disk_energy.standby_base_j,
            3.0 * single.disk_energy.standby_base_j);
}

TEST(EngineTest, MultiDiskJointSharesOneTimeout) {
  auto e = small_engine();
  e.disk_count = 2;
  e.stripe_bytes = mib(4);
  const auto m = run_simulation(small_workload(), joint_policy(), e);
  EXPECT_EQ(m.spindle_count, 2u);
  EXPECT_GT(m.cache_accesses, 0u);
}

TEST(EngineTest, DrpmPolicyAvoidsSpinUpCliff) {
  auto e = small_engine();
  auto w = small_workload();
  w.byte_rate = 2e6;  // sparse misses: spin-down policies wake on demand
  const auto drpm = run_simulation(w, drpm_fixed_policy(mib(64)), e);
  const auto spin = run_simulation(w, fm(mib(64)), e);
  EXPECT_EQ(drpm.disk_accesses, spin.disk_accesses);
  // The multi-speed disk never pays a 10 s wake-up.
  EXPECT_LE(drpm.long_latency_count, spin.long_latency_count);
  EXPECT_LT(drpm.mean_latency_s(), 0.05);
}

TEST(EngineTest, DrpmJointResizesMemory) {
  const auto m = run_simulation(small_workload(), drpm_joint_policy(),
                                small_engine());
  EXPECT_GT(m.cache_accesses, 0u);
  // Joint memory manager still shrinks below physical (1 GiB) on this
  // 256 MiB working set.
  ASSERT_FALSE(m.periods.empty());
  EXPECT_LT(m.periods.back().memory_units, gib(1) / (16 * kMiB));
}

TEST(EngineTest, WriteTrafficGeneratesWritebacks) {
  auto w = small_workload();
  w.write_fraction = 0.3;
  auto e = small_engine();
  e.flush_interval_s = 30.0;
  const auto m = run_simulation(w, fm(mib(512)), e);
  EXPECT_GT(m.disk_writes, 0u);
  // Cache covers the data set and writes allocate without fetch: no reads.
  EXPECT_EQ(m.disk_accesses, 0u);
  // Writebacks consume disk time and energy.
  EXPECT_GT(m.disk_busy_s, 0.0);
  EXPECT_GT(m.disk_energy.dynamic_j, 0.0);
}

TEST(EngineTest, ReadOnlyWorkloadUnaffectedByFlushDaemon) {
  auto e1 = small_engine();
  e1.flush_interval_s = 30.0;
  auto e2 = small_engine();
  e2.flush_interval_s = 0.0;
  const auto a = run_simulation(small_workload(), fm(mib(128)), e1);
  const auto b = run_simulation(small_workload(), fm(mib(128)), e2);
  EXPECT_EQ(a.disk_writes, 0u);
  EXPECT_DOUBLE_EQ(a.total_j(), b.total_j());
}

TEST(EngineTest, DisabledFlushDefersWritebacksToEviction) {
  auto w = small_workload();
  w.write_fraction = 0.3;
  auto flush_on = small_engine();
  flush_on.flush_interval_s = 10.0;
  auto flush_off = small_engine();
  flush_off.flush_interval_s = 0.0;
  const auto on = run_simulation(w, fm(mib(512)), flush_on);
  const auto off = run_simulation(w, fm(mib(512)), flush_off);
  // With the daemon off and a roomy cache, dirty pages coalesce: repeated
  // writes to the same page collapse into one final writeback.
  EXPECT_LT(off.disk_writes, on.disk_writes);
}

TEST(EngineTest, PeriodicFlushKeepsDiskBusierThanWriteCoalescing) {
  auto w = small_workload();
  w.write_fraction = 0.3;
  auto fast_flush = small_engine();
  fast_flush.flush_interval_s = 5.0;
  auto slow_flush = small_engine();
  slow_flush.flush_interval_s = 120.0;
  const auto fast = run_simulation(w, fm(mib(512)), fast_flush);
  const auto slow = run_simulation(w, fm(mib(512)), slow_flush);
  EXPECT_GE(fast.disk_writes, slow.disk_writes);
}

TEST(EngineTest, ReadaheadTradesFetchesForMisses) {
  auto e_plain = small_engine();
  auto e_ra = small_engine();
  e_ra.readahead_pages = 8;
  auto w = small_workload();
  w.file_scale = 64.0;  // bigger files: sequential runs worth prefetching
  const auto plain = run_simulation(w, fm(mib(64)), e_plain);
  const auto ra = run_simulation(w, fm(mib(64)), e_ra);
  EXPECT_GT(ra.readahead_fetches, 0u);
  // Prefetched pages absorb later sequential misses.
  EXPECT_LT(ra.disk_accesses, plain.disk_accesses);
  EXPECT_EQ(plain.readahead_fetches, 0u);
}

TEST(EngineTest, PredictivePolicyRunsAndSleepsDisk) {
  auto w = small_workload();
  // Trickle load: misses arrive roughly a minute apart, so every observed
  // idle interval dwarfs the break-even time and the predictor spins the
  // disk down immediately.
  w.byte_rate = 12e3;
  auto e = small_engine();
  const auto pr = run_simulation(
      w, PolicySpec{"PRFM", DiskPolicyKind::kPredictive, MemPolicyKind::kFixed,
                    mib(64)},
      e);
  const auto ao = run_simulation(
      w, PolicySpec{"NVFM", DiskPolicyKind::kAlwaysOn, MemPolicyKind::kFixed,
                    mib(64)},
      e);
  EXPECT_LT(pr.disk_energy.total_j(), ao.disk_energy.total_j());
}

TEST(EngineTest, ReplayMatchesSynthesizedRun) {
  // Materialize the workload, replay it, and expect the same counters and
  // energies as the generator-driven run.
  const auto w = small_workload();
  const auto e = small_engine();
  const auto direct = run_simulation(w, fm(mib(128)), e);

  workload::TraceGenerator gen(w);
  std::vector<workload::TraceEvent> events;
  while (auto ev = gen.next()) events.push_back(*ev);
  const auto trace = workload::trace_from_events(
      events, w.page_bytes, gen.total_pages(), w.duration_s);
  const auto replayed = run_simulation(trace, fm(mib(128)), e);

  EXPECT_EQ(replayed.cache_accesses, direct.cache_accesses);
  EXPECT_EQ(replayed.disk_accesses, direct.disk_accesses);
  EXPECT_DOUBLE_EQ(replayed.total_j(), direct.total_j());
  EXPECT_DOUBLE_EQ(replayed.total_latency_s, direct.total_latency_s);
}

TEST(EngineTest, ReplayRejectsBadTraces) {
  const auto e = small_engine();
  const auto trace = [](std::vector<workload::TraceEvent> events,
                        std::uint64_t total_pages) {
    return workload::trace_from_events(events, 64 * kKiB, total_pages, 0.0);
  };
  EXPECT_THROW(run_simulation(trace({}, 0), fm(mib(128)), e), CheckError);
  EXPECT_THROW(run_simulation(trace({{2.0, 1, true}, {1.0, 2, true}}, 0),
                              fm(mib(128)), e),
               CheckError);

  // Page 100 of a 50-page data set: rejected by the engine's page check,
  // which names the page and the declared size.
  try {
    run_simulation(trace({{1.0, 100, true}}, 50), fm(mib(128)), e);
    ADD_FAILURE() << "out-of-range page accepted";
  } catch (const std::out_of_range& err) {
    EXPECT_EQ(std::string(err.what()),
              "event page 100 is outside the data set: the source declares "
              "50 pages");
  }
}

TEST(RunnerTest, SweepNormalizesAgainstAlwaysOn) {
  std::vector<std::pair<std::string, workload::SynthesizerConfig>> workloads{
      {"256MB", small_workload()}};
  const std::vector<PolicySpec> roster{joint_policy(), fm(mib(128)),
                                       always_on_policy()};
  const auto points = run_sweep(workloads, roster, small_engine());
  ASSERT_EQ(points.size(), 1u);
  ASSERT_EQ(points[0].outcomes.size(), 3u);
  // Always-on normalizes to 1.0 in every component.
  const auto& ao = points[0].outcomes[2];
  EXPECT_NEAR(ao.normalized.total, 1.0, 1e-12);
  EXPECT_NEAR(ao.normalized.disk, 1.0, 1e-12);
  EXPECT_NEAR(ao.normalized.memory, 1.0, 1e-12);
  // Joint saves energy on this cacheable workload.
  EXPECT_LT(points[0].outcomes[0].normalized.total, 1.0);
}

TEST(RunnerTest, RequiresExactlyOneBaseline) {
  std::vector<std::pair<std::string, workload::SynthesizerConfig>> workloads{
      {"w", small_workload()}};
  EXPECT_THROW(run_sweep(workloads, {joint_policy()}, small_engine()),
               CheckError);
  EXPECT_THROW(run_sweep(workloads,
                         {always_on_policy(), always_on_policy()},
                         small_engine()),
               CheckError);
}

}  // namespace
}  // namespace jpm::sim
