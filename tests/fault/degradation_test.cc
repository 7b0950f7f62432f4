// Integration tests for the fault-injection subsystem: disk spin-up
// failures and degradation, array failover, the manager's validation
// fallback and closed-loop guard, engine-level determinism, and cluster
// server crashes with request failover.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "jpm/cluster/cluster.h"
#include "jpm/core/joint_power_manager.h"
#include "jpm/disk/disk_array.h"
#include "jpm/disk/disk_queue.h"
#include "make_trace.h"

namespace jpm {
namespace {

constexpr std::uint64_t kPage = 256 * kKiB;

fault::FaultPlan always_fail_plan(std::uint32_t degrade_after) {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.p_spinup_fail = 1.0;
  plan.spinup_degrade_after = degrade_after;
  return plan;
}

TEST(DiskDegradationTest, SingleDiskDegradesAndPinsAfterFailures) {
  const disk::DiskParams p;
  disk::FixedTimeout policy(10.0);
  disk::Disk d(p, &policy, 0.0, always_fail_plan(3), /*spindle_index=*/0,
               /*pin_when_degraded=*/true);

  d.read(1.0, 10, kPage);
  d.advance(100.0);
  ASSERT_EQ(d.state(), disk::DiskState::kStandby);
  ASSERT_EQ(d.shutdowns(), 1u);

  // Wake on demand: every attempt fails, so the disk retries with backoff
  // (1 s, 2 s, 4 s) until the third failure degrades it and the final
  // attempt is forced to succeed.
  const auto r = d.read(200.0, 5000, kPage);
  EXPECT_TRUE(r.triggered_spin_up);
  EXPECT_TRUE(d.degraded());
  EXPECT_EQ(d.reliability().spinup_retries, 3u);
  EXPECT_EQ(d.reliability().degraded_spindles, 1u);
  // Each failed attempt wastes a spin-up plus its backoff:
  // (10+1) + (10+2) + (10+4).
  EXPECT_NEAR(d.reliability().retry_delay_s, 37.0, 1e-9);
  // Service starts after the retries plus the final successful spin-up and
  // runs at the degraded service factor.
  EXPECT_NEAR(r.start_s, 200.0 + 37.0 + p.spin_up_s, 1e-9);
  const double svc = disk::ServiceModel(p).service_time_s(kPage, false);
  EXPECT_NEAR(r.finish_s - r.start_s, 1.5 * svc, 1e-12);

  // Pinned: the degraded single disk never spins down again.
  d.advance(10000.0);
  EXPECT_EQ(d.state(), disk::DiskState::kOn);
  EXPECT_EQ(d.shutdowns(), 1u);
  const auto r2 = d.read(20000.0, 99999, kPage);
  EXPECT_FALSE(r2.triggered_spin_up);
  EXPECT_NEAR(r2.latency_s, 1.5 * svc, 1e-12);

  d.finalize(30000.0);
  EXPECT_NEAR(d.reliability().degraded_time_s, 30000.0 - 200.0, 1e-9);
  // Energy books one real round trip plus one transition per failed attempt.
  EXPECT_NEAR(d.energy().transition_j, 4.0 * p.transition_j, 1e-9);
}

TEST(DiskDegradationTest, ArrayReroutesStripesOffDegradedSpindles) {
  disk::DiskArrayConfig cfg;
  cfg.disk_count = 4;
  cfg.stripe_bytes = kPage;  // one page per stripe: disk_of(page) == page % 4
  cfg.page_bytes = kPage;
  cfg.fault = always_fail_plan(2);
  disk::DiskArray array(
      cfg, [] { return std::make_unique<disk::FixedTimeout>(10.0); }, 0.0);

  array.advance(100.0);  // all four spindles idle out and spin down

  // The read that detects the degradation is still served by the home disk.
  const auto r1 = array.read(200.0, 0, kPage);
  EXPECT_TRUE(r1.triggered_spin_up);
  EXPECT_TRUE(array.disk(0).degraded());
  EXPECT_EQ(array.reliability().rerouted_requests, 0u);

  // Subsequent reads of the degraded stripe move to the next survivor in
  // ring order (which, at p = 1, then degrades on its own wake too).
  array.read(300.0, 0, kPage);
  EXPECT_TRUE(array.disk(1).degraded());
  EXPECT_EQ(array.reliability().rerouted_requests, 1u);
  EXPECT_EQ(array.requests_per_disk()[0], 1u);
  EXPECT_EQ(array.requests_per_disk()[1], 1u);

  // Degrade the remaining spindles.
  array.read(400.0, 2, kPage);
  array.read(500.0, 3, kPage);
  EXPECT_TRUE(array.disk(2).degraded());
  EXPECT_TRUE(array.disk(3).degraded());

  // With every spindle degraded the home disk serves anyway.
  const auto rel_before = array.reliability();
  array.read(600.0, 0, kPage);
  const auto rel = array.reliability();
  EXPECT_EQ(rel.rerouted_requests, rel_before.rerouted_requests);
  EXPECT_EQ(array.requests_per_disk()[0], 2u);

  EXPECT_EQ(rel.degraded_spindles, 4u);
  EXPECT_EQ(rel.spinup_retries, 8u);  // 2 failed attempts per spindle
  std::uint64_t total = 0;
  for (auto c : array.requests_per_disk()) total += c;
  EXPECT_EQ(total, 5u);  // every read accounted exactly once
}

core::JointConfig manager_config() {
  core::JointConfig c;
  c.page_bytes = 4 * kMiB;
  c.unit_bytes = 16 * kMiB;
  c.physical_bytes = 160 * kMiB;
  c.period_s = 600.0;
  return c;
}

TEST(ManagerRobustnessTest, InvalidStatsFallBackToConservativePosture) {
  const auto c = manager_config();
  core::JointPowerManager mgr(c);

  core::PeriodStats bad;
  bad.start_s = 0.0;
  bad.end_s = std::numeric_limits<double>::quiet_NaN();
  const auto& d1 = mgr.on_period_end(bad);
  EXPECT_EQ(d1.memory_units, mgr.initial_memory_units());
  EXPECT_DOUBLE_EQ(d1.timeout_s, mgr.initial_timeout_s());
  EXPECT_EQ(mgr.reliability().manager_fallbacks, 1u);

  core::PeriodStats negative_busy;
  negative_busy.start_s = 0.0;
  negative_busy.end_s = 600.0;
  negative_busy.disk_busy_s = -1.0;
  const auto& d2 = mgr.on_period_end(negative_busy);
  EXPECT_EQ(d2.memory_units, mgr.initial_memory_units());
  EXPECT_DOUBLE_EQ(d2.timeout_s, mgr.initial_timeout_s());
  EXPECT_EQ(mgr.reliability().manager_fallbacks, 2u);
}

TEST(ManagerGuardTest, ViolationBacksOffAndRecoversWithinThreePeriods) {
  const auto c = manager_config();
  fault::ManagerGuardConfig guard;
  guard.enabled = true;  // backoff 2, relax 2
  core::JointPowerManager mgr(c, guard);
  core::PeriodStatsCollector collector(c.unit_frames(), c.max_units(), 0.0);

  const auto violated_period = [&](double end_s) {
    for (int i = 0; i < 100; ++i) {
      collector.on_access(end_s - 600.0 + i * 6.0, 1 + (i % 4ull));
    }
    // 10 delayed of 100 accesses: ratio 0.1 >> the paper's D = 0.001.
    for (int i = 0; i < 10; ++i) {
      collector.on_disk_access(0.05, /*delayed=*/true);
    }
    return collector.harvest(end_s);
  };
  const auto clean_period = [&](double end_s) {
    for (int i = 0; i < 100; ++i) {
      collector.on_access(end_s - 600.0 + i * 6.0, 1 + (i % 4ull));
    }
    return collector.harvest(end_s);
  };

  const auto& d1 = mgr.on_period_end(violated_period(600.0));
  EXPECT_DOUBLE_EQ(mgr.guard_scale(), 2.0);
  EXPECT_EQ(d1.memory_units, c.max_units());
  EXPECT_GE(d1.timeout_s, 2.0 * c.disk.break_even_s());

  mgr.on_period_end(violated_period(1200.0));
  EXPECT_DOUBLE_EQ(mgr.guard_scale(), 4.0);

  // Recovery: clean periods relax the scale 4 -> 2 -> 1, i.e. the manager
  // is fully back to the open loop within three periods of the last
  // violation.
  mgr.on_period_end(clean_period(1800.0));
  EXPECT_DOUBLE_EQ(mgr.guard_scale(), 2.0);
  mgr.on_period_end(clean_period(2400.0));
  EXPECT_DOUBLE_EQ(mgr.guard_scale(), 1.0);
  mgr.on_period_end(clean_period(3000.0));
  EXPECT_DOUBLE_EQ(mgr.guard_scale(), 1.0);

  EXPECT_EQ(mgr.reliability().violated_periods, 2u);
  EXPECT_EQ(mgr.reliability().guard_backoffs, 2u);
  EXPECT_EQ(mgr.reliability().manager_fallbacks, 0u);
}

TEST(ManagerGuardTest, ScaleIsCappedAtMaxScale) {
  const auto c = manager_config();
  fault::ManagerGuardConfig guard;
  guard.enabled = true;
  guard.max_scale = 4.0;
  core::JointPowerManager mgr(c, guard);
  core::PeriodStatsCollector collector(c.unit_frames(), c.max_units(), 0.0);

  for (int period = 1; period <= 3; ++period) {
    for (int i = 0; i < 100; ++i) {
      collector.on_access(period * 600.0 - 600.0 + i * 6.0, 1 + (i % 4ull));
    }
    for (int i = 0; i < 10; ++i) collector.on_disk_access(0.05, true);
    mgr.on_period_end(collector.harvest(period * 600.0));
  }
  EXPECT_DOUBLE_EQ(mgr.guard_scale(), 4.0);
  EXPECT_EQ(mgr.reliability().violated_periods, 3u);
  // The third violation found the scale already at the cap: no escalation.
  EXPECT_EQ(mgr.reliability().guard_backoffs, 2u);
}

TEST(ManagerGuardTest, DisabledGuardKeepsOpenLoopCountersZero) {
  const auto c = manager_config();
  core::JointPowerManager mgr(c);  // no guard
  core::PeriodStatsCollector collector(c.unit_frames(), c.max_units(), 0.0);
  for (int i = 0; i < 100; ++i) collector.on_access(i * 6.0, 1 + (i % 4ull));
  for (int i = 0; i < 10; ++i) collector.on_disk_access(0.05, true);
  mgr.on_period_end(collector.harvest(600.0));
  EXPECT_DOUBLE_EQ(mgr.guard_scale(), 1.0);
  EXPECT_FALSE(mgr.reliability().any());
}

workload::SynthesizerConfig sparse_workload() {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(64);
  w.byte_rate = 0.2e6;  // sparse requests: long idle gaps between misses
  w.popularity = 0.1;
  w.duration_s = 1200.0;
  w.page_bytes = 64 * kKiB;
  w.seed = 3;
  return w;
}

sim::EngineConfig spin_cycling_engine() {
  sim::EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.period_s = 300.0;
  // Short break-even (7.75 / 6.6 ~ 1.2 s) so the sparse workload's gaps
  // spin the disk down between requests and every miss wakes it.
  e.joint.disk.transition_j = 7.75;
  return e;
}

void expect_same_reliability(const fault::ReliabilityMetrics& a,
                             const fault::ReliabilityMetrics& b) {
  EXPECT_EQ(a.spinup_retries, b.spinup_retries);
  EXPECT_EQ(a.retry_delay_s, b.retry_delay_s);
  EXPECT_EQ(a.degraded_spindles, b.degraded_spindles);
  EXPECT_EQ(a.degraded_time_s, b.degraded_time_s);
  EXPECT_EQ(a.rerouted_requests, b.rerouted_requests);
  EXPECT_EQ(a.manager_fallbacks, b.manager_fallbacks);
  EXPECT_EQ(a.violated_periods, b.violated_periods);
  EXPECT_EQ(a.guard_backoffs, b.guard_backoffs);
  EXPECT_EQ(a.server_crashes, b.server_crashes);
  EXPECT_EQ(a.failed_over_requests, b.failed_over_requests);
}

TEST(EngineFaultTest, SingleDiskRunDegradesDeterministically) {
  auto e = spin_cycling_engine();
  e.fault = always_fail_plan(2);
  e.fault.seed = 9;
  const auto spec =
      sim::fixed_policy(sim::DiskPolicyKind::kTwoCompetitive, mib(16));

  const auto m1 = sim::run_simulation(sparse_workload(), spec, e);
  // The very first wake fails twice, degrades the lone spindle, and pins it.
  EXPECT_EQ(m1.reliability.degraded_spindles, 1u);
  EXPECT_EQ(m1.reliability.spinup_retries, 2u);
  EXPECT_GT(m1.reliability.retry_delay_s, 0.0);
  EXPECT_GT(m1.reliability.degraded_time_s, 0.0);
  EXPECT_EQ(m1.reliability.manager_fallbacks, 0u);

  const auto m2 = sim::run_simulation(sparse_workload(), spec, e);
  expect_same_reliability(m1.reliability, m2.reliability);
  EXPECT_EQ(m1.total_latency_s, m2.total_latency_s);
  EXPECT_EQ(m1.disk_energy.transition_j, m2.disk_energy.transition_j);
}

TEST(EngineFaultTest, ArrayRunReroutesAndStaysDeterministic) {
  auto e = spin_cycling_engine();
  e.disk_count = 4;
  e.stripe_bytes = 64 * kKiB;  // page-sized stripes spread pages across disks
  e.fault = always_fail_plan(2);
  const auto spec =
      sim::fixed_policy(sim::DiskPolicyKind::kTwoCompetitive, mib(16));

  const auto m1 = sim::run_simulation(sparse_workload(), spec, e);
  EXPECT_EQ(m1.reliability.degraded_spindles, 4u);
  EXPECT_EQ(m1.reliability.spinup_retries, 8u);
  EXPECT_GT(m1.reliability.rerouted_requests, 0u);

  const auto m2 = sim::run_simulation(sparse_workload(), spec, e);
  expect_same_reliability(m1.reliability, m2.reliability);
}

TEST(EngineValidationTest, RejectsBadConfigsWithDescriptiveErrors) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(64);
  w.byte_rate = 10e6;
  w.duration_s = 60.0;
  w.page_bytes = 64 * kKiB;
  const auto spec = sim::always_on_policy();
  sim::EngineConfig base;
  base.joint.physical_bytes = gib(1);
  base.joint.unit_bytes = 16 * kMiB;
  base.joint.period_s = 30.0;

  auto e = base;
  e.disk_count = 0;
  try {
    sim::run_simulation(w, spec, e);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("disk_count"), std::string::npos);
  }

  e = base;
  e.joint.period_s = 0.0;
  EXPECT_THROW(sim::run_simulation(w, spec, e), std::invalid_argument);

  e = base;
  e.joint.util_limit = -0.1;
  EXPECT_THROW(sim::run_simulation(w, spec, e), std::invalid_argument);

  // An enabled fault plan is validated too.
  e = base;
  e.fault.enabled = true;
  e.fault.p_spinup_fail = 2.0;
  try {
    sim::run_simulation(w, spec, e);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("FaultPlan"), std::string::npos);
  }

  // Corrupt disk parameters surface the break-even consequence.
  e = base;
  e.joint.disk.idle_w = 0.5;  // below standby_w = 0.9
  try {
    sim::run_simulation(w, spec, e);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("idle_w"), std::string::npos);
    EXPECT_NE(std::string(err.what()).find("break_even"), std::string::npos);
  }
}

cluster::ClusterConfig crash_cluster(std::uint32_t servers) {
  cluster::ClusterConfig c;
  c.server_count = servers;
  c.distribution = cluster::DistributionPolicy::kPartitioned;
  c.engine.joint.physical_bytes = gib(1);
  c.engine.joint.unit_bytes = 16 * kMiB;
  c.engine.joint.period_s = 300.0;
  c.engine.prefill_cache = true;
  c.engine.warm_up_s = 300.0;
  c.partition_pages = 64;
  c.chassis_on_w = 100.0;
  return c;
}

workload::SynthesizerConfig cluster_workload() {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(256);
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = 1200.0;
  w.page_bytes = 64 * kKiB;
  w.seed = 6;
  return w;
}

TEST(ClusterFaultTest, FaultRoutingMovesRequestsOffDownServers) {
  auto cfg = crash_cluster(2);
  constexpr auto kStart = workload::kTraceFlagStart;
  const auto trace = test::make_trace({
      {1.0, 0, kStart},   // stripe 0 -> server 0 (down at t = 1)
      {1.1, 1},           // continuation follows its request
      {2.0, 64, kStart},  // stripe 1 -> server 1
      {6.0, 0, kStart},   // stripe 0 again, after the outage
  });
  std::vector<cluster::OutageWindows> outages(2);
  outages[0] = {{0.5, 5.0}};
  const auto fr = cluster::route_requests_with_faults(trace, cfg, outages);
  EXPECT_EQ(fr.routes, (std::vector<std::uint32_t>{1, 1, 1, 0}));
  EXPECT_EQ(fr.failed_over_requests, 1u);

  // Every server down: the home server keeps the request.
  std::vector<cluster::OutageWindows> all_down(2);
  all_down[0] = {{0.0, 10.0}};
  all_down[1] = {{0.0, 10.0}};
  const auto stuck = cluster::route_requests_with_faults(trace, cfg, all_down);
  EXPECT_EQ(stuck.routes, (std::vector<std::uint32_t>{0, 0, 1, 0}));
  EXPECT_EQ(stuck.failed_over_requests, 0u);
}

TEST(ClusterFaultTest, CrashForcesChassisOffAndRestart) {
  // Idle server: powers off at 600, crashes (already off) at 1000, restarts
  // at 1120, idles off again at 1720.
  const auto idle =
      cluster::chassis_usage(nullptr, 0, 10000.0, 600.0, {{1000.0, 1120.0}});
  EXPECT_NEAR(idle.on_s, 1200.0, 1e-9);
  EXPECT_EQ(idle.power_cycles, 3u);

  // Busy server: on except during the outage; the crash is one cycle.
  std::vector<double> busy_times;
  for (int i = 0; i < 1000; ++i) busy_times.push_back(i * 10.0);
  const auto busy = cluster::chassis_usage(
      busy_times.data(), busy_times.size(), 10000.0, 600.0,
      {{1000.0, 1120.0}});
  EXPECT_NEAR(busy.on_s, 10000.0 - 120.0, 1e-9);
  EXPECT_EQ(busy.power_cycles, 1u);
}

TEST(ClusterFaultTest, ServerCrashesFailOverAndConserveRequests) {
  auto cfg = crash_cluster(4);
  cfg.engine.fault.enabled = true;
  cfg.engine.fault.server_mtbf_s = 300.0;
  cfg.engine.fault.server_outage_s = 120.0;
  const auto spec =
      sim::fixed_policy(sim::DiskPolicyKind::kTwoCompetitive, mib(256));
  const auto w = cluster_workload();

  cluster::ClusterEngine faulted(cfg, w, spec);
  const auto m = faulted.run();
  EXPECT_GT(m.reliability.server_crashes, 0u);
  EXPECT_GT(m.reliability.failed_over_requests, 0u);

  // Failover re-routes requests but never drops them.
  auto clean_cfg = cfg;
  clean_cfg.engine.fault = fault::FaultPlan{};
  cluster::ClusterEngine clean(clean_cfg, w, spec);
  const auto base = clean.run();
  EXPECT_FALSE(base.reliability.any());
  EXPECT_EQ(m.total_requests(), base.total_requests());

  // Crash schedules and everything downstream replay bit-identically.
  cluster::ClusterEngine repeat(cfg, w, spec);
  const auto m2 = repeat.run();
  expect_same_reliability(m.reliability, m2.reliability);
  EXPECT_EQ(m.total_requests(), m2.total_requests());
  EXPECT_EQ(m.total_j(), m2.total_j());
}

}  // namespace
}  // namespace jpm
