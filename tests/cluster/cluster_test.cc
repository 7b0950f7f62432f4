#include "jpm/cluster/cluster.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "jpm/util/check.h"
#include "make_trace.h"

namespace jpm::cluster {
namespace {

workload::SynthesizerConfig small_workload() {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(256);
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = 1200.0;
  w.page_bytes = 64 * kKiB;
  w.seed = 6;
  return w;
}

ClusterConfig small_cluster(std::uint32_t servers,
                            DistributionPolicy policy) {
  ClusterConfig c;
  c.server_count = servers;
  c.distribution = policy;
  c.engine.joint.physical_bytes = gib(1);
  c.engine.joint.unit_bytes = 16 * kMiB;
  c.engine.joint.period_s = 300.0;
  c.engine.prefill_cache = true;
  c.engine.warm_up_s = 300.0;
  c.partition_pages = 64;
  return c;
}

constexpr auto kStart = workload::kTraceFlagStart;

workload::Trace tiny_trace() {
  return test::make_trace({
      {1.0, 0, kStart},    // stripe 0
      {1.1, 1},
      {2.0, 64, kStart},   // stripe 1
      {3.0, 128, kStart},  // stripe 2
      {4.0, 0, kStart},    // stripe 0 again
  });
}

TEST(RoutingTest, RoundRobinRotatesPerRequest) {
  auto cfg = small_cluster(3, DistributionPolicy::kRoundRobin);
  const auto routes = route_requests(tiny_trace(), cfg);
  EXPECT_EQ(routes, (std::vector<std::uint32_t>{0, 0, 1, 2, 0}));
}

TEST(RoutingTest, ContinuationsFollowTheirRequest) {
  auto cfg = small_cluster(2, DistributionPolicy::kRoundRobin);
  const auto routes = route_requests(tiny_trace(), cfg);
  // Event 1 is a continuation of request 0 -> same server.
  EXPECT_EQ(routes[1], routes[0]);
}

TEST(RoutingTest, PartitionedFollowsContent) {
  auto cfg = small_cluster(2, DistributionPolicy::kPartitioned);
  const auto routes = route_requests(tiny_trace(), cfg);
  EXPECT_EQ(routes[0], 0u);  // stripe 0 -> server 0
  EXPECT_EQ(routes[2], 1u);  // stripe 1 -> server 1
  EXPECT_EQ(routes[3], 0u);  // stripe 2 -> server 0
  EXPECT_EQ(routes[4], 0u);  // same content, same server every time
}

TEST(RoutingTest, UnbalancedConcentratesLightLoad) {
  auto cfg = small_cluster(4, DistributionPolicy::kUnbalanced);
  cfg.rate_cap_rps = 1000.0;  // nothing spills
  workload::Trace trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back({static_cast<double>(i), static_cast<std::uint64_t>(i),
                     kStart});
  }
  const auto routes = route_requests(trace, cfg);
  for (auto r : routes) EXPECT_EQ(r, 0u);
}

TEST(RoutingTest, UnbalancedSpillsPastTheCap) {
  auto cfg = small_cluster(4, DistributionPolicy::kUnbalanced);
  cfg.rate_cap_rps = 5.0;
  cfg.rate_ewma_tau_s = 10.0;
  workload::Trace trace;
  for (int i = 0; i < 2000; ++i) {
    trace.push_back({i * 0.01, static_cast<std::uint64_t>(i), kStart});
  }
  const auto routes = route_requests(trace, cfg);
  std::vector<std::uint64_t> counts(4, 0);
  for (auto r : routes) ++counts[r];
  EXPECT_GT(counts[0], 0u);
  EXPECT_GT(counts[1], 0u);  // 100 req/s >> 5 rps cap -> spills
}

TEST(ChassisUsageTest, AlwaysOnWhenBusy) {
  std::vector<double> times;
  for (int i = 0; i < 100; ++i) times.push_back(i * 10.0);
  const auto u = chassis_usage(times.data(), times.size(), 1000.0, 600.0);
  EXPECT_NEAR(u.on_s, 1000.0, 1e-9);
  EXPECT_EQ(u.power_cycles, 0u);
}

TEST(ChassisUsageTest, PowersOffAfterIdleTimeout) {
  const double times[] = {10.0};
  const auto u = chassis_usage(times, 1, 10000.0, 600.0);
  // On from 0 until 10 + 600, then off for the rest.
  EXPECT_NEAR(u.on_s, 610.0, 1e-9);
  EXPECT_EQ(u.power_cycles, 1u);
}

TEST(ChassisUsageTest, GapInTheMiddleCycles) {
  const double times[] = {10.0, 5000.0};
  const auto u = chassis_usage(times, 2, 6000.0, 600.0);
  // [0, 610] + [5000, 5600].
  EXPECT_NEAR(u.on_s, 610.0 + 600.0, 1e-9);
  EXPECT_EQ(u.power_cycles, 2u);
}

TEST(ChassisUsageTest, UntouchedServerPowersOffOnce) {
  const auto u = chassis_usage(nullptr, 0, 10000.0, 600.0);
  EXPECT_NEAR(u.on_s, 600.0, 1e-9);
  EXPECT_EQ(u.power_cycles, 1u);
}

TEST(ClusterEngineTest, ConservesRequestsAcrossServers) {
  ClusterEngine cluster(
      small_cluster(3, DistributionPolicy::kPartitioned), small_workload(),
      sim::fixed_policy(sim::DiskPolicyKind::kTwoCompetitive, mib(256)));
  const auto m = cluster.run();
  ASSERT_EQ(m.servers.size(), 3u);
  EXPECT_GT(m.total_requests(), 0u);
  std::uint64_t accesses = 0;
  for (const auto& s : m.servers) accesses += s.metrics.cache_accesses;
  EXPECT_GT(accesses, 0u);
}

TEST(ClusterEngineTest, PartitioningBeatsRoundRobinOnCacheDuplication) {
  // Round-robin makes every server cache the same hot set; partitioning
  // gives each server a disjoint share, so with small per-server memory the
  // partitioned cluster misses less in aggregate.
  const auto spec =
      sim::fixed_policy(sim::DiskPolicyKind::kTwoCompetitive, mib(64));
  auto run = [&](DistributionPolicy d) {
    auto cfg = small_cluster(4, d);
    cfg.engine.prefill_cache = false;  // duplication shows in miss counts
    cfg.engine.warm_up_s = 0.0;
    ClusterEngine cluster(cfg, small_workload(), spec);
    const auto m = cluster.run();
    std::uint64_t misses = 0;
    for (const auto& s : m.servers) misses += s.metrics.disk_accesses;
    return misses;
  };
  EXPECT_LT(run(DistributionPolicy::kPartitioned),
            run(DistributionPolicy::kRoundRobin));
}

TEST(ClusterEngineTest, UnbalancedSavesChassisEnergy) {
  const auto spec = sim::joint_policy();
  auto w = small_workload();
  w.byte_rate = 5e6;
  auto run = [&](DistributionPolicy d) {
    auto cfg = small_cluster(4, d);
    cfg.chassis_on_w = 150.0;
    cfg.rate_cap_rps = 10000.0;   // everything fits on server 0
    cfg.server_off_idle_s = 120.0;  // idle servers power off quickly
    ClusterEngine cluster(cfg, w, spec);
    return cluster.run();
  };
  const auto unbalanced = run(DistributionPolicy::kUnbalanced);
  const auto round_robin = run(DistributionPolicy::kRoundRobin);
  EXPECT_LT(unbalanced.chassis_energy_j(),
            0.5 * round_robin.chassis_energy_j());
  // Concentration shows in the balance index.
  EXPECT_LT(unbalanced.balance_index(), round_robin.balance_index());
}

TEST(ClusterEngineTest, BalanceIndexBounds) {
  ClusterMetrics m;
  m.servers.resize(4);
  for (auto& s : m.servers) s.requests = 100;
  EXPECT_NEAR(m.balance_index(), 1.0, 1e-12);
  m.servers[0].requests = 400;
  for (std::size_t i = 1; i < 4; ++i) m.servers[i].requests = 0;
  EXPECT_NEAR(m.balance_index(), 0.25, 1e-12);
}

TEST(ClusterEngineTest, RejectsZeroServers) {
  auto cfg = small_cluster(2, DistributionPolicy::kRoundRobin);
  cfg.server_count = 0;
  EXPECT_THROW(
      ClusterEngine(cfg, small_workload(), sim::always_on_policy()),
      std::invalid_argument);
}

TEST(ClusterEngineTest, ConfigValidationNamesTheProblem) {
  auto cfg = small_cluster(2, DistributionPolicy::kRoundRobin);
  cfg.partition_pages = 0;
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("partition_pages"),
              std::string::npos);
  }
  cfg = small_cluster(2, DistributionPolicy::kRoundRobin);
  cfg.server_off_idle_s = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_cluster(2, DistributionPolicy::kRoundRobin);
  cfg.chassis_on_w = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace jpm::cluster
