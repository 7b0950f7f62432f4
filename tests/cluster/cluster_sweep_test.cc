// Fleet-scale cluster execution: the shard-block arena layout and the
// run_cluster_sweep fan-out. The determinism contract is the headline — a
// straggler-heavy, fault-injected cluster sweep (server crashes, spin-up
// failures, a dense point next to a sparse one) must produce bit-identical
// metrics and an identical progress stream at any JPM_THREADS. Points
// sharing a workload model must match clusters that built their own, and an
// invalid point must fail the sweep with its config error.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "jpm/cluster/cluster.h"

namespace jpm::cluster {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
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

// ---- ShardLayout ------------------------------------------------------------

TEST(ShardLayoutTest, PartitionsEventsByRouteKeepingTimeOrder) {
  constexpr auto kStart = workload::kTraceFlagStart;
  workload::Trace trace;
  trace.push_back({0.0, 10, kStart});  // -> server 0
  trace.push_back({0.1, 11});          // -> server 1
  trace.push_back({0.2, 12, kStart});  // -> server 0
  trace.push_back({0.3, 13, kStart});  // -> server 2
  trace.push_back({0.4, 14});          // -> server 0
  // -> server 1 (write start)
  trace.push_back({0.5, 15, kStart | workload::kTraceFlagWrite});
  const std::vector<std::uint32_t> routes = {0, 1, 0, 2, 0, 1};

  const ShardLayout shards = build_shard_layout(trace, routes, 3);
  EXPECT_EQ(shards.server_count(), 3u);
  EXPECT_EQ(shards.event_offsets,
            (std::vector<std::size_t>{0, 3, 5, 6}));
  EXPECT_EQ(shards.events_of(0), 3u);
  EXPECT_EQ(shards.events_of(1), 2u);
  EXPECT_EQ(shards.events_of(2), 1u);

  // Server 0's contiguous block, in original time order.
  EXPECT_EQ(shards.times[0], 0.0);
  EXPECT_EQ(shards.times[1], 0.2);
  EXPECT_EQ(shards.times[2], 0.4);
  EXPECT_EQ(shards.pages[0], 10u);
  EXPECT_EQ(shards.pages[1], 12u);
  EXPECT_EQ(shards.pages[2], 14u);
  // Server 1's block carries the flag bits through.
  EXPECT_EQ(shards.pages[3], 11u);
  EXPECT_EQ(shards.flags[4],
            workload::kTraceFlagStart | workload::kTraceFlagWrite);

  // Arrivals lane: request starts only, per server.
  EXPECT_EQ(shards.arrival_offsets,
            (std::vector<std::size_t>{0, 2, 3, 4}));
  EXPECT_EQ(shards.arrivals[0], 0.0);
  EXPECT_EQ(shards.arrivals[1], 0.2);
  EXPECT_EQ(shards.arrivals[2], 0.5);
  EXPECT_EQ(shards.arrivals[3], 0.3);
  EXPECT_EQ(shards.request_counts,
            (std::vector<std::uint64_t>{2, 1, 1}));
}

TEST(ShardLayoutTest, UntouchedServerOwnsAnEmptySlice) {
  workload::Trace trace;
  trace.push_back({1.0, 0, workload::kTraceFlagStart});
  trace.push_back({2.0, 1, workload::kTraceFlagStart});
  const ShardLayout shards =
      build_shard_layout(trace, {0, 0}, 3);
  EXPECT_EQ(shards.events_of(0), 2u);
  EXPECT_EQ(shards.events_of(1), 0u);
  EXPECT_EQ(shards.events_of(2), 0u);
  EXPECT_EQ(shards.request_counts,
            (std::vector<std::uint64_t>{2, 0, 0}));
}

// ---- sweep determinism ------------------------------------------------------

workload::SynthesizerConfig sweep_point(double byte_rate, std::uint64_t seed) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(128);
  w.byte_rate = byte_rate;
  w.popularity = 0.1;
  w.duration_s = 900.0;
  w.page_bytes = 64 * kKiB;
  w.seed = seed;
  return w;
}

// Straggler-heavy fault-injected fleet: a dense point next to a sparse one
// (wildly uneven job costs), spin-up failures plus server crashes so the
// fault-routing and outage-chassis paths are all live.
ClusterConfig faulted_cluster() {
  ClusterConfig c;
  c.server_count = 4;
  c.distribution = DistributionPolicy::kPartitioned;
  c.partition_pages = 64;
  c.chassis_on_w = 150.0;
  c.server_off_idle_s = 120.0;
  c.engine.joint.physical_bytes = gib(1);
  c.engine.joint.unit_bytes = 16 * kMiB;
  c.engine.joint.page_bytes = 64 * kKiB;
  c.engine.joint.period_s = 300.0;
  c.engine.joint.disk.transition_j = 7.75;  // short break-even: spin cycles
  c.engine.prefill_cache = false;
  c.engine.warm_up_s = 0.0;
  c.engine.fault.enabled = true;
  c.engine.fault.seed = 42;
  c.engine.fault.p_spinup_fail = 0.5;
  c.engine.fault.spinup_degrade_after = 4;
  c.engine.fault.guard.enabled = true;
  c.engine.fault.server_mtbf_s = 400.0;  // ~2 crashes per server per run
  return c;
}

std::vector<sim::SweepWorkload> straggler_workloads() {
  return {
      {"dense", sweep_point(20e6, 3), "", {{"byte_rate", 20e6}}},
      {"sparse", sweep_point(0.2e6, 4), "", {{"byte_rate", 0.2e6}}},
  };
}

std::vector<sim::PolicySpec> sweep_roster() {
  return {sim::joint_policy(),
          sim::fixed_policy(sim::DiskPolicyKind::kTwoCompetitive, mib(64))};
}

std::vector<ClusterSweepPoint> sweep_under(const char* threads,
                                           std::vector<std::string>* lines) {
  ScopedEnv t("JPM_THREADS", threads);
  return run_cluster_sweep(faulted_cluster(), straggler_workloads(),
                           sweep_roster(), [lines](const std::string& line) {
                             lines->push_back(line);
                           });
}

void expect_metrics_bit_identical(const ClusterMetrics& a,
                                  const ClusterMetrics& b) {
  EXPECT_EQ(a.duration_s, b.duration_s);
  ASSERT_EQ(a.servers.size(), b.servers.size());
  for (std::size_t s = 0; s < a.servers.size(); ++s) {
    SCOPED_TRACE("server " + std::to_string(s));
    const ServerOutcome& x = a.servers[s];
    const ServerOutcome& y = b.servers[s];
    EXPECT_EQ(x.requests, y.requests);
    EXPECT_EQ(x.chassis_on_s, y.chassis_on_s);
    EXPECT_EQ(x.chassis_energy_j, y.chassis_energy_j);
    EXPECT_EQ(x.power_cycles, y.power_cycles);
    EXPECT_EQ(x.metrics.mem_energy.static_j, y.metrics.mem_energy.static_j);
    EXPECT_EQ(x.metrics.mem_energy.dynamic_j, y.metrics.mem_energy.dynamic_j);
    EXPECT_EQ(x.metrics.disk_energy.static_j, y.metrics.disk_energy.static_j);
    EXPECT_EQ(x.metrics.disk_energy.transition_j,
              y.metrics.disk_energy.transition_j);
    EXPECT_EQ(x.metrics.disk_energy.dynamic_j,
              y.metrics.disk_energy.dynamic_j);
    EXPECT_EQ(x.metrics.disk_energy.standby_base_j,
              y.metrics.disk_energy.standby_base_j);
    EXPECT_EQ(x.metrics.cache_accesses, y.metrics.cache_accesses);
    EXPECT_EQ(x.metrics.disk_accesses, y.metrics.disk_accesses);
    EXPECT_EQ(x.metrics.disk_shutdowns, y.metrics.disk_shutdowns);
    EXPECT_EQ(x.metrics.spin_ups, y.metrics.spin_ups);
    EXPECT_EQ(x.metrics.total_latency_s, y.metrics.total_latency_s);
    EXPECT_EQ(x.metrics.long_latency_count, y.metrics.long_latency_count);
    EXPECT_EQ(x.metrics.reliability.spinup_retries,
              y.metrics.reliability.spinup_retries);
    EXPECT_EQ(x.metrics.reliability.retry_delay_s,
              y.metrics.reliability.retry_delay_s);
    EXPECT_EQ(x.metrics.reliability.guard_backoffs,
              y.metrics.reliability.guard_backoffs);
  }
  EXPECT_EQ(a.reliability.server_crashes, b.reliability.server_crashes);
  EXPECT_EQ(a.reliability.failed_over_requests,
            b.reliability.failed_over_requests);
  EXPECT_EQ(a.reliability.spinup_retries, b.reliability.spinup_retries);
  EXPECT_EQ(a.pipeline_energy_j(), b.pipeline_energy_j());
  EXPECT_EQ(a.chassis_energy_j(), b.chassis_energy_j());
  EXPECT_EQ(a.balance_index(), b.balance_index());
}

void expect_points_bit_identical(const std::vector<ClusterSweepPoint>& a,
                                 const std::vector<ClusterSweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].label);
    EXPECT_EQ(a[i].label, b[i].label);
    ASSERT_EQ(a[i].outcomes.size(), b[i].outcomes.size());
    for (std::size_t j = 0; j < a[i].outcomes.size(); ++j) {
      SCOPED_TRACE(a[i].outcomes[j].spec.name);
      EXPECT_EQ(a[i].outcomes[j].spec.name, b[i].outcomes[j].spec.name);
      expect_metrics_bit_identical(a[i].outcomes[j].metrics,
                                   b[i].outcomes[j].metrics);
    }
  }
}

TEST(ClusterSweepDeterminismTest, FaultedStragglerSweepIsScheduleInvariant) {
  std::vector<std::string> serial_lines;
  const auto serial = sweep_under("1", &serial_lines);

  // The fault plan must actually fire, or this degenerates into the
  // fault-free case: crashes routed requests off dead servers.
  bool any_failover = false;
  bool any_reliability = false;
  for (const auto& point : serial) {
    for (const auto& outcome : point.outcomes) {
      any_failover |= outcome.metrics.reliability.failed_over_requests > 0;
      any_reliability |= outcome.metrics.reliability.any();
    }
  }
  EXPECT_TRUE(any_failover);
  EXPECT_TRUE(any_reliability);

  for (const char* threads : {"1", "4", "8"}) {
    SCOPED_TRACE(std::string("JPM_THREADS=") + threads);
    std::vector<std::string> lines;
    const auto parallel = sweep_under(threads, &lines);
    expect_points_bit_identical(serial, parallel);
    EXPECT_EQ(lines, serial_lines);
  }
}

TEST(ClusterSweepDeterminismTest, ProgressLinesArriveInJobOrder) {
  std::vector<std::string> lines;
  sweep_under("8", &lines);
  ASSERT_EQ(lines.size(), 4u);  // 2 points x 2 policies, point-major
  EXPECT_EQ(lines[0].rfind("[dense] Joint", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("[dense] ", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("[sparse] Joint", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("[sparse] ", 0), 0u) << lines[3];
}

// ---- shared workload models -------------------------------------------------

// A 3-rate x 3-seed grid in grid order (first axis outermost): the three
// rates of each seed share one workload model, interleaved with the others.
std::vector<sim::SweepWorkload> rate_seed_grid() {
  std::vector<sim::SweepWorkload> points;
  for (const double rate : {0.2e6, 1e6, 4e6}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      auto w = sweep_point(rate, seed);
      w.dataset_bytes = mib(64);
      w.duration_s = 300.0;
      std::ostringstream label;
      label << "byte_rate=" << rate << ",seed=" << seed;
      points.push_back({label.str(), w, "",
                        {{"byte_rate", rate},
                         {"seed", static_cast<double>(seed)}}});
    }
  }
  return points;
}

ClusterConfig small_cluster() {
  ClusterConfig c = faulted_cluster();
  c.server_count = 3;
  c.engine.fault = fault::FaultPlan{};
  return c;
}

TEST(ClusterSweepModelsTest, SharedModelSweepMatchesUnsharedRuns) {
  const auto grid = rate_seed_grid();
  const auto roster = sweep_roster();
  const ClusterConfig config = small_cluster();

  // Reference: one ClusterEngine per (point, policy), each building its own
  // model, and the progress line the sweep prints for it.
  std::vector<std::vector<ClusterMetrics>> unshared;
  std::vector<std::string> want_lines;
  for (const auto& point : grid) {
    auto& row = unshared.emplace_back();
    for (const auto& policy : roster) {
      ClusterEngine engine(config, point.workload, policy);
      row.push_back(engine.run());
      std::ostringstream os;
      os << "[" << point.label << "] " << policy.name << ": total "
         << row.back().total_j() / 1e3 << " kJ, balance "
         << row.back().balance_index();
      want_lines.push_back(os.str());
    }
  }

  for (const char* threads : {"1", "4", "8"}) {
    SCOPED_TRACE(std::string("JPM_THREADS=") + threads);
    const ScopedEnv t("JPM_THREADS", threads);
    std::vector<std::string> lines;
    const auto points = run_cluster_sweep(
        config, grid, roster,
        [&](const std::string& line) { lines.push_back(line); });
    ASSERT_EQ(points.size(), grid.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = 0; j < roster.size(); ++j) {
        SCOPED_TRACE(points[i].label + "/" + roster[j].name);
        expect_metrics_bit_identical(points[i].outcomes[j].metrics,
                                     unshared[i][j]);
      }
    }
    EXPECT_EQ(lines, want_lines);
  }
}

// An invalid point fails the sweep with the error a generator for its
// config raises — whether the bad knob is outside the key (another job of
// the key builds the model, the point's own generator rejects it) or inside
// it (the build itself fails) — and no job is left waiting on a model.
TEST(ClusterSweepModelsTest, InvalidPointFailsWithTheConfigError) {
  auto bad_rate = rate_seed_grid();
  bad_rate[4].workload.byte_rate = 0.0;  // shares seed 2's model
  auto bad_dataset = rate_seed_grid();
  bad_dataset[4].workload.dataset_bytes = 0;  // a key of its own
  const std::pair<std::vector<sim::SweepWorkload>, std::string> cases[] = {
      {bad_rate,
       "invalid SynthesizerConfig: byte_rate must be positive and finite"},
      {bad_dataset,
       "invalid SynthesizerConfig: dataset_bytes must be positive"},
  };
  for (const auto& [grid, message] : cases) {
    for (const char* threads : {"1", "4", "8"}) {
      SCOPED_TRACE(message + " at JPM_THREADS=" + threads);
      const ScopedEnv t("JPM_THREADS", threads);
      try {
        run_cluster_sweep(small_cluster(), grid, sweep_roster());
        ADD_FAILURE() << "the sweep accepted an invalid point";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), message);
      }
    }
  }
}

}  // namespace
}  // namespace jpm::cluster
