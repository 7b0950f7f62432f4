// Results are invariant to how a source batches its events into push_chunk
// calls: pushing a trace in batches of any size must produce RunMetrics
// bit-identical to one whole-trace push (run_simulation), across every
// policy family, with writes and flushes, with readahead, on multi-disk
// arrays, and independent of JPM_THREADS. Every source relies on this: the
// stream daemon pushes ring drains, file replays push chunk windows, and
// cluster servers push shard slices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "jpm/sim/runner.h"

namespace jpm::sim {
namespace {

workload::SynthesizerConfig batch_workload(std::uint64_t seed) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(128);
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = 900.0;
  w.page_bytes = 64 * kKiB;
  w.file_scale = 16.0;
  w.write_fraction = 0.25;  // dirty pages: evict writebacks + flush bursts
  w.seed = seed;
  return w;
}

EngineConfig batch_engine() {
  EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = 64 * kKiB;
  e.joint.period_s = 300.0;
  e.warm_up_s = 300.0;
  return e;
}

// Replays the trace into an engine in push_chunk calls of `batch` events.
RunMetrics push_in_batches(const workload::Trace& trace,
                           const PolicySpec& policy,
                           const EngineConfig& config, std::size_t batch) {
  Engine engine(
      LiveSource{trace.page_bytes, trace.total_pages, trace.duration_s},
      policy, config);
  for (std::size_t i = 0; i < trace.size(); i += batch) {
    engine.push_chunk(trace.times.data() + i, trace.pages.data() + i,
                      trace.flags.data() + i,
                      std::min(batch, trace.size() - i));
  }
  return engine.finish(trace.duration_s);
}

std::vector<PolicySpec> six_policy_roster() {
  return {joint_policy(),
          fixed_policy(DiskPolicyKind::kTwoCompetitive, mib(64)),
          fixed_policy(DiskPolicyKind::kAdaptive, mib(128)),
          powerdown_policy(DiskPolicyKind::kTwoCompetitive, gib(1)),
          disable_policy(DiskPolicyKind::kAdaptive, gib(1)),
          always_on_policy()};
}

void expect_bit_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.mem_energy.static_j, b.mem_energy.static_j);
  EXPECT_EQ(a.mem_energy.dynamic_j, b.mem_energy.dynamic_j);
  EXPECT_EQ(a.disk_energy.standby_base_j, b.disk_energy.standby_base_j);
  EXPECT_EQ(a.disk_energy.static_j, b.disk_energy.static_j);
  EXPECT_EQ(a.disk_energy.transition_j, b.disk_energy.transition_j);
  EXPECT_EQ(a.disk_energy.dynamic_j, b.disk_energy.dynamic_j);
  EXPECT_EQ(a.cache_accesses, b.cache_accesses);
  EXPECT_EQ(a.disk_accesses, b.disk_accesses);
  EXPECT_EQ(a.disk_writes, b.disk_writes);
  EXPECT_EQ(a.readahead_fetches, b.readahead_fetches);
  EXPECT_EQ(a.disk_shutdowns, b.disk_shutdowns);
  EXPECT_EQ(a.spin_ups, b.spin_ups);
  EXPECT_EQ(a.disk_busy_s, b.disk_busy_s);
  EXPECT_EQ(a.spindle_count, b.spindle_count);
  EXPECT_EQ(a.total_latency_s, b.total_latency_s);
  EXPECT_EQ(a.long_latency_count, b.long_latency_count);
  ASSERT_EQ(a.periods.size(), b.periods.size());
  for (std::size_t p = 0; p < a.periods.size(); ++p) {
    EXPECT_EQ(a.periods[p].start_s, b.periods[p].start_s);
    EXPECT_EQ(a.periods[p].end_s, b.periods[p].end_s);
    EXPECT_EQ(a.periods[p].cache_accesses, b.periods[p].cache_accesses);
    EXPECT_EQ(a.periods[p].disk_accesses, b.periods[p].disk_accesses);
    EXPECT_EQ(a.periods[p].mean_idle_s, b.periods[p].mean_idle_s);
    EXPECT_EQ(a.periods[p].memory_units, b.periods[p].memory_units);
    EXPECT_EQ(a.periods[p].timeout_s, b.periods[p].timeout_s);
    EXPECT_EQ(a.periods[p].busy_s, b.periods[p].busy_s);
    EXPECT_EQ(a.periods[p].delayed_requests, b.periods[p].delayed_requests);
  }
}

// Batch sizes straddling the interesting edges: one event per push, a batch
// that never divides the event count evenly, the stream daemon's drain
// sizes, and one larger than most boundary-to-boundary runs.
const std::size_t kBatches[] = {1, 7, 64, 256, 4096};

TEST(BatchInvarianceTest, SixPoliciesBitIdenticalAcrossBatchSizes) {
  const auto trace = workload::synthesize_trace(batch_workload(7));
  for (const auto& policy : six_policy_roster()) {
    SCOPED_TRACE(policy.name);
    const auto reference = run_simulation(trace, policy, batch_engine());
    for (const std::size_t batch : kBatches) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      expect_bit_identical(
          reference, push_in_batches(trace, policy, batch_engine(), batch));
    }
  }
}

TEST(BatchInvarianceTest, ReadaheadReprobingModeIsBatchInvariant) {
  // Readahead installs pages the trace never touched, and without a tracker
  // eviction erases page-table entries (relocating their neighbours), so
  // every event re-probes the table instead of holding entry pointers.
  const auto trace = workload::synthesize_trace(batch_workload(11));
  const auto policy = fixed_policy(DiskPolicyKind::kTwoCompetitive, mib(64));
  auto engine = batch_engine();
  engine.readahead_pages = 2;
  const auto reference = run_simulation(trace, policy, engine);
  for (const std::size_t batch : kBatches) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    expect_bit_identical(reference,
                         push_in_batches(trace, policy, engine, batch));
  }
}

TEST(BatchInvarianceTest, MultiDiskArrayIsBatchInvariant) {
  const auto trace = workload::synthesize_trace(batch_workload(13));
  auto engine = batch_engine();
  engine.disk_count = 4;
  const auto reference = run_simulation(trace, joint_policy(), engine);
  for (const std::size_t batch : kBatches) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    expect_bit_identical(reference,
                         push_in_batches(trace, joint_policy(), engine, batch));
  }
}

TEST(BatchInvarianceTest, ThreadCountDoesNotInteractWithBatching) {
  // A sweep at any thread count equals each policy pushed alone in
  // 256-event batches.
  const auto w = batch_workload(7);
  const std::vector<SweepWorkload> points{{"128MB", w, {}, {}}};
  auto sweep_at = [&](const char* threads) {
    const char* old = std::getenv("JPM_THREADS");
    const std::string saved = old ? old : "";
    const bool had_old = old != nullptr;
    ::setenv("JPM_THREADS", threads, 1);
    auto out = run_sweep(points, six_policy_roster(), batch_engine());
    if (had_old) {
      ::setenv("JPM_THREADS", saved.c_str(), 1);
    } else {
      ::unsetenv("JPM_THREADS");
    }
    return out;
  };
  const auto trace = workload::synthesize_trace(w);
  const auto roster = six_policy_roster();
  for (const auto* threads : {"1", "8"}) {
    SCOPED_TRACE(std::string("threads ") + threads);
    const auto swept = sweep_at(threads);
    ASSERT_EQ(swept.size(), 1u);
    ASSERT_EQ(swept[0].outcomes.size(), roster.size());
    for (std::size_t j = 0; j < roster.size(); ++j) {
      expect_bit_identical(
          push_in_batches(trace, roster[j], batch_engine(), 256),
          swept[0].outcomes[j].metrics);
    }
  }
}

}  // namespace
}  // namespace jpm::sim
