// StreamEngine tests.
//
// The two headline claims of the streaming core, checked exactly:
//
//   * Differential: pushing a synthesized trace through the push-mode path
//     (offer -> ring -> pump -> the engine's push_chunk) yields RunMetrics
//     bit-identical to replaying the same trace, when nothing is shed.
//   * Determinism: driven lock-step from one thread, every overload outcome
//     (shed counters, degraded period flags, watchdog closes, forced
//     fallbacks) is an exact number, bit-identical between JPM_THREADS=1
//     and JPM_THREADS=8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "jpm/stream/stream_engine.h"
#include "jpm/workload/synthesizer.h"

namespace jpm::stream {
namespace {

using sim::EngineConfig;
using sim::RunMetrics;

workload::SynthesizerConfig stream_workload(double duration_s,
                                            std::uint64_t seed) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(128);
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = duration_s;
  w.page_bytes = 64 * kKiB;
  w.file_scale = 16.0;
  w.seed = seed;
  return w;
}

EngineConfig stream_engine_config(double period_s = 60.0) {
  EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = 64 * kKiB;
  e.joint.period_s = period_s;
  return e;
}

sim::LiveSource live_source_for(const workload::Trace& trace) {
  sim::LiveSource src;
  src.page_bytes = trace.page_bytes;
  src.total_pages = trace.total_pages;
  src.duration_hint_s = trace.duration_s;
  return src;
}

StreamEvent trace_event(const workload::Trace& trace, std::size_t i) {
  StreamEvent e;
  e.time_s = trace.times[i];
  e.page = trace.pages[i];
  e.flags = trace.flags[i];
  return e;
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
  EXPECT_EQ(a.total_latency_s, b.total_latency_s);
  EXPECT_EQ(a.long_latency_count, b.long_latency_count);
  EXPECT_EQ(a.reliability.manager_fallbacks, b.reliability.manager_fallbacks);
  EXPECT_EQ(a.reliability.forced_fallbacks, b.reliability.forced_fallbacks);
  ASSERT_EQ(a.periods.size(), b.periods.size());
  for (std::size_t p = 0; p < a.periods.size(); ++p) {
    EXPECT_EQ(a.periods[p].start_s, b.periods[p].start_s);
    EXPECT_EQ(a.periods[p].end_s, b.periods[p].end_s);
    EXPECT_EQ(a.periods[p].cache_accesses, b.periods[p].cache_accesses);
    EXPECT_EQ(a.periods[p].disk_accesses, b.periods[p].disk_accesses);
    EXPECT_EQ(a.periods[p].memory_units, b.periods[p].memory_units);
    EXPECT_EQ(a.periods[p].timeout_s, b.periods[p].timeout_s);
    EXPECT_EQ(a.periods[p].busy_s, b.periods[p].busy_s);
    EXPECT_EQ(a.periods[p].shed_events, b.periods[p].shed_events);
    EXPECT_EQ(a.periods[p].degraded, b.periods[p].degraded);
  }
}

// Runs `fn` with JPM_THREADS set to `threads`, restoring the prior value.
template <typename Fn>
auto with_threads(const char* threads, Fn&& fn) {
  const char* old = std::getenv("JPM_THREADS");
  const std::string saved = old ? old : "";
  const bool had_old = old != nullptr;
  ::setenv("JPM_THREADS", threads, 1);
  auto result = fn();
  if (had_old) {
    ::setenv("JPM_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("JPM_THREADS");
  }
  return result;
}

// ---- differential: streaming == replay ------------------------------------

// Offers the whole trace in lock-step chunks small enough that nothing is
// ever shed, then finishes at the trace duration — the streaming twin of
// run_simulation(trace, ...).
RunMetrics stream_whole_trace(const workload::Trace& trace,
                              const sim::PolicySpec& policy,
                              const EngineConfig& engine_config) {
  StreamConfig cfg;
  cfg.ring_capacity = 4096;
  cfg.overload = OverloadPolicy::kShed;  // would shed loudly if mis-sized
  cfg.watchdog_timeout_s = 0.0;
  cfg.max_batch = 256;
  StreamEngine se(live_source_for(trace), policy, engine_config, cfg);
  const std::size_t n = trace.size();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t stop = std::min(n, i + 2048);
    for (; i < stop; ++i) {
      EXPECT_TRUE(se.offer(trace_event(trace, i)));
    }
    while (se.pump() > 0) {
    }
  }
  se.close();
  // Close at the declared duration, exactly as run_simulation does for a
  // replay (the synthesizer may emit its final event a hair past it).
  RunMetrics m = se.finish_at(trace.duration_s);
  const StreamStats s = se.stats();
  EXPECT_EQ(s.shed_reads + s.shed_writes, 0u);
  EXPECT_EQ(s.events_processed, n);
  return m;
}

TEST(StreamEngineTest, StreamingMatchesReplayBitForBit) {
  const auto w = stream_workload(1200.0, 7);
  const auto trace = workload::synthesize_trace(w);
  auto engine_config = stream_engine_config(300.0);
  engine_config.prefill_cache = true;
  engine_config.warm_up_s = 300.0;

  const std::vector<sim::PolicySpec> roster = {
      sim::joint_policy(),
      sim::fixed_policy(sim::DiskPolicyKind::kTwoCompetitive, mib(64)),
      sim::always_on_policy()};
  for (const auto& policy : roster) {
    SCOPED_TRACE(policy.name);
    const auto replayed = sim::run_simulation(trace, policy, engine_config);
    const auto streamed = stream_whole_trace(trace, policy, engine_config);
    expect_bit_identical(replayed, streamed);
    // A pure replay must never carry overload markings.
    for (const auto& p : streamed.periods) {
      EXPECT_EQ(p.shed_events, 0u);
      EXPECT_FALSE(p.degraded);
    }
  }
}

TEST(StreamEngineTest, ChunkingDoesNotChangeMetrics) {
  // Same stream offered one event at a time vs. big bursts: identical runs.
  const auto w = stream_workload(300.0, 11);
  const auto trace = workload::synthesize_trace(w);
  const auto engine_config = stream_engine_config();
  const auto policy = sim::joint_policy();

  StreamConfig cfg;
  cfg.ring_capacity = 4096;
  cfg.watchdog_timeout_s = 0.0;
  cfg.max_batch = 1;  // per-event engine pushes
  StreamEngine one(live_source_for(trace), policy, engine_config, cfg);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_TRUE(one.offer(trace_event(trace, i)));
    while (one.pump() > 0) {
    }
  }
  one.close();
  const auto per_event = one.finish();

  const auto batched = stream_whole_trace(trace, policy, engine_config);
  expect_bit_identical(per_event, batched);
}

// ---- overload policies, lock-step deterministic ---------------------------

struct StreamOutcome {
  RunMetrics metrics;
  StreamStats stats;
};

void expect_same_outcome(const StreamOutcome& a, const StreamOutcome& b) {
  expect_bit_identical(a.metrics, b.metrics);
  EXPECT_EQ(a.stats.events_offered, b.stats.events_offered);
  EXPECT_EQ(a.stats.events_accepted, b.stats.events_accepted);
  EXPECT_EQ(a.stats.events_processed, b.stats.events_processed);
  EXPECT_EQ(a.stats.shed_reads, b.stats.shed_reads);
  EXPECT_EQ(a.stats.shed_writes, b.stats.shed_writes);
  EXPECT_EQ(a.stats.degrade_engagements, b.stats.degrade_engagements);
  EXPECT_EQ(a.stats.watchdog_closes, b.stats.watchdog_closes);
  EXPECT_EQ(a.stats.clamped_timestamps, b.stats.clamped_timestamps);
  EXPECT_EQ(a.stats.max_occupancy, b.stats.max_occupancy);
}

// Bursts of 20 offers against an 8-slot ring with drop-newest shedding:
// every burst accepts 8 and sheds 12, all in lock-step, so the outcome is
// an exact function of the trace.
StreamOutcome run_shed_scenario() {
  const auto w = stream_workload(600.0, 3);
  const auto trace = workload::synthesize_trace(w);
  StreamConfig cfg;
  cfg.ring_capacity = 8;
  cfg.overload = OverloadPolicy::kShed;
  cfg.watchdog_timeout_s = 0.0;
  cfg.max_batch = 64;
  StreamEngine se(live_source_for(trace), sim::joint_policy(),
                  stream_engine_config(), cfg);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    se.offer(trace_event(trace, i));
    if ((i + 1) % 20 == 0) {
      while (se.pump() > 0) {
      }
    }
  }
  se.close();
  while (se.pump() > 0) {
  }
  StreamOutcome out;
  out.metrics = se.finish();
  out.stats = se.stats();
  return out;
}

TEST(StreamEngineTest, ShedPolicyCountsAndFlagsExactly) {
  const auto out = run_shed_scenario();
  const auto& s = out.stats;

  // Exact shed arithmetic: 8 of every 20-burst fit the ring.
  const std::uint64_t n = s.events_offered;
  const std::uint64_t full_bursts = n / 20;
  const std::uint64_t tail = n % 20;
  const std::uint64_t expected_accepted =
      full_bursts * 8 + std::min<std::uint64_t>(tail, 8);
  EXPECT_EQ(s.events_accepted, expected_accepted);
  EXPECT_EQ(s.shed_reads + s.shed_writes, n - expected_accepted);
  EXPECT_EQ(s.events_processed, expected_accepted);
  EXPECT_EQ(s.max_occupancy, 8u);

  // Every shed event is charged to exactly one period, and a period that
  // shed is flagged degraded-accuracy.
  std::uint64_t charged = 0;
  for (const auto& p : out.metrics.periods) {
    charged += p.shed_events;
    EXPECT_EQ(p.degraded, p.shed_events > 0);
  }
  EXPECT_EQ(charged, s.shed_reads + s.shed_writes);
  EXPECT_GT(charged, 0u);
}

TEST(StreamEngineTest, ShedOutcomeIsThreadCountInvariant) {
  const auto serial = with_threads("1", run_shed_scenario);
  const auto parallel = with_threads("8", run_shed_scenario);
  expect_same_outcome(serial, parallel);
}

// Degrade: saturating the ring past the high watermark pins the manager to
// its conservative fallback posture; periods closed while pinned are
// flagged; draining past the low watermark releases it.
StreamOutcome run_degrade_scenario() {
  const auto w = stream_workload(600.0, 5);
  const auto trace = workload::synthesize_trace(w);
  StreamConfig cfg;
  cfg.ring_capacity = 8;
  cfg.overload = OverloadPolicy::kDegrade;
  cfg.high_watermark = 0.75;
  cfg.low_watermark = 0.25;
  cfg.block_timeout_s = 0.0;  // a full ring sheds immediately: no wall clock
  cfg.watchdog_timeout_s = 0.0;
  cfg.max_batch = 8;  // one pump drains one full ring
  StreamEngine se(live_source_for(trace), sim::joint_policy(),
                  stream_engine_config(), cfg);
  // Fill the ring to capacity (occupancy 1.0 >= 0.75); the single pump sees
  // the saturation, engages the fallback, and drains everything.
  std::size_t i = 0;
  for (; i < 8; ++i) se.offer(trace_event(trace, i));
  se.pump();
  // Close a period while pinned: the decision must be the O(1) fallback.
  se.force_period_close();
  // A pump on the (now empty) ring sits at occupancy 0 <= 0.25: released.
  se.pump();
  // Stream the rest in half-ring bursts: occupancy 0.5 sits inside the
  // hysteresis band, so the fallback never re-engages.
  for (; i < trace.size(); ++i) {
    se.offer(trace_event(trace, i));
    if ((i + 1) % 4 == 0) se.pump();
  }
  se.close();
  while (se.pump() > 0) {
  }
  StreamOutcome out;
  out.metrics = se.finish();
  out.stats = se.stats();
  return out;
}

TEST(StreamEngineTest, DegradePolicyPinsAndReleasesTheManager) {
  const auto out = run_degrade_scenario();
  EXPECT_EQ(out.stats.degrade_engagements, 1u);
  EXPECT_EQ(out.stats.watchdog_closes, 1u);  // the explicit forced close
  EXPECT_GE(out.metrics.reliability.forced_fallbacks, 1u);
  ASSERT_FALSE(out.metrics.periods.empty());
  // The period closed while pinned is flagged even though nothing was shed
  // inside it; later clean periods are not.
  EXPECT_TRUE(out.metrics.periods.front().degraded);
  EXPECT_FALSE(out.metrics.periods.back().degraded);
}

TEST(StreamEngineTest, DegradeOutcomeIsThreadCountInvariant) {
  const auto serial = with_threads("1", run_degrade_scenario);
  const auto parallel = with_threads("8", run_degrade_scenario);
  expect_same_outcome(serial, parallel);
}

TEST(StreamEngineTest, ForcedPeriodCloseProducesCleanBoundaries) {
  sim::LiveSource src;
  src.page_bytes = 64 * kKiB;
  src.total_pages = 1024;
  StreamConfig cfg;
  cfg.ring_capacity = 64;
  cfg.watchdog_timeout_s = 0.0;
  StreamEngine se(src, sim::joint_policy(), stream_engine_config(), cfg);

  StreamEvent e;
  e.time_s = 10.0;
  e.page = 1;
  e.flags = workload::kTraceFlagStart;
  ASSERT_TRUE(se.offer(e));
  while (se.pump() > 0) {
  }
  // Two watchdog-style closes with no further events: the half-open period
  // ends exactly at its boundary, then an empty period follows.
  se.force_period_close();
  se.force_period_close();
  se.close();
  const auto m = se.finish();
  const auto s = se.stats();
  EXPECT_EQ(s.watchdog_closes, 2u);
  ASSERT_GE(m.periods.size(), 2u);
  EXPECT_EQ(m.periods[0].end_s, 60.0);
  EXPECT_EQ(m.periods[0].cache_accesses, 1u);
  EXPECT_EQ(m.periods[1].end_s, 120.0);
  EXPECT_EQ(m.periods[1].cache_accesses, 0u);
  EXPECT_EQ(m.duration_s, 120.0);
}

TEST(StreamEngineTest, OutOfRangePageFailsNamingPageAndDeclaredSize) {
  // A live source declares its data-set size up front; the engine's page
  // check rejects an event past it when the event is pumped.
  sim::LiveSource src;
  src.page_bytes = 64 * kKiB;
  src.total_pages = 1024;
  StreamConfig cfg;
  cfg.ring_capacity = 64;
  cfg.watchdog_timeout_s = 0.0;
  StreamEngine se(src, sim::joint_policy(), stream_engine_config(), cfg);

  StreamEvent e;
  e.time_s = 1.0;
  e.page = 1024;
  e.flags = workload::kTraceFlagStart;
  ASSERT_TRUE(se.offer(e));
  try {
    se.pump();
    ADD_FAILURE() << "out-of-range page accepted";
  } catch (const std::out_of_range& err) {
    EXPECT_EQ(std::string(err.what()),
              "event page 1024 is outside the data set: the source declares "
              "1024 pages");
  }
}

TEST(StreamEngineTest, BlockPolicyWithZeroTimeoutShedsDeterministically) {
  sim::LiveSource src;
  src.page_bytes = 64 * kKiB;
  src.total_pages = 1024;
  StreamConfig cfg;
  cfg.ring_capacity = 1;
  cfg.overload = OverloadPolicy::kBlock;
  cfg.block_timeout_s = 0.0;
  cfg.watchdog_timeout_s = 0.0;
  StreamEngine se(src, sim::always_on_policy(), stream_engine_config(), cfg);

  StreamEvent e;
  e.time_s = 1.0;
  e.page = 1;
  EXPECT_TRUE(se.offer(e));
  e.page = 2;
  e.flags = workload::kTraceFlagWrite;
  EXPECT_FALSE(se.offer(e));  // full ring, zero wait budget
  const auto s = se.stats();
  EXPECT_EQ(s.block_waits, 1u);
  EXPECT_EQ(s.block_timeouts, 1u);
  EXPECT_EQ(s.shed_writes, 1u);
  EXPECT_EQ(s.shed_reads, 0u);
  se.close();
  while (se.pump() > 0) {
  }
  (void)se.finish();
}

TEST(StreamEngineTest, NonMonotonicTimestampsAreClampedAndCounted) {
  sim::LiveSource src;
  src.page_bytes = 64 * kKiB;
  src.total_pages = 1024;
  StreamConfig cfg;
  cfg.ring_capacity = 64;
  cfg.watchdog_timeout_s = 0.0;
  StreamEngine se(src, sim::always_on_policy(), stream_engine_config(), cfg);

  const double times[] = {5.0, 3.0, 7.0, 2.0};
  for (std::uint64_t i = 0; i < 4; ++i) {
    StreamEvent e;
    e.time_s = times[i];
    e.page = i;
    ASSERT_TRUE(se.offer(e));
  }
  se.close();
  while (se.pump() > 0) {
  }
  EXPECT_EQ(se.stats().clamped_timestamps, 2u);
  EXPECT_EQ(se.last_time_s(), 7.0);
  (void)se.finish();
}

TEST(StreamEngineTest, ConcurrentProducerSmoke) {
  // Real two-thread operation (the TSan job's target): one producer racing
  // the consumer. Counters are racy in the middle but must reconcile at
  // the end: offered == accepted + shed, processed == accepted.
  const auto w = stream_workload(120.0, 9);
  const auto trace = workload::synthesize_trace(w);
  StreamConfig cfg;
  cfg.ring_capacity = 1024;
  cfg.overload = OverloadPolicy::kBlock;
  cfg.block_timeout_s = 5.0;
  cfg.watchdog_timeout_s = 0.0;
  StreamEngine se(live_source_for(trace), sim::always_on_policy(),
                  stream_engine_config(), cfg);
  std::thread producer([&] {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      se.offer(trace_event(trace, i));
    }
    se.close();
  });
  se.run_until_closed();
  producer.join();
  const auto m = se.finish();
  const auto s = se.stats();
  EXPECT_EQ(s.events_offered, trace.size());
  EXPECT_EQ(s.events_accepted + s.shed_reads + s.shed_writes,
            s.events_offered);
  EXPECT_EQ(s.events_processed, s.events_accepted);
  EXPECT_EQ(m.cache_accesses, s.events_processed);
}

// The constructor validates its config before building the ring or the
// engine from it, so a bad knob fails with validate()'s named error and
// nothing is allocated first.
TEST(StreamConfigTest, ConstructorValidatesBeforeBuilding) {
  const sim::LiveSource source{64 * kKiB, 2048, 600.0};
  const auto expect_named = [](const sim::LiveSource& src,
                               const StreamConfig& cfg,
                               const std::string& field) {
    try {
      StreamEngine se(src, sim::joint_policy(), stream_engine_config(), cfg);
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find(field), std::string::npos)
          << ex.what();
    }
  };
  StreamConfig c;
  c.ring_capacity = 3;
  expect_named(source, c, "ring_capacity");
  // A source with no declared size makes the engine's constructor throw a
  // CheckError, so this passes only if max_batch is checked first.
  c = StreamConfig{};
  c.max_batch = 0;
  expect_named(sim::LiveSource{64 * kKiB, 0, 600.0}, c, "max_batch");
}

TEST(StreamConfigTest, ValidateRejectsBadKnobs) {
  const StreamConfig good;
  EXPECT_NO_THROW(validate(good));

  StreamConfig c = good;
  c.ring_capacity = 3;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.ring_capacity = 1ull << 31;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.high_watermark = 1.5;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.low_watermark = 0.9;
  c.high_watermark = 0.5;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.block_timeout_s = -1.0;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.max_batch = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
}

}  // namespace
}  // namespace jpm::stream
