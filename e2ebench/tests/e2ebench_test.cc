// Tests of the benchmark's own span/self-time, percentile and digest code.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "digest.h"
#include "jpm/sim/runner.h"
#include "jpm/workload/synthesizer.h"
#include "span.h"
#include "stats.h"

namespace e2e {
namespace {

Span make(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t end,
          SpanKind kind = SpanKind::kLoop) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.kind = kind;
  return s;
}

TEST(SelfTime, SubtractsChildren) {
  const std::vector<Span> spans = {
      make(1, kNoSpan, 0, 100), make(2, 1, 10, 30), make(3, 1, 50, 60)};
  const auto self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 70e-9);
  EXPECT_DOUBLE_EQ(self[1], 20e-9);
  EXPECT_DOUBLE_EQ(self[2], 10e-9);
}

TEST(SelfTime, ConcurrentChildrenCountOnce) {
  // Two tasks overlapping in time (a fan-out) cover [10, 80) once.
  const std::vector<Span> spans = {
      make(1, kNoSpan, 0, 100, SpanKind::kFanout), make(2, 1, 10, 60), make(3, 1, 40, 80)};
  EXPECT_DOUBLE_EQ(self_seconds(spans)[0], 30e-9);
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  const std::vector<Span> spans = {make(1, kNoSpan, 20, 50), make(2, 1, 10, 30)};
  EXPECT_DOUBLE_EQ(self_seconds(spans)[0], 20e-9);
}

TEST(SelfTime, LayerTotalsSumCounts) {
  std::vector<Span> spans = {make(1, kNoSpan, 0, 100, SpanKind::kFinish),
                             make(2, 1, 0, 40), make(3, 1, 40, 100)};
  spans[1].count = 5;
  spans[2].count = 7;
  const auto totals = layer_totals(spans);
  const auto& loop = totals[static_cast<std::size_t>(SpanKind::kLoop)];
  EXPECT_EQ(loop.spans, 2u);
  EXPECT_EQ(loop.count, 12u);
  EXPECT_DOUBLE_EQ(loop.total_s, 100e-9);
  EXPECT_DOUBLE_EQ(totals[static_cast<std::size_t>(SpanKind::kFinish)].self_s, 0.0);
}

TEST(SpanRecorder, NestsOnAThreadAndAdoptsParentsAcrossThreads) {
  SpanRecorder rec;
  std::uint64_t outer = kNoSpan, inner = kNoSpan, remote = kNoSpan;
  {
    const ScopedSpan a(&rec, SpanKind::kFanout, 0);
    outer = a.id();
    {
      const ScopedSpan b(&rec, SpanKind::kConstruct, 3);
      inner = b.id();
    }
    std::thread worker([&] {
      const ParentScope scope(&rec, outer);
      ScopedSpan c(&rec, SpanKind::kLoop, 4);
      c.set_count(9);
      remote = c.id();
    });
    worker.join();
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  int seen = 0;
  for (const Span& s : spans) {
    EXPECT_LE(s.start_ns, s.end_ns);
    if (s.id == outer) {
      EXPECT_EQ(s.parent, kNoSpan);
      ++seen;
    } else if (s.id == inner) {
      EXPECT_EQ(s.parent, outer);
      EXPECT_EQ(s.run, 3u);
      ++seen;
    } else if (s.id == remote) {
      EXPECT_EQ(s.parent, outer);
      EXPECT_EQ(s.count, 9u);
      EXPECT_NE(s.thread, spans[0].thread);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 3);
}

TEST(SpanRecorder, NullRecorderRecordsNothing) {
  const ScopedSpan s(nullptr, SpanKind::kLoop, 0);
  EXPECT_EQ(s.id(), kNoSpan);
}

TEST(ChromeTrace, WritesCompleteEvents) {
  const std::vector<Span> spans = {make(1, kNoSpan, 1500, 4000, SpanKind::kPump)};
  const std::string path = ::testing::TempDir() + "e2ebench_trace.json";
  ASSERT_TRUE(write_chrome_trace(path, spans));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("\"name\":\"stream.pump\""), std::string::npos);
  EXPECT_NE(text.str().find("\"ts\":1.500,\"dur\":2.500"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 500.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 990.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.9), 999.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 1000.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 1.0), 7.0);
}

TEST(Stats, TailKeepsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 200000; ++i) v.push_back(i);
  const Tail t = tail_percentile(v);
  EXPECT_DOUBLE_EQ(t.p, 99.99);
  EXPECT_EQ(t.beyond, 20u);
  EXPECT_DOUBLE_EQ(t.value, 199980.0);

  const Tail small = tail_percentile({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(small.p, 0.0);
  EXPECT_EQ(small.beyond, 0u);

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(tail_percentile(hundred).p, 90.0);
}

jpm::sim::RunMetrics sample_run() {
  jpm::sim::RunMetrics m;
  m.policy_name = "Joint";
  m.duration_s = 60.0;
  m.mem_energy.static_j = 5.0;
  m.disk_energy.static_j = 7.0;
  m.cache_accesses = 10;
  m.disk_accesses = 4;
  jpm::sim::PeriodRecord warm, measured;
  warm.start_s = 0.0;
  warm.cache_accesses = 99;
  measured.start_s = 60.0;
  measured.cache_accesses = 10;
  measured.disk_accesses = 4;
  m.periods = {warm, measured};
  return m;
}

TEST(Digest, ChangesWithAnyStatistic) {
  const jpm::sim::RunMetrics base = sample_run();
  const std::uint64_t d = digest_run(base);
  EXPECT_EQ(d, digest_run(sample_run()));

  jpm::sim::RunMetrics m = base;
  m.disk_energy.dynamic_j = 1e-300;
  EXPECT_NE(digest_run(m), d);
  m = base;
  m.mem_energy.static_j = std::nextafter(5.0, 6.0);
  EXPECT_NE(digest_run(m), d);
  m = base;
  m.periods[1].degraded = true;
  EXPECT_NE(digest_run(m), d);
  m = base;
  m.policy_name = "Joint ";
  EXPECT_NE(digest_run(m), d);
}

TEST(Digest, SignOfZeroCounts) {
  Digest a, b;
  a.add_f64(0.0);
  b.add_f64(-0.0);
  EXPECT_NE(a.value(), b.value());
}

TEST(Digest, CombinedDigestIsOrderSensitive) {
  EXPECT_NE(digest_all({1, 2}), digest_all({2, 1}));
  EXPECT_NE(digest_all({}), digest_all({0}));
  EXPECT_EQ(hex16(0xabcull), "0000000000000abc");
}

TEST(CheckRun, AcceptsConsistentPeriods) { EXPECT_EQ(check_run(sample_run(), 60.0, 0), ""); }

TEST(CheckRun, RejectsPeriodsThatDoNotAddUp) {
  jpm::sim::RunMetrics m = sample_run();
  m.periods[1].cache_accesses = 9;
  EXPECT_NE(check_run(m, 60.0, 0), "");
}

TEST(CheckRun, AllowsOnlyTheTrailingEventsOutsideThePeriods) {
  jpm::sim::RunMetrics m = sample_run();
  m.cache_accesses = 12;  // two events past the last closed period
  EXPECT_NE(check_run(m, 60.0, 1), "");
  EXPECT_EQ(check_run(m, 60.0, 2), "");
  m.disk_accesses = 7;  // more uncounted disk reads than uncounted events
  EXPECT_NE(check_run(m, 60.0, 2), "");
}

TEST(CheckRun, RejectsMoreDiskThanCacheAccesses) {
  jpm::sim::RunMetrics m = sample_run();
  m.disk_accesses = 11;
  EXPECT_NE(check_run(m, 60.0, 0), "");
}

TEST(CheckRun, RejectsNegativeEnergy) {
  jpm::sim::RunMetrics m = sample_run();
  m.disk_energy.transition_j = -1.0;
  EXPECT_NE(check_run(m, 60.0, 0), "");
}

// traced_replay drives the push-mode engine edge by edge (push_chunk up to a
// period boundary or flush tick, advance_to at it); its statistics must equal
// the sweep's Engine::run() for every policy class, writes included.
TEST(TracedReplay, MatchesRunSweepForEveryPolicyClass) {
  jpm::workload::SynthesizerConfig w;
  w.dataset_bytes = jpm::mib(512);
  w.byte_rate = 4e6;
  w.duration_s = 600.0;
  w.write_fraction = 0.3;
  w.seed = 5;
  jpm::sim::EngineConfig cfg;
  cfg.joint.period_s = 60.0;
  cfg.warm_up_s = 120.0;
  cfg.flush_interval_s = 30.0;
  const std::vector<jpm::sim::PolicySpec> roster = {
      jpm::sim::joint_policy(),
      jpm::sim::fixed_policy(jpm::sim::DiskPolicyKind::kTwoCompetitive, jpm::gib(8)),
      jpm::sim::powerdown_policy(jpm::sim::DiskPolicyKind::kAdaptive, cfg.joint.physical_bytes),
      jpm::sim::always_on_policy()};
  const auto points =
      jpm::sim::run_sweep(std::vector<jpm::sim::SweepWorkload>{{"p", w, "", {}}}, roster, cfg);
  const jpm::workload::Trace trace = jpm::workload::synthesize_trace(w);
  ASSERT_GT(trace.size(), 1000u);

  for (std::size_t j = 0; j < roster.size(); ++j) {
    SpanRecorder rec;
    const auto m = traced_replay(&rec, 7, trace, roster[j], cfg);
    EXPECT_EQ(digest_run(m), digest_run(points[0].outcomes[j].metrics)) << roster[j].name;
    EXPECT_EQ(check_run(m, cfg.warm_up_s, events_from(trace, trace.duration_s)), "");
    std::uint64_t pushed = 0, boundaries = 0, flushes = 0;
    for (const Span& sp : rec.spans()) {
      EXPECT_EQ(sp.run, 7u);
      if (sp.kind == SpanKind::kLoop) pushed += sp.count;
      if (sp.kind == SpanKind::kBoundary) ++boundaries;
      if (sp.kind == SpanKind::kFlush) ++flushes;
    }
    EXPECT_EQ(pushed, trace.size());
    EXPECT_GE(boundaries, 8u);  // 60 s periods over 600 s; the last ones close in finish()
    EXPECT_GE(flushes, 8u);     // 30 s ticks between them
  }
}

TEST(SpanLayerMetrics, SplitsByPolicyClassAndMeasuresFanOut) {
  // One fan-out of two 2-thread tasks: run 1 (joint) and run 2 (fixed).
  std::vector<Span> spans = {
      make(1, kNoSpan, 0, 100, SpanKind::kFanout),
      make(2, 1, 0, 10, SpanKind::kConstruct), make(3, 1, 10, 60, SpanKind::kLoop),
      make(4, 1, 60, 80, SpanKind::kFinish),
      make(5, 1, 0, 20, SpanKind::kConstruct), make(6, 1, 20, 40, SpanKind::kLoop),
      make(7, 1, 40, 50, SpanKind::kFinish)};
  spans[0].count = 2;
  for (int k : {1, 2, 3}) spans[k].run = 1;
  for (int k : {4, 5, 6}) spans[k].run = 2;
  spans[2].count = 500;
  spans[5].count = 100;
  std::vector<LayerMetric> table = layer_metric_table();
  span_layer_metrics(spans, {PolicyClass::kNone, PolicyClass::kJoint, PolicyClass::kFixed}, 4,
                     table);
  const auto value = [&](const std::string& name) {
    for (const auto& m : table) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(value("sim.loop_s.joint"), 50e-9);
  EXPECT_DOUBLE_EQ(value("sim.loop_events_per_s.fixed"), 100 / 20e-9);
  EXPECT_DOUBLE_EQ(value("sim.construct_s.fixed"), 20e-9);
  EXPECT_DOUBLE_EQ(value("sim.loop_s.bank"), 0.0);
  EXPECT_DOUBLE_EQ(value("sim.run_s.max"), 80e-9);
  EXPECT_DOUBLE_EQ(value("sim.run_s.p50"), 65e-9);
  // Busy 80 + 50 over 2 workers (min(4 threads, 2 tasks)) x 100.
  EXPECT_DOUBLE_EQ(value("util.parallel_efficiency"), 130.0 / 200.0);
}

}  // namespace
}  // namespace e2e
