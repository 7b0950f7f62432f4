// Chunked-vs-in-memory differential suite: a file-backed replay must be
// bit-identical to simulating the same events from RAM — at the engine level
// across policies, at the sweep level across JPM_THREADS, and at the
// scenario level (stdout tables + telemetry report) for golden scenarios —
// while holding only one decoded chunk window in memory.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "jpm/sim/file_replay.h"
#include "jpm/sim/runner.h"
#include "jpm/spec/run.h"
#include "jpm/spec/spec.h"
#include "jpm/telemetry/export.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/tracefile/reader.h"
#include "jpm/tracefile/writer.h"
#include "jpm/util/json.h"

namespace jpm::sim {
namespace {

workload::SynthesizerConfig replay_workload() {
  workload::SynthesizerConfig w;
  w.dataset_bytes = 128 * kMiB;
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = 1200.0;
  w.page_bytes = 64 * kKiB;
  w.file_scale = 16.0;
  w.seed = 7;
  return w;
}

EngineConfig replay_engine() {
  EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = 64 * kKiB;
  e.joint.period_s = 300.0;
  e.prefill_cache = true;
  e.warm_up_s = 300.0;
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
  }
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "jpm_replay_" + name;
}

class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVar() {
    if (had_old_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_old_ = false;
};

// ---- engine-level differential ---------------------------------------------

TEST(FileReplayTest, BitIdenticalToInMemoryAcrossPolicies) {
  const workload::SynthesizerConfig w = replay_workload();
  const EngineConfig e = replay_engine();
  const workload::Trace trace = workload::synthesize_trace(w);
  const std::string path = temp_path("policies.jpmc");
  tracefile::write_trace_file(path, trace, {.chunk_events = 4096});
  const tracefile::TraceReader reader(path);

  const std::vector<PolicySpec> roster = {
      joint_policy(),
      fixed_policy(DiskPolicyKind::kTwoCompetitive, mib(64)),
      fixed_policy(DiskPolicyKind::kAdaptive, mib(128)),
      always_on_policy()};
  for (const PolicySpec& policy : roster) {
    SCOPED_TRACE(policy.name);
    expect_bit_identical(replay_file(reader, policy, e),
                         run_simulation(trace, policy, e));
  }
  std::remove(path.c_str());
}

TEST(FileReplayTest, MetricsAreChunkingInvariant) {
  const workload::Trace trace =
      workload::synthesize_trace(replay_workload());
  const EngineConfig e = replay_engine();
  const std::string coarse = temp_path("coarse.jpmc");
  const std::string fine = temp_path("fine.jpmc");
  tracefile::write_trace_file(coarse, trace);
  tracefile::write_trace_file(fine, trace, {.chunk_events = 512});
  const tracefile::TraceReader rc(coarse);
  const tracefile::TraceReader rf(fine);
  EXPECT_GT(rf.chunks().size(), rc.chunks().size());
  expect_bit_identical(replay_file(rc, joint_policy(), e),
                       replay_file(rf, joint_policy(), e));
  std::remove(coarse.c_str());
  std::remove(fine.c_str());
}

// ---- sweep-level differential ----------------------------------------------

std::vector<SweepPoint> file_backed_sweep(const char* threads,
                                          const std::string& path) {
  workload::SynthesizerConfig w = replay_workload();
  const EnvVar guard("JPM_THREADS", threads);
  return run_sweep({SweepWorkload{"128MB", w, path, {}}},
                   {joint_policy(), always_on_policy(),
                    fixed_policy(DiskPolicyKind::kTwoCompetitive, mib(64))},
                   replay_engine());
}

TEST(FileReplayTest, SweepMatchesInMemoryAtOneAndEightThreads) {
  const workload::SynthesizerConfig w = replay_workload();
  const std::string path = temp_path("sweep.jpmc");
  tracefile::synthesize_to_file(path, w, {.chunk_events = 8192});

  const auto in_memory = file_backed_sweep("1", "");  // synthesizes
  const auto file1 = file_backed_sweep("1", path);
  const auto file8 = file_backed_sweep("8", path);
  ASSERT_EQ(in_memory.size(), 1u);
  ASSERT_EQ(file1[0].outcomes.size(), in_memory[0].outcomes.size());
  for (std::size_t i = 0; i < in_memory[0].outcomes.size(); ++i) {
    SCOPED_TRACE(in_memory[0].outcomes[i].spec.name);
    expect_bit_identical(file1[0].outcomes[i].metrics,
                         in_memory[0].outcomes[i].metrics);
    expect_bit_identical(file8[0].outcomes[i].metrics,
                         in_memory[0].outcomes[i].metrics);
  }
  std::remove(path.c_str());
}

TEST(FileReplayTest, SweepRejectsPageSizeMismatch) {
  workload::SynthesizerConfig w = replay_workload();
  const std::string path = temp_path("mismatch.jpmc");
  tracefile::synthesize_to_file(path, w);
  w.page_bytes = 256 * kKiB;  // scenario geometry disagrees with the file
  const std::vector<SweepWorkload> points = {
      SweepWorkload{"128MB", w, path, {}}};
  const std::vector<PolicySpec> roster = {joint_policy(), always_on_policy()};
  EXPECT_THROW(run_sweep(points, roster, replay_engine()), CheckError);
  std::remove(path.c_str());
}

// ---- scenario-level differential -------------------------------------------

#ifdef JPM_SCENARIOS_DIR

// Strips the provenance keys that legitimately differ between a file-backed
// and an in-memory run (the scenario embeds the trace paths; the file run
// adds trace_path/trace_hash). Everything else must match byte for byte.
std::string strip_provenance(const std::string& report) {
  using util::json::Object;
  using util::json::Value;
  Value v;
  std::string error;
  EXPECT_TRUE(util::json::parse(report, &v, &error)) << error;
  Object stripped;
  for (const auto& [key, value] : v.as_object().entries()) {
    if (key == "scenario" || key == "scenario_hash" || key == "trace_path" ||
        key == "trace_hash") {
      continue;
    }
    stripped[key] = value;
  }
  return util::json::dump(Value{std::move(stripped)}, 2);
}

struct ScenarioRun {
  std::string stdout_text;
  std::string report;
};

ScenarioRun run_scenario_capture(const spec::Scenario& sc) {
  telemetry::clear_traces();
  telemetry::start({});
  std::ostringstream captured;
  std::streambuf* old = std::cout.rdbuf(captured.rdbuf());
  spec::run_scenario(sc, {});
  std::cout.rdbuf(old);
  ScenarioRun out{captured.str(), telemetry::report_json()};
  telemetry::stop();
  telemetry::clear_scenario();
  telemetry::clear_traces();
  return out;
}

// Golden scenarios replayed from JPMC files must print byte-identical tables
// and produce byte-identical telemetry reports (modulo provenance) at
// JPM_THREADS=1 and 8. Small scenarios keep this differential affordable;
// the fig7-scale equivalent runs in CI via the jpm binary (see cli_test).
TEST(FileReplayScenarioTest, GoldenScenariosAreByteIdenticalFileBacked) {
  const EnvVar fast("JPM_BENCH_FAST", "1");
  const char* names[] = {"ablation_joint", "ext_writes", "ext_drpm"};
  for (const char* name : names) {
    SCOPED_TRACE(name);
    spec::Scenario sc = spec::load_for_run(std::string(JPM_SCENARIOS_DIR) +
                                           "/" + name + ".json");

    spec::Scenario file_sc = sc;
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < sc.workloads.size(); ++i) {
      const std::string path =
          temp_path(std::string(name) + "_p" + std::to_string(i) + ".jpmc");
      tracefile::synthesize_to_file(path, sc.workloads[i].workload);
      file_sc.workloads[i].trace_path = path;
      paths.push_back(path);
    }

    const EnvVar serial("JPM_THREADS", "1");
    const ScenarioRun mem = run_scenario_capture(sc);
    const ScenarioRun file1 = run_scenario_capture(file_sc);
    EXPECT_EQ(file1.stdout_text, mem.stdout_text);
    EXPECT_EQ(strip_provenance(file1.report), strip_provenance(mem.report));
    {
      const EnvVar wide("JPM_THREADS", "8");
      const ScenarioRun file8 = run_scenario_capture(file_sc);
      EXPECT_EQ(file8.stdout_text, mem.stdout_text);
      EXPECT_EQ(strip_provenance(file8.report), strip_provenance(mem.report));
    }
    for (const std::string& path : paths) std::remove(path.c_str());
  }
}

#endif  // JPM_SCENARIOS_DIR

// ---- bounded working set ---------------------------------------------------

// The capped-RSS smoke: a trace much larger than one chunk window is
// written event-at-a-time and replayed end-to-end while writer and reader
// hold O(chunk window) buffers — never the whole trace. ~2M events encode
// to tens of MB on disk but the working set stays under a quarter MB.
TEST(FileReplaySmokeTest, LargeTraceReplaysWithCappedBuffers) {
  constexpr std::size_t kChunkEvents = 4096;
  constexpr std::uint64_t kEvents = 2'000'000;
  // Generous bound: 17 logical bytes/event of SoA lanes plus encode scratch
  // and rounding slack, all per chunk window.
  constexpr std::size_t kBufferCap = 64 * kChunkEvents;

  const std::string path = temp_path("large.jpmc");
  std::uint64_t total_pages = 1 << 14;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    tracefile::TraceWriter w(os, 64 * kKiB, total_pages, 2000.0,
                             {.chunk_events = kChunkEvents});
    std::uint64_t state = 1;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      w.append(1e-3 * static_cast<double>(i), (state >> 33) % total_pages,
               i % 4 == 0 ? workload::kTraceFlagStart : 0);
    }
    w.finish();
    EXPECT_LE(w.buffered_capacity_bytes(), kBufferCap);
  }

  const tracefile::TraceReader reader(path);
  EXPECT_EQ(reader.header().event_count, kEvents);
  EXPECT_GE(reader.chunks().size(), kEvents / kChunkEvents);

  FileReplay replay(reader, joint_policy(), replay_engine());
  const RunMetrics metrics = replay.run();
  // Accesses are counted after the 300 s warm-up: 1 kHz x 300 s excluded.
  EXPECT_EQ(metrics.cache_accesses + metrics.disk_accesses,
            kEvents - 300'000);
  EXPECT_LE(replay.peak_buffer_bytes(), kBufferCap);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jpm::sim
