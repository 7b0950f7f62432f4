// Google-benchmark microbenches for the simulator's hot kernels: LRU cache
// operations, the stack-distance tracker, the idle-interval sweep,
// Pareto fitting, trace synthesis throughput, the workload-model build (file
// set + popularity solve) and popularity draws at scenario shape,
// single-policy engine replay —
// the perf baseline for the sweep hot loop — the bank policies' replay at
// the fig7 16 GB point against a fixed-memory run, the marginal cost of a
// trajectory-group member there, engine construction with its
// warm start at scenario shape, the work-stealing fan-out under
// uniform and straggler task mixes, JPMC trace-file
// encode/decode and file-backed replay (jpm::tracefile), and scenario-file
// parse/serialize throughput for the jpm::spec layer.
//
// Beyond the stock google-benchmark flags, the custom main() accepts
//   --snapshot=<file>   write a machine-readable BENCH_micro.json
//   --compare=<file>    exit non-zero if any benchmark's items/s fell below
//                       baseline/tolerance, if a benchmark that ran has no
//                       baseline row, or if nothing ran (the CI perf-smoke
//                       gate)
//   --tolerance=<x>     slack factor for --compare (default 2.0)
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "jpm/cache/idle_sweep.h"
#include "jpm/cache/lru_cache.h"
#include "jpm/cache/stack_distance.h"
#include "jpm/util/json.h"
#include "jpm/pareto/pareto.h"
#include "jpm/sim/engine.h"
#include "jpm/sim/policies.h"
#include "jpm/spec/run.h"
#include "jpm/spec/spec.h"
#include "jpm/sim/file_replay.h"
#include "jpm/telemetry/registry.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/tracefile/reader.h"
#include "jpm/tracefile/writer.h"
#include "jpm/util/parallel.h"
#include "jpm/util/rng.h"
#include "jpm/workload/synthesizer.h"
#include "jpm/workload/trace.h"

namespace jpm {
namespace {

// LRU single-operation baselines bracketing BM_LruCacheAccess's mix: a pure
// resident-page hit (one probe + list splice) and a pure miss at capacity
// (probe + evict + insert).
void BM_LruLookupHit(benchmark::State& state) {
  cache::LruCache cache(cache::LruCacheOptions{1 << 16, 64, 1 << 14});
  for (std::uint64_t p = 0; p < (1 << 14); ++p) cache.insert(p);
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(rng.uniform_index(1 << 14)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruLookupHit);

// Pages cycle through 2^16 ids, four times the capacity: each insert's page
// was evicted long ago, and the dense page table stays at 2^16 entries
// instead of growing with the iteration count.
void BM_LruInsertEvict(benchmark::State& state) {
  cache::LruCache cache(cache::LruCacheOptions{1 << 16, 64, 1 << 14});
  std::uint64_t next = 0;
  for (; next < (1 << 14); ++next) cache.insert(next);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.insert(next));
    next = (next + 1) & ((1 << 16) - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruInsertEvict);

void BM_LruCacheAccess(benchmark::State& state) {
  cache::LruCache cache(cache::LruCacheOptions{1 << 16, 64, 1 << 14});
  Rng rng(1);
  for (auto _ : state) {
    const std::uint64_t page = rng.uniform_index(1 << 15);
    if (!cache.lookup(page)) cache.insert(page);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheAccess);

void BM_StackDistance(benchmark::State& state) {
  cache::StackDistanceTracker tracker;
  Rng rng(2);
  const std::uint64_t span = state.range(0);
  // Streaming harness: page ids are drawn a fixed distance ahead and their
  // table-probe / tree lines hinted in, so what's measured is the tracker's
  // own work with its misses overlapped rather than one fully serialized
  // probe chain per event. The access sequence is identical to the
  // unpipelined form — same draws, same order.
  constexpr std::size_t kAhead = 8;
  std::uint64_t ring[kAhead];
  for (std::size_t i = 0; i < kAhead; ++i) ring[i] = rng.uniform_index(span);
  std::size_t head = 0;
  for (auto _ : state) {
    const std::uint64_t page = ring[head];
    const std::uint64_t incoming = rng.uniform_index(span);
    ring[head] = incoming;
    head = (head + 1) & (kAhead - 1);
    tracker.prefetch_page(incoming, kAhead);
    benchmark::DoNotOptimize(tracker.access(page));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StackDistance)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// The series is built once, outside the timed loop: the engine's collector
// fills IdleSeries lanes directly, so a period boundary pays the sweep alone.
void BM_IdleSweep(benchmark::State& state) {
  Rng rng(3);
  cache::IdleSeries events;
  double t = 0.0;
  for (int i = 0; i < 100000; ++i) {
    t += rng.exponential(0.006);
    events.push_back(t, 1 + rng.uniform_index(8192 * 64));
  }
  std::vector<std::uint64_t> candidates;
  for (std::uint64_t u = 1; u <= 8192; u += 32) candidates.push_back(u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache::sweep_idle_intervals(
        events, 0.0, t + 1.0, 64, 0.1, candidates));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_IdleSweep);

void BM_ParetoFitAndTimeout(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    const double mean = 0.1 + rng.uniform() * 100.0;
    const auto d = pareto::fit_from_mean(mean, 0.1);
    benchmark::DoNotOptimize(d.alpha() * 11.7);
  }
  // One fit+timeout evaluation per iteration; without this the snapshot
  // records items_per_second: 0 and the CI compare gate skips the entry.
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParetoFitAndTimeout);

// The model (file set and popularity solve, BM_WorkloadModel) is built once,
// outside the timed loop, as sweeps share it across points: an iteration
// times one stream's event generation alone.
void BM_TraceSynthesis(benchmark::State& state) {
  workload::SynthesizerConfig cfg;
  cfg.dataset_bytes = gib(1);
  cfg.byte_rate = 50e6;
  cfg.duration_s = 60.0;
  cfg.page_bytes = 256 * kKiB;
  cfg.seed = 5;
  const auto model = workload::build_model(cfg);
  std::uint64_t events = 0;
  for (auto _ : state) {
    workload::TraceGenerator gen(cfg, model);
    std::uint64_t n = 0;
    while (gen.next()) ++n;
    benchmark::DoNotOptimize(n);
    events += n;
  }
  // events/s: the synthesis throughput run_sweep pays once per sweep point.
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TraceSynthesis);

// One workload-model build: the file set plus the popularity exponent solve,
// which sweeps pay once per distinct (data set, file scale, popularity,
// seed) rather than once per point. Arg = file count at the two scenario
// shapes, 16 GB at file_scale 16 (the fleet points) and at file_scale 4
// (fig8_popularity); items = files.
void BM_WorkloadModel(benchmark::State& state) {
  const auto files = static_cast<std::size_t>(state.range(0));
  const workload::WorkloadKey key{gib(16), files == 32239 ? 16.0 : 4.0, 0.1,
                                  1};
  for (auto _ : state) {
    const workload::WorkloadModel model(key);
    if (model.files().file_count() != files) {
      state.SkipWithError("file count differs from the scenario shape");
      break;
    }
    benchmark::DoNotOptimize(model.mean_request_bytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(files));
}
BENCHMARK(BM_WorkloadModel)->Arg(32239)->Arg(128957)->Unit(
    benchmark::kMillisecond);

// One popularity draw, a uniform variate and its CDF inverse, from the
// models BM_WorkloadModel builds (built once, outside the timed loop).
// Arg = file count; items = draws.
void BM_PopularitySample(benchmark::State& state) {
  const auto files = static_cast<std::size_t>(state.range(0));
  const workload::WorkloadModel model(workload::WorkloadKey{
      gib(16), files == 32239 ? 16.0 : 4.0, 0.1, 1});
  if (model.files().file_count() != files) {
    state.SkipWithError("file count differs from the scenario shape");
    return;
  }
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.popularity().sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PopularitySample)->Arg(32239)->Arg(128957);

// Materializes a trace once and replays it through a single policy's full
// pipeline per iteration — exactly one unit of run_sweep's fan-out, and the
// perf baseline for the engine's per-event loop (items = trace events). The
// arg picks the policy (0 = fixed FM/2C, 1 = joint).
void BM_EngineReplay(benchmark::State& state) {
  workload::SynthesizerConfig cfg;
  cfg.dataset_bytes = mib(256);
  cfg.byte_rate = 20e6;
  cfg.duration_s = 600.0;
  cfg.page_bytes = 64 * kKiB;
  cfg.seed = 6;
  const auto trace = workload::synthesize_trace(cfg);

  sim::EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = 64 * kKiB;
  e.joint.period_s = 300.0;
  const auto policy = state.range(0) == 0
                          ? sim::fixed_policy(
                                sim::DiskPolicyKind::kTwoCompetitive, mib(128))
                          : sim::joint_policy();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_simulation(trace, policy, e));
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_EngineReplay)->Arg(0)->Arg(1);

// The fig7 16 GB point (16 GB data set at 100 MB/s, 256 kB pages, 1,500 s,
// 128 GB of physical memory in 16 MB banks, prefill on, 600 s warm-up):
// its ~1M-event trace, synthesized once per process, and its engine config.
const workload::Trace& fig7_16gb_trace() {
  static const workload::Trace trace = [] {
    workload::SynthesizerConfig cfg;
    cfg.dataset_bytes = gib(16);
    cfg.byte_rate = 100e6;
    cfg.popularity = 0.1;
    cfg.duration_s = 1500.0;
    cfg.page_bytes = 256 * kKiB;
    cfg.file_scale = 16.0;
    cfg.rate_modulation = 0.12;
    cfg.modulation_period_s = 3600.0;
    cfg.seed = 1;
    return workload::synthesize_trace(cfg);
  }();
  return trace;
}

sim::EngineConfig fig7_16gb_engine() {
  sim::EngineConfig e;
  e.joint.physical_bytes = gib(128);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.mem.bank_bytes = 16 * kMiB;
  e.joint.page_bytes = 256 * kKiB;
  e.joint.period_s = 600.0;
  e.prefill_cache = true;
  e.warm_up_s = 600.0;
  return e;
}

// The bank policies at the shape where they cost the most: the fig7 16 GB
// point, where a DS run disables most of its 8,192 banks at 732 s. The arg
// picks the policy (0 = 2TFM-16GB, 1 = Always-on, 2 = 2TPD-128GB,
// 3 = 2TDS-128GB), so one run gives each bank policy's cost per event
// against a fixed-memory run. Items = trace events.
void BM_BankPolicyReplay(benchmark::State& state) {
  const workload::Trace& trace = fig7_16gb_trace();
  const sim::EngineConfig e = fig7_16gb_engine();
  constexpr auto kTwoC = sim::DiskPolicyKind::kTwoCompetitive;
  const sim::PolicySpec policies[] = {
      sim::fixed_policy(kTwoC, gib(16)), sim::always_on_policy(),
      sim::powerdown_policy(kTwoC, gib(128)),
      sim::disable_policy(kTwoC, gib(128))};
  const sim::PolicySpec& policy = policies[state.range(0)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_simulation(trace, policy, e));
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_BankPolicyReplay)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

// The marginal cost of a trajectory-group member, at the fig7 16 GB point:
// the paper roster's 128 GB group (2TFM-128GB, ADFM-128GB, 2TPD-128GB,
// ADPD-128GB, Always-on), which keeps all of memory and makes no disk access
// there, run with its first member alone (/1) or with all five (/5). Items
// = events x members, so /5's items/s over /1's is how far below 5x the
// five-member group costs.
void BM_TrajectoryGroup(benchmark::State& state) {
  const workload::Trace& trace = fig7_16gb_trace();
  const sim::EngineConfig e = fig7_16gb_engine();
  constexpr auto kTwoC = sim::DiskPolicyKind::kTwoCompetitive;
  constexpr auto kAd = sim::DiskPolicyKind::kAdaptive;
  const sim::PolicySpec group[] = {
      sim::fixed_policy(kTwoC, gib(128)), sim::fixed_policy(kAd, gib(128)),
      sim::powerdown_policy(kTwoC, gib(128)),
      sim::powerdown_policy(kAd, gib(128)), sim::always_on_policy()};
  std::vector<sim::GroupMember> members;
  for (std::int64_t k = 0; k < state.range(0); ++k) {
    members.push_back({group[k], nullptr});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_simulation(trace, members, e));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()) *
                          state.range(0));
}
BENCHMARK(BM_TrajectoryGroup)
    ->Arg(1)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

// Engine construction at popularity_16k's shape (Fig. 8: 16 kB pages,
// 128 GB of physical memory in 16 MB banks, a 1,046,114-page data set,
// prefill on): the set-up every sweep run pays before its first event,
// warm start included. Items = prefilled pages. The arg picks the policy
// (0 = 2TFM-8GB, 1 = joint).
void BM_EngineConstruct(benchmark::State& state) {
  sim::LiveSource source;
  source.page_bytes = 16 * kKiB;
  source.total_pages = 1046114;
  sim::EngineConfig e;
  e.joint.physical_bytes = gib(128);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.mem.bank_bytes = 16 * kMiB;
  e.joint.period_s = 600.0;
  e.prefill_cache = true;
  const auto policy = state.range(0) == 0
                          ? sim::fixed_policy(
                                sim::DiskPolicyKind::kTwoCompetitive, gib(8))
                          : sim::joint_policy();
  for (auto _ : state) {
    sim::Engine engine(source, policy, e);
    benchmark::DoNotOptimize(&engine);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(source.total_pages));
}
BENCHMARK(BM_EngineConstruct)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Work whose cost the optimizer cannot collapse: a multiply-add chain with a
// loop-carried dependence, `rounds` deep.
std::uint64_t spin_work(std::uint64_t x, std::uint32_t rounds) {
  for (std::uint32_t r = 0; r < rounds; ++r) {
    x = x * 0x9e3779b97f4a7c15ull + r;
  }
  return x;
}

// The fan-out baseline behind every sweep: 2048 tasks on 4 workers, uniform
// cost vs a straggler mix (every 4th task is 40x heavier, so a fixed stripe
// of every 4th index would hold all of them; total work is the same in both
// shapes). items/s = tasks/s.
void BM_SchedulerFanOut(benchmark::State& state) {
  const bool straggler = state.range(0) != 0;
  const unsigned workers = 4;
  const std::size_t n = 2048;
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    util::parallel_for(n, workers, [&](std::size_t i) {
      const std::uint32_t rounds =
          straggler ? (i % workers == 0 ? 2000 : 50) : 538;
      out[i] = spin_work(i, rounds);
    });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerFanOut)
    ->ArgNames({"straggler"})
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime();

// The spec layer's cost of admission: parsing a checked-in scenario file
// (the 21 scenarios are all within ~4x of micro.json's size) and emitting
// its canonical serialization. bytes/s is what `jpm validate scenarios/*`
// and every bench startup pay.
std::string micro_scenario_text() {
  std::ifstream in(spec::scenario_path("micro"), std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void BM_ScenarioParse(benchmark::State& state) {
  const std::string text = micro_scenario_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec::parse_scenario(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
  // Scenarios per second alongside bytes: the compare gate keys off
  // items_per_second, which SetBytesProcessed alone leaves at zero.
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScenarioParse);

void BM_ScenarioSerialize(benchmark::State& state) {
  const auto sc = spec::parse_scenario(micro_scenario_text());
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string out = spec::serialize_scenario(sc);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScenarioSerialize);

// ---- jpm::tracefile (the JPMC chunked trace store) -------------------------
// One shared fixture trace (~230k events) round-trips through the encoder
// and the mmap-style reader; bytes are the logical 17-byte-per-event stream,
// so MB/s here compares directly against raw SoA memcpy.

const workload::Trace& tracefile_fixture() {
  static const workload::Trace trace = [] {
    workload::SynthesizerConfig cfg;
    cfg.dataset_bytes = mib(256);
    cfg.byte_rate = 20e6;
    cfg.duration_s = 600.0;
    cfg.page_bytes = 64 * kKiB;
    cfg.write_fraction = 0.2;
    cfg.seed = 6;
    return workload::synthesize_trace(cfg);
  }();
  return trace;
}

std::string tracefile_image(const workload::Trace& trace) {
  std::ostringstream os(std::ios::binary);
  tracefile::TraceWriter w(os, trace.page_bytes, trace.total_pages,
                           trace.duration_s, {});
  for (std::size_t i = 0; i < trace.size(); ++i) {
    w.append(trace.times[i], trace.pages[i], trace.flags[i]);
  }
  w.finish();
  return os.str();
}

void BM_TraceFileEncode(benchmark::State& state) {
  const workload::Trace& trace = tracefile_fixture();
  for (auto _ : state) {
    const std::string image = tracefile_image(trace);
    benchmark::DoNotOptimize(image.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size() * 17));
}
BENCHMARK(BM_TraceFileEncode);

void BM_TraceFileDecode(benchmark::State& state) {
  const workload::Trace& trace = tracefile_fixture();
  const std::string image = tracefile_image(trace);
  const tracefile::TraceReader reader(image.data(), image.size(), "bench");
  workload::Trace buf;
  for (auto _ : state) {
    for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
      reader.decode_chunk(i, buf);
      benchmark::DoNotOptimize(buf.times.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size() * 17));
}
BENCHMARK(BM_TraceFileDecode);

// File-backed replay vs BM_EngineReplay/1: the same engine hot loop fed
// from decoded chunk windows instead of a materialized trace. The gap
// between the two is the whole cost of the chunked store on the sweep path.
void BM_FileBackedReplay(benchmark::State& state) {
  const workload::Trace& trace = tracefile_fixture();
  const std::string image = tracefile_image(trace);
  const tracefile::TraceReader reader(image.data(), image.size(), "bench");

  sim::EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = 64 * kKiB;
  e.joint.period_s = 300.0;
  const auto policy = sim::joint_policy();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::replay_file(reader, policy, e));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FileBackedReplay);

// The disabled-tracer fast path: no session, so TELEM_EVENT is one relaxed
// atomic load and a not-taken branch. ns/event here is the whole overhead
// instrumented hot loops pay when telemetry is off.
void BM_TelemetryEventDisabled(benchmark::State& state) {
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    TELEM_EVENT(kEngine, "bench_event", t, {"value", t});
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryEventDisabled);

// The enabled path: session active, event copied into the per-thread ring.
// items/s is the sustained event rate one thread can absorb.
void BM_TelemetryEventEnabled(benchmark::State& state) {
  telemetry::start({});
  telemetry::RunRecorder* rec = telemetry::begin_run("bench_micro");
  {
    const telemetry::ScopedRun scope(rec);
    double t = 0.0;
    for (auto _ : state) {
      t += 1.0;
      TELEM_EVENT(kEngine, "bench_event", t, {"value", t});
      benchmark::DoNotOptimize(t);
    }
  }
  telemetry::stop();  // leaves no session behind for later benchmarks
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryEventEnabled);

}  // namespace

// One benchmark's distilled result: what the snapshot stores and the
// compare gate checks. items/s is the stable cross-run metric (real time
// per iteration scales with machine load far more).
struct BenchResult {
  std::string name;
  double items_per_second = 0.0;
  double real_time_per_iter_ns = 0.0;
};

// Forwards everything to the normal console reporter while collecting the
// per-iteration runs for the snapshot/compare paths.
class SnapshotReporter : public benchmark::BenchmarkReporter {
 public:
  explicit SnapshotReporter(benchmark::BenchmarkReporter* inner)
      : inner_(inner) {}

  bool ReportContext(const Context& context) override {
    return inner_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      BenchResult r;
      r.name = run.benchmark_name();
      if (run.iterations > 0) {
        r.real_time_per_iter_ns =
            run.real_accumulated_time / static_cast<double>(run.iterations) *
            1e9;
      }
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) r.items_per_second = it->second;
      results_.push_back(std::move(r));
    }
    inner_->ReportRuns(report);
  }

  void Finalize() override { inner_->Finalize(); }

  const std::vector<BenchResult>& results() const { return results_; }

 private:
  benchmark::BenchmarkReporter* inner_;
  std::vector<BenchResult> results_;
};

bool write_snapshot(const std::string& path,
                    const std::vector<BenchResult>& results) {
  util::json::Object root;
  root["schema"] = "jpm-bench-micro/1";
  util::json::Array benches;
  for (const BenchResult& r : results) {
    util::json::Object b;
    b["name"] = r.name;
    b["items_per_second"] = r.items_per_second;
    b["real_time_per_iter_ns"] = r.real_time_per_iter_ns;
    benches.push_back(util::json::Value(std::move(b)));
  }
  root["benchmarks"] = util::json::Value(std::move(benches));
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "bench_micro: cannot write snapshot to " << path << "\n";
    return false;
  }
  out << util::json::dump(util::json::Value(std::move(root)), 2) << "\n";
  return out.good();
}

// Returns true when every benchmark this run produced has a baseline row and
// kept items/s >= baseline/tolerance. Fails closed: a run with no results,
// or a result whose name has no row (a stale filter, a renamed or new
// benchmark), fails the gate instead of comparing nothing. Baseline rows the
// filter excluded are not this run's business and stay silent.
bool compare_to_baseline(const std::string& path, double tolerance,
                         const std::vector<BenchResult>& results) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "bench_micro: cannot read baseline " << path << "\n";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  util::json::Value root;
  std::string error;
  if (!util::json::parse(text.str(), &root, &error) || !root.is_object()) {
    std::cerr << "bench_micro: bad baseline JSON: " << error << "\n";
    return false;
  }
  const util::json::Value* benches = root.as_object().find("benchmarks");
  if (benches == nullptr || !benches->is_array()) {
    std::cerr << "bench_micro: baseline has no benchmarks array\n";
    return false;
  }
  if (results.empty()) {
    std::cerr << "perf-smoke: no benchmark ran, so nothing was compared\n";
    return false;
  }
  bool ok = true;
  for (const BenchResult& r : results) {
    const util::json::Value* row = nullptr;
    for (const util::json::Value& b : benches->as_array()) {
      const util::json::Value* name =
          b.is_object() ? b.as_object().find("name") : nullptr;
      if (name != nullptr && name->is_string() &&
          name->as_string() == r.name) {
        row = &b;
        break;
      }
    }
    if (row == nullptr) {
      std::cerr << "perf-smoke: " << r.name << " has no row in " << path
                << ": FAIL\n";
      ok = false;
      continue;
    }
    const util::json::Value* ips = row->as_object().find("items_per_second");
    if (ips == nullptr || !ips->is_number() || ips->as_number() <= 0.0) {
      continue;  // rate-less benchmarks carry no stable metric to gate on
    }
    const double floor = ips->as_number() / tolerance;
    const char* verdict = r.items_per_second >= floor ? "ok" : "SLOW";
    std::cerr << "perf-smoke: " << r.name << " " << r.items_per_second
              << " items/s vs baseline " << ips->as_number() << " (floor "
              << floor << "): " << verdict << "\n";
    if (r.items_per_second < floor) ok = false;
  }
  return ok;
}

}  // namespace jpm

int main(int argc, char** argv) {
  std::string snapshot_path;
  std::string baseline_path;
  double tolerance = 2.0;
  // Consume our flags before google-benchmark sees (and rejects) them.
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--snapshot=", 11) == 0) {
      snapshot_path = arg + 11;
    } else if (std::strncmp(arg, "--compare=", 10) == 0) {
      baseline_path = arg + 10;
    } else if (std::strncmp(arg, "--tolerance=", 12) == 0) {
      tolerance = std::stod(arg + 12);
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::unique_ptr<benchmark::BenchmarkReporter> display(
      benchmark::CreateDefaultDisplayReporter());
  jpm::SnapshotReporter reporter(display.get());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  int rc = 0;
  if (!snapshot_path.empty() &&
      !jpm::write_snapshot(snapshot_path, reporter.results())) {
    rc = 1;
  }
  if (!baseline_path.empty() &&
      !jpm::compare_to_baseline(baseline_path, tolerance,
                                reporter.results())) {
    rc = 1;
  }
  return rc;
}
