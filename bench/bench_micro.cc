// Google-benchmark microbenches for the simulator's hot kernels: page-table
// probes (util::FlatMap vs the std::unordered_map it replaced), LRU cache
// operations, the Fenwick stack-distance tracker, the idle-interval sweep,
// Pareto fitting, trace synthesis throughput, the workload-model build (file
// set + popularity solve) at scenario shape, single-policy engine replay —
// the perf baseline for the sweep hot loop — the TaskPool scheduler under
// uniform and straggler task mixes (static vs steal), JPMC trace-file
// encode/decode and file-backed replay (jpm::tracefile), and scenario-file
// parse/serialize throughput for the jpm::spec layer.
//
// Beyond the stock google-benchmark flags, the custom main() accepts
//   --snapshot=<file>   write a machine-readable BENCH_micro.json
//   --compare=<file>    exit non-zero if any benchmark's items/s fell below
//                       baseline/tolerance (the CI perf-smoke gate)
//   --tolerance=<x>     slack factor for --compare (default 2.0)
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "jpm/cache/idle_sweep.h"
#include "jpm/cache/lru_cache.h"
#include "jpm/cache/stack_distance.h"
#include "jpm/util/arena.h"
#include "jpm/util/flat_map.h"
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

// Distinct keys (odd multiplier is injective mod 2^64), inserted in
// generation order but *visited* in an unrelated shuffled order. The
// decorrelation matters: visiting in insertion order would let a node-based
// map serve its nodes from the hardware prefetcher (they were allocated
// sequentially), which no real page-access pattern provides.
std::vector<std::uint64_t> map_bench_keys(std::size_t n) {
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = i * 0x2545f4914f6cdd1dull + 1;
  }
  return keys;
}

std::vector<std::uint32_t> map_bench_visit_order(std::size_t n) {
  std::vector<std::uint32_t> visit(n);
  for (std::size_t i = 0; i < n; ++i) visit[i] = static_cast<std::uint32_t>(i);
  Rng rng(7);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(visit[i - 1], visit[rng.uniform_index(i)]);
  }
  return visit;
}

// Point lookups at steady state: every probe hits. This is the page-table
// operation the engine pays once per trace event.
void BM_FlatMapLookup(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto keys = map_bench_keys(n);
  const auto visit = map_bench_visit_order(n);
  util::FlatMap<std::uint32_t> map;
  for (std::size_t i = 0; i < n; ++i) {
    *map.find_or_insert(keys[i]) = static_cast<std::uint32_t>(i);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[visit[i]]));
    if (++i == n) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapLookup)->Arg(1 << 20);

void BM_UnorderedMapLookup(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto keys = map_bench_keys(n);
  const auto visit = map_bench_visit_order(n);
  std::unordered_map<std::uint64_t, std::uint32_t> map;
  map.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    map[keys[i]] = static_cast<std::uint32_t>(i);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[visit[i]]));
    if (++i == n) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnorderedMapLookup)->Arg(1 << 20);

// Insert+erase churn at full occupancy: a sliding window over the key
// universe, the pattern a standalone (non-joint) cache's table sees when
// every miss inserts a page and evicts another.
void BM_FlatMapChurn(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::FlatMap<std::uint32_t> map;
  map.reserve(n);
  std::uint64_t head = 0;
  for (; head < n; ++head) {
    *map.find_or_insert(head * 0x2545f4914f6cdd1dull + 1) = 0;
  }
  std::uint64_t tail = 0;
  for (auto _ : state) {
    *map.find_or_insert(head * 0x2545f4914f6cdd1dull + 1) = 0;
    map.erase(tail * 0x2545f4914f6cdd1dull + 1);
    ++head;
    ++tail;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapChurn)->Arg(1 << 20);

void BM_UnorderedMapChurn(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::unordered_map<std::uint64_t, std::uint32_t> map;
  map.reserve(n);
  std::uint64_t head = 0;
  for (; head < n; ++head) {
    map[head * 0x2545f4914f6cdd1dull + 1] = 0;
  }
  std::uint64_t tail = 0;
  for (auto _ : state) {
    map[head * 0x2545f4914f6cdd1dull + 1] = 0;
    map.erase(tail * 0x2545f4914f6cdd1dull + 1);
    ++head;
    ++tail;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnorderedMapChurn)->Arg(1 << 20);

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

void BM_LruInsertEvict(benchmark::State& state) {
  cache::LruCache cache(cache::LruCacheOptions{1 << 16, 64, 1 << 14});
  std::uint64_t next = 0;
  for (; next < (1 << 14); ++next) cache.insert(next);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.insert(next++));
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

// Same access mix with the frame-node array placed on a bump arena (how the
// engine now builds its cache) instead of the global heap — isolates what
// arena placement is worth outside the full replay pipeline.
void BM_LruCacheAccessArena(benchmark::State& state) {
  util::Arena arena;
  cache::LruCacheOptions opts{1 << 16, 64, 1 << 14};
  opts.arena = &arena;
  cache::LruCache cache(opts);
  Rng rng(1);
  for (auto _ : state) {
    const std::uint64_t page = rng.uniform_index(1 << 15);
    if (!cache.lookup(page)) cache.insert(page);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheAccessArena);

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

void BM_IdleSweep(benchmark::State& state) {
  Rng rng(3);
  std::vector<cache::IdleEvent> events;
  double t = 0.0;
  for (int i = 0; i < 100000; ++i) {
    t += rng.exponential(0.006);
    events.push_back({t, 1 + rng.uniform_index(8192 * 64)});
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

void BM_TraceSynthesis(benchmark::State& state) {
  workload::SynthesizerConfig cfg;
  cfg.dataset_bytes = gib(1);
  cfg.byte_rate = 50e6;
  cfg.duration_s = 60.0;
  cfg.page_bytes = 256 * kKiB;
  cfg.seed = 5;
  std::uint64_t events = 0;
  for (auto _ : state) {
    workload::TraceGenerator gen(cfg);
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

// Work whose cost the optimizer cannot collapse: a multiply-add chain with a
// loop-carried dependence, `rounds` deep.
std::uint64_t spin_work(std::uint64_t x, std::uint32_t rounds) {
  for (std::uint32_t r = 0; r < rounds; ++r) {
    x = x * 0x9e3779b97f4a7c15ull + r;
  }
  return x;
}

// The TaskPool scheduler baselines behind every sweep fan-out: 2048 tasks on
// 4 workers, uniform cost vs a straggler mix (every 4th task is 40x heavier
// — the adversarial shape for static striping, where all heavy tasks land in
// one worker's stripe; total work is the same in both shapes). items/s =
// tasks/s. On a 4+ core machine steal ~= static on the uniform mix and
// >= 1.3x static on the straggler mix (the stolen back-halves spread the
// heavy stripe); on fewer cores the gap narrows toward scheduler overhead.
void BM_SchedulerFanOut(benchmark::State& state) {
  const bool straggler = state.range(0) != 0;
  const auto mode = state.range(1) == 0 ? util::SchedMode::kStatic
                                        : util::SchedMode::kSteal;
  const unsigned workers = 4;
  const std::size_t n = 2048;
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    util::TaskPool::run(n, workers, mode, [&](std::size_t i) {
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
    ->ArgNames({"straggler", "steal"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
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
  tracefile::ChunkBuffer buf;
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

// Returns true when every benchmark present in both the baseline and this
// run kept items/s >= baseline/tolerance. Benchmarks missing on either side
// are reported but never fail the gate (the suite may grow or shrink).
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
  bool ok = true;
  for (const util::json::Value& b : benches->as_array()) {
    if (!b.is_object()) continue;
    const util::json::Value* name = b.as_object().find("name");
    const util::json::Value* ips = b.as_object().find("items_per_second");
    if (name == nullptr || !name->is_string() || ips == nullptr ||
        !ips->is_number() || ips->as_number() <= 0.0) {
      continue;  // rate-less benchmarks carry no stable metric to gate on
    }
    const BenchResult* current = nullptr;
    for (const BenchResult& r : results) {
      if (r.name == name->as_string()) {
        current = &r;
        break;
      }
    }
    if (current == nullptr) {
      std::cerr << "perf-smoke: " << name->as_string()
                << " missing from this run (skipped)\n";
      continue;
    }
    const double floor = ips->as_number() / tolerance;
    const char* verdict = current->items_per_second >= floor ? "ok" : "SLOW";
    std::cerr << "perf-smoke: " << name->as_string() << " "
              << current->items_per_second << " items/s vs baseline "
              << ips->as_number() << " (floor " << floor << "): " << verdict
              << "\n";
    if (current->items_per_second < floor) ok = false;
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
