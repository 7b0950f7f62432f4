// The benchmark's workloads and what one run of each reports.
//
// Every workload has an untraced form, which makes exactly the top-level
// call `jpm run` / `jpm serve` makes (sim::run_sweep,
// cluster::run_cluster_sweep, stream::StreamEngine), and a traced form,
// which makes the same library calls one level down with a span around
// each. Both forms produce per-op digests of the simulated statistics; the
// traced form must reproduce the untraced one bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "jpm/sim/engine.h"
#include "jpm/sim/runner.h"
#include "jpm/spec/spec.h"
#include "jpm/util/parallel.h"
#include "jpm/workload/trace.h"
#include "span.h"

namespace e2e {

struct Context {
  std::string scenario_path;  // the workload's scenario file
  std::uint64_t seed = 1;     // the benchmark seed
  unsigned threads = 1;       // fan-out width (JPM_THREADS); set by make_workload
  // Trace events per workload point, 0 to keep the scenario's durations;
  // set by make_workload.
  std::uint64_t event_budget = 0;
};

// Synthesizer seed of a point whose scenario file declares `file_seed`, in
// repetition `rep` of a run. Every repetition simulates fresh inputs, so a
// run's medians average over several inputs; points that share a file seed
// share the derived seed, as in the source scenarios. Kept below 2^53 so it
// survives a JSON round trip.
std::uint64_t derive_seed(std::uint64_t bench_seed, std::uint64_t rep,
                          std::uint64_t file_seed);

struct LoadedScenario {
  jpm::spec::Scenario scenario;
  std::vector<jpm::sim::SweepWorkload> points;  // seeds derived
};
// Loads and validates the scenario file, deriving every point's seed for
// repetition `rep`.
LoadedScenario load_scenario(const Context& ctx, std::uint64_t rep);

// Sets each point's duration so that its trace holds about `events` events:
// the time of the events-th event, rounded up to a whole second, and at
// least warm-up plus one period. At a fixed duration the synthesizer's event
// count swings by tens of percent from seed to seed (a few large hot files
// set the request rate), which would make run-to-run timings a measure of
// the seed. Not part of set-up time: it is the benchmark choosing inputs.
void apply_event_budget(LoadedScenario& l, std::uint64_t events);

// One untraced repetition: the set-up pass, then the timed top-level call.
// Its statistics come in units (a policy run, a cluster point, the stream
// run), each with a digest; an op is what failed_frac counts, and a unit
// stands for ops_per_unit of them.
struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double events = 0.0;  // trace events simulated by the top-level call
  // Per unit: the digest the expected file pins, and the digest the traced
  // run must reproduce (the same value except on the fleet, whose chassis
  // accounting the traced run does not redo).
  std::vector<std::uint64_t> digests;
  std::vector<std::uint64_t> compare_digests;
  std::vector<bool> unit_failed;  // threw or failed a check
  std::uint64_t ops_per_unit = 1;
  std::uint64_t extra_failed_ops = 0;  // ops failed on their own (sheds)
  std::vector<std::string> problems;
};

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  // base, percentile or sample count, for the record
};

// The per-layer metrics, in BENCHMARK.json order, all zero until measured:
// a layer a workload does not exercise reads 0.
std::vector<LayerMetric> layer_metric_table();
void set_metric(std::vector<LayerMetric>& table, const std::string& name,
                double value, const std::string& note = "");

struct TracedResult {
  std::vector<std::uint64_t> compare_digests;  // matches Rep::compare_digests
  std::vector<bool> unit_failed;
  double wall_s = 0.0;  // the traced equivalent of the top-level call
  std::vector<Span> spans;
  std::vector<LayerMetric> metrics;
  std::vector<std::string> problems;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual Rep run_untraced(std::uint64_t rep) = 0;
  // Fills the metrics measured outside spans (construction RSS, generator
  // set-up) and then runs the traced pass on repetition `rep`'s inputs.
  virtual TracedResult run_traced(std::uint64_t rep) = 0;
  // "4", or "1 engine + 1 producer" for the stream.
  virtual std::string thread_note() const;
  virtual const char* op_name() const = 0;
  unsigned threads() const { return ctx_.threads; }

 protected:
  explicit Workload(Context ctx) : ctx_(std::move(ctx)) {}
  Context ctx_;
};

// The named workload with its fixed settings (thread count, event budget)
// filled into `ctx`; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, Context ctx);

// ---- helpers shared by the traced forms ------------------------------------

// parallel_for with a util.fanout span around it; every task runs under
// the fan-out span. The span's count is the task count.
template <typename Body>
void traced_parallel_for(SpanRecorder* rec, std::size_t n, unsigned threads,
                         Body&& body) {
  ScopedSpan fan(rec, SpanKind::kFanout, 0);
  fan.set_count(n);
  const std::uint64_t parent = fan.id();
  jpm::util::parallel_for(n, threads, [&](std::size_t i) {
    const ParentScope scope(rec, parent);
    body(i);
  });
}

// Replays `trace` through a push-mode engine: construct, push_chunk up to
// each timer edge (period boundary or flush tick) that has events after it,
// advance_to at the edge, push the rest, finish at the trace's duration.
// Equivalent to Engine::run() on the trace; a null recorder records
// nothing.
jpm::sim::RunMetrics traced_replay(SpanRecorder* rec, std::uint32_t run,
                                   const jpm::workload::Trace& trace,
                                   const jpm::sim::PolicySpec& policy,
                                   const jpm::sim::EngineConfig& config);

// Events at or after `t` in a time-sorted trace.
std::uint64_t events_from(const jpm::workload::Trace& trace, double t);

enum class PolicyClass { kJoint, kFixed, kBank, kNone };
PolicyClass policy_class(const jpm::sim::PolicySpec& policy);
const char* class_name(PolicyClass c);

// Span-derived metrics shared by every workload: synthesis, construction,
// loop, boundary, flush and run times per policy class, and fan-out
// efficiency. `run_class[run]` classifies each run id.
void span_layer_metrics(const std::vector<Span>& spans,
                        const std::vector<PolicyClass>& run_class,
                        unsigned threads, std::vector<LayerMetric>& table);

// Times TraceGenerator construction (file set and popularity solve) for
// the first few points into workload.generator_setup_s; returns the first
// point's data-set size in pages.
std::uint64_t time_generators(const std::vector<jpm::sim::SweepWorkload>& points,
                              std::vector<LayerMetric>& table);

// Resident growth across constructing (then destroying) one engine of each
// policy class present in `roster`, on this thread.
void construction_rss(const jpm::sim::LiveSource& source,
                      const std::vector<jpm::sim::PolicySpec>& roster,
                      const jpm::sim::EngineConfig& config,
                      std::vector<LayerMetric>& table);

}  // namespace e2e
