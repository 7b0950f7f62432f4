#include "bench.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "jpm/workload/synthesizer.h"
#include "proc.h"
#include "stats.h"

namespace e2e {

std::unique_ptr<Workload> make_sweep(Context ctx);
std::unique_ptr<Workload> make_fleet(Context ctx);
std::unique_ptr<Workload> make_serve(Context ctx);

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

unsigned fanout_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw == 0 ? 1u : hw, 1u, 4u);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t bench_seed, std::uint64_t rep,
                          std::uint64_t file_seed) {
  return splitmix64(splitmix64(splitmix64(bench_seed) ^ rep) ^ file_seed) >> 11;
}

LoadedScenario load_scenario(const Context& ctx, std::uint64_t rep) {
  LoadedScenario l{jpm::spec::load_scenario_file(ctx.scenario_path), {}};
  jpm::spec::validate_scenario(l.scenario);
  for (const auto& p : l.scenario.workloads) {
    jpm::sim::SweepWorkload w{p.label, p.workload, p.trace_path, p.axes};
    w.workload.seed = derive_seed(ctx.seed, rep, p.workload.seed);
    l.points.push_back(std::move(w));
  }
  return l;
}

void apply_event_budget(LoadedScenario& l, std::uint64_t events) {
  if (events == 0) return;
  const auto& engine = l.scenario.engine;
  const double min_duration = engine.warm_up_s + engine.joint.period_s;
  for (auto& point : l.points) {
    jpm::workload::SynthesizerConfig open = point.workload;
    open.duration_s *= 16;  // room to reach the budget on a slow seed
    jpm::workload::TraceGenerator generator(open);
    double t = 0.0;
    for (std::uint64_t k = 0; k < events; ++k) {
      const auto e = generator.next();
      if (!e) break;
      t = e->time_s;
    }
    point.workload.duration_s = std::max(std::ceil(t), min_duration);
  }
}

std::vector<LayerMetric> layer_metric_table() {
  const std::vector<std::pair<const char*, const char*>> names = {
      {"workload.synth_s", "s"},
      {"workload.events", "count"},
      {"workload.generator_setup_s", "s"},
      {"sim.construct_s.joint", "s"},
      {"sim.construct_s.fixed", "s"},
      {"sim.construct_s.bank", "s"},
      {"sim.construct_rss_mb.joint", "MB"},
      {"sim.construct_rss_mb.fixed", "MB"},
      {"sim.construct_rss_mb.bank", "MB"},
      {"sim.loop_s.joint", "s"},
      {"sim.loop_s.fixed", "s"},
      {"sim.loop_s.bank", "s"},
      {"sim.loop_events_per_s.joint", "events/s"},
      {"sim.loop_events_per_s.fixed", "events/s"},
      {"sim.loop_events_per_s.bank", "events/s"},
      {"sim.boundary_s.joint", "s"},
      {"sim.boundaries", "count"},
      {"sim.flush_s", "s"},
      {"sim.disk_writes", "count"},
      {"sim.run_s.p50", "s"},
      {"sim.run_s.max", "s"},
      {"cluster.route_s", "s"},
      {"cluster.server_s.p50", "s"},
      {"cluster.server_s.tail", "s"},
      {"cluster.server_construct_s", "s"},
      {"util.parallel_efficiency", "ratio"},
      {"stream.ingest_s", "s"},
      {"stream.direct_push_s", "s"},
      {"stream.ring_overhead", "ratio"},
      {"stream.block_waits", "count"},
      {"stream.events_per_pump", "events"},
      {"trace.overhead_frac", "ratio"},
  };
  std::vector<LayerMetric> table;
  for (const auto& [name, unit] : names) table.push_back({name, unit, 0.0, ""});
  return table;
}

void set_metric(std::vector<LayerMetric>& table, const std::string& name,
                double value, const std::string& note) {
  for (auto& m : table) {
    if (m.name == name) {
      m.value = value;
      m.note = note;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

std::string Workload::thread_note() const { return std::to_string(ctx_.threads); }

std::unique_ptr<Workload> make_workload(const std::string& name, Context ctx) {
  struct Entry {
    const char* name;
    bool fanout;                 // min(nproc, 4) workers, else one
    std::uint64_t event_budget;  // see apply_event_budget
    std::unique_ptr<Workload> (*make)(Context);
  };
  static const Entry kWorkloads[] = {
      {"popularity_16k", true, 800000, make_sweep},
      {"dataset_256k", false, 1000000, make_sweep},
      // 200 points already average over 40 seeds; keeps its 300 s points.
      {"fleet_1000", true, 0, make_fleet},
      {"serve_writes", false, 6000000, make_serve},
  };
  for (const Entry& e : kWorkloads) {
    if (name != e.name) continue;
    ctx.threads = e.fanout ? fanout_threads() : 1;
    ctx.event_budget = e.event_budget;
    return e.make(std::move(ctx));
  }
  return nullptr;
}

jpm::sim::RunMetrics traced_replay(SpanRecorder* rec, std::uint32_t run,
                                   const jpm::workload::Trace& trace,
                                   const jpm::sim::PolicySpec& policy,
                                   const jpm::sim::EngineConfig& config) {
  jpm::sim::LiveSource source;
  source.page_bytes = trace.page_bytes;
  source.total_pages = trace.total_pages;
  source.duration_hint_s = trace.duration_s;
  std::optional<jpm::sim::Engine> engine;
  {
    const ScopedSpan span(rec, SpanKind::kConstruct, run);
    engine.emplace(source, policy, config);
  }
  const double* times = trace.times.data();
  const std::size_t n = trace.size();
  std::size_t i = 0;
  const auto push_until = [&](std::size_t end) {
    if (end == i) return;
    ScopedSpan span(rec, SpanKind::kLoop, run);
    span.set_count(end - i);
    engine->push_chunk(times + i, trace.pages.data() + i, trace.flags.data() + i,
                       end - i);
    i = end;
  };
  // The engine steps flush ticks by repeated addition from the interval;
  // stepping the same way lands on the same doubles.
  const double flush = config.flush_interval_s;
  double next_flush = flush > 0.0 ? flush : std::numeric_limits<double>::infinity();
  for (;;) {
    const double boundary = engine->next_boundary_s();
    const double edge = std::min(boundary, next_flush);
    // Edges past the last event are left to finish(), as in Engine::run().
    const std::size_t at =
        static_cast<std::size_t>(std::lower_bound(times + i, times + n, edge) - times);
    if (at == n) break;
    push_until(at);
    {
      const ScopedSpan span(
          rec, edge == boundary ? SpanKind::kBoundary : SpanKind::kFlush, run);
      engine->advance_to(edge);
    }
    while (next_flush <= edge) next_flush += flush;
  }
  push_until(n);
  const ScopedSpan span(rec, SpanKind::kFinish, run);
  jpm::sim::RunMetrics metrics = engine->finish(trace.duration_s);
  engine.reset();  // teardown belongs to the run's last span
  return metrics;
}

std::uint64_t events_from(const jpm::workload::Trace& trace, double t) {
  return static_cast<std::uint64_t>(
      trace.times.end() - std::lower_bound(trace.times.begin(), trace.times.end(), t));
}

PolicyClass policy_class(const jpm::sim::PolicySpec& policy) {
  if (policy.is_joint()) return PolicyClass::kJoint;
  if (policy.mem == jpm::sim::MemPolicyKind::kFixed) return PolicyClass::kFixed;
  return PolicyClass::kBank;
}

const char* class_name(PolicyClass c) {
  switch (c) {
    case PolicyClass::kJoint: return "joint";
    case PolicyClass::kFixed: return "fixed";
    case PolicyClass::kBank: return "bank";
    case PolicyClass::kNone: return "none";
  }
  return "?";
}

void span_layer_metrics(const std::vector<Span>& spans,
                        const std::vector<PolicyClass>& run_class,
                        unsigned threads, std::vector<LayerMetric>& table) {
  constexpr std::size_t kClasses = 3;
  double synth_s = 0.0;
  std::uint64_t synth_events = 0;
  std::vector<double> construct[kClasses];
  double loop_s[kClasses] = {};
  std::uint64_t loop_events[kClasses] = {};
  double boundary_joint_s = 0.0;
  std::uint64_t boundaries = 0;
  double flush_s = 0.0;
  std::uint64_t flushes = 0;
  struct Extent {
    std::int64_t begin = std::numeric_limits<std::int64_t>::max();
    std::int64_t end = std::numeric_limits<std::int64_t>::min();
    bool constructed = false;
    bool finished = false;
  };
  std::map<std::uint32_t, Extent> runs;
  std::unordered_map<std::uint64_t, std::size_t> fanout_index;

  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    const PolicyClass cls =
        s.run < run_class.size() ? run_class[s.run] : PolicyClass::kNone;
    const auto c = static_cast<std::size_t>(cls);
    Extent& run = runs[s.run];
    if (s.kind != SpanKind::kFanout) {
      run.begin = std::min(run.begin, s.start_ns);
      run.end = std::max(run.end, s.end_ns);
    }
    switch (s.kind) {
      case SpanKind::kSynthesize:
        synth_s += s.seconds();
        synth_events += s.count;
        break;
      case SpanKind::kConstruct:
        run.constructed = true;
        if (c < kClasses) construct[c].push_back(s.seconds());
        break;
      case SpanKind::kLoop:
        if (c < kClasses) {
          loop_s[c] += s.seconds();
          loop_events[c] += s.count;
        }
        break;
      case SpanKind::kBoundary:
        ++boundaries;
        if (cls == PolicyClass::kJoint) boundary_joint_s += s.seconds();
        break;
      case SpanKind::kFlush:
        ++flushes;
        flush_s += s.seconds();
        break;
      case SpanKind::kFinish:
        run.finished = true;
        break;
      case SpanKind::kFanout:
        fanout_index[s.id] = k;
        break;
      default:
        break;
    }
  }

  set_metric(table, "workload.synth_s", synth_s);
  set_metric(table, "workload.events", static_cast<double>(synth_events));
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::string cls = class_name(static_cast<PolicyClass>(c));
    set_metric(table, "sim.construct_s." + cls, median(construct[c]),
               "median of " + std::to_string(construct[c].size()) + " constructions");
    set_metric(table, "sim.loop_s." + cls, loop_s[c],
               std::to_string(loop_events[c]) + " events");
    set_metric(table, "sim.loop_events_per_s." + cls,
               loop_s[c] > 0.0 ? static_cast<double>(loop_events[c]) / loop_s[c] : 0.0,
               "base " + std::to_string(loop_events[c]) + " events");
  }
  set_metric(table, "sim.boundary_s.joint", boundary_joint_s);
  set_metric(table, "sim.boundaries", static_cast<double>(boundaries));
  set_metric(table, "sim.flush_s", flush_s, std::to_string(flushes) + " flush ticks");

  std::vector<double> run_s;
  for (const auto& [id, run] : runs) {
    if (run.constructed && run.finished) {
      run_s.push_back(static_cast<double>(run.end - run.begin) * 1e-9);
    }
  }
  const std::string runs_note = std::to_string(run_s.size()) + " runs";
  set_metric(table, "sim.run_s.p50", median(run_s), runs_note);
  set_metric(table, "sim.run_s.max",
             run_s.empty() ? 0.0 : *std::max_element(run_s.begin(), run_s.end()),
             runs_note);

  // Fan-out efficiency: each task's busy time is the extent of the spans
  // it opened directly under the fan-out.
  std::map<std::pair<std::size_t, std::uint32_t>, std::pair<std::int64_t, std::int64_t>>
      tasks;
  for (const Span& s : spans) {
    const auto it = fanout_index.find(s.parent);
    if (it == fanout_index.end()) continue;
    auto [slot, fresh] = tasks.try_emplace({it->second, s.run}, s.start_ns, s.end_ns);
    if (!fresh) {
      slot->second.first = std::min(slot->second.first, s.start_ns);
      slot->second.second = std::max(slot->second.second, s.end_ns);
    }
  }
  double busy_s = 0.0;
  for (const auto& [key, extent] : tasks) {
    busy_s += static_cast<double>(extent.second - extent.first) * 1e-9;
  }
  double capacity_s = 0.0;
  for (const auto& [id, k] : fanout_index) {
    const double workers =
        static_cast<double>(std::min<std::uint64_t>(threads, spans[k].count));
    capacity_s += workers * spans[k].seconds();
  }
  set_metric(table, "util.parallel_efficiency",
             capacity_s > 0.0 ? busy_s / capacity_s : 0.0,
             std::to_string(fanout_index.size()) + " fan-outs, " +
                 std::to_string(tasks.size()) + " tasks");
}

std::uint64_t time_generators(const std::vector<jpm::sim::SweepWorkload>& points,
                              std::vector<LayerMetric>& table) {
  constexpr std::size_t kSample = 8;
  std::vector<double> seconds;
  std::uint64_t first_pages = 0;
  for (std::size_t i = 0; i < points.size() && i < kSample; ++i) {
    const auto t0 = Clock::now();
    const jpm::workload::TraceGenerator generator(points[i].workload);
    seconds.push_back(seconds_since(t0));
    if (i == 0) first_pages = generator.total_pages();
  }
  set_metric(table, "workload.generator_setup_s", median(seconds),
             "median per point of " + std::to_string(seconds.size()));
  return first_pages;
}

void construction_rss(const jpm::sim::LiveSource& source,
                      const std::vector<jpm::sim::PolicySpec>& roster,
                      const jpm::sim::EngineConfig& config,
                      std::vector<LayerMetric>& table) {
  bool done[3] = {};
  for (const auto& policy : roster) {
    const auto c = static_cast<std::size_t>(policy_class(policy));
    if (c >= 3 || done[c]) continue;
    done[c] = true;
    trim_heap();
    const double before = current_rss_mb();
    double after = before;
    {
      const jpm::sim::Engine engine(source, policy, config);
      after = current_rss_mb();
    }
    trim_heap();
    set_metric(table,
               std::string("sim.construct_rss_mb.") + class_name(static_cast<PolicyClass>(c)),
               after - before, "policy " + policy.name);
  }
}

}  // namespace e2e
