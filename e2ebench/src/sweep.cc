// popularity_16k and dataset_256k: a policy roster swept over workload
// points, the shape of `jpm run` on fig8_popularity / fig7_dataset.
#include <stdexcept>

#include "bench.h"
#include "digest.h"
#include "jpm/sim/runner.h"
#include "jpm/workload/synthesizer.h"
#include "proc.h"

namespace e2e {
namespace {

std::size_t baseline_index(const std::vector<jpm::sim::PolicySpec>& roster) {
  for (std::size_t j = 0; j < roster.size(); ++j) {
    if (roster[j].disk == jpm::sim::DiskPolicyKind::kAlwaysOn && !roster[j].multi_speed) {
      return j;
    }
  }
  throw std::invalid_argument("sweep roster has no always-on baseline");
}

class Sweep final : public Workload {
 public:
  explicit Sweep(Context ctx) : Workload(std::move(ctx)) {}
  const char* op_name() const override { return "policy runs"; }

  Rep run_untraced(std::uint64_t index) override {
    Rep rep;
    const auto t0 = Clock::now();
    LoadedScenario l = load_scenario(ctx_, index);
    const double load_s = seconds_since(t0);
    apply_event_budget(l, ctx_.event_budget);
    const auto t1 = Clock::now();
    const std::size_t n = l.points.size();
    std::vector<std::size_t> sizes(n);
    std::vector<std::uint64_t> trailing(n);
    {
      std::vector<jpm::workload::Trace> traces(n);
      jpm::util::parallel_for(n, ctx_.threads, [&](std::size_t i) {
        traces[i] = jpm::workload::synthesize_trace(l.points[i].workload);
      });
      rep.setup_s = load_s + seconds_since(t1);
      for (std::size_t i = 0; i < n; ++i) {
        sizes[i] = traces[i].size();
        trailing[i] = events_from(traces[i], traces[i].duration_s);
      }
    }

    const auto& roster = l.scenario.roster;
    const std::size_t units = n * roster.size();
    const double cpu0 = process_cpu_s();
    const auto w0 = Clock::now();
    std::vector<jpm::sim::SweepPoint> points;
    try {
      points = jpm::sim::run_sweep(l.points, roster, l.scenario.engine);
    } catch (const std::exception& e) {
      rep.wall_s = seconds_since(w0);
      rep.cpu_s = process_cpu_s() - cpu0;
      rep.digests.assign(units, 0);
      rep.compare_digests = rep.digests;
      rep.unit_failed.assign(units, true);
      rep.problems.push_back(std::string("run_sweep threw: ") + e.what());
      return rep;
    }
    rep.wall_s = seconds_since(w0);
    rep.cpu_s = process_cpu_s() - cpu0;
    for (std::size_t i = 0; i < n; ++i) {
      rep.events += static_cast<double>(sizes[i] * roster.size());
    }

    const std::size_t baseline = baseline_index(roster);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& point = points[i];
      for (std::size_t j = 0; j < point.outcomes.size(); ++j) {
        const auto& o = point.outcomes[j];
        rep.digests.push_back(digest_run(o.metrics));
        std::string why = check_run(o.metrics, l.scenario.engine.warm_up_s, trailing[i]);
        if (why.empty() &&
            o.metrics.cache_accesses != point.outcomes.front().metrics.cache_accesses) {
          why = point.label + "/" + o.spec.name + ": cache_accesses " +
                std::to_string(o.metrics.cache_accesses) + " differ from " +
                point.outcomes.front().spec.name + "'s on the same trace";
        }
        if (why.empty() && j == baseline && o.normalized.total != 1.0) {
          why = point.label + ": the always-on baseline does not normalize to 1";
        }
        rep.unit_failed.push_back(!why.empty());
        if (!why.empty()) rep.problems.push_back(why);
      }
    }
    rep.compare_digests = rep.digests;
    return rep;
  }

  TracedResult run_traced(std::uint64_t index) override {
    TracedResult r;
    r.metrics = layer_metric_table();
    LoadedScenario l = load_scenario(ctx_, index);
    apply_event_budget(l, ctx_.event_budget);
    const auto& roster = l.scenario.roster;
    const auto& engine = l.scenario.engine;
    const std::size_t n = l.points.size();
    const std::size_t m = roster.size();

    jpm::sim::LiveSource source;
    source.page_bytes = l.points.front().workload.page_bytes;
    source.total_pages = time_generators(l.points, r.metrics);
    source.duration_hint_s = l.points.front().workload.duration_s;
    construction_rss(source, roster, engine, r.metrics);

    // Jobs in run_sweep's order: each point's baseline first.
    const std::size_t baseline = baseline_index(roster);
    std::vector<std::pair<std::size_t, std::size_t>> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      jobs.emplace_back(i, baseline);
      for (std::size_t j = 0; j < m; ++j) {
        if (j != baseline) jobs.emplace_back(i, j);
      }
    }
    // Run ids: synthesis of point i is run i, job t is run n + t.
    std::vector<PolicyClass> run_class(n, PolicyClass::kNone);
    for (const auto& [i, j] : jobs) run_class.push_back(policy_class(roster[j]));

    SpanRecorder rec;
    std::vector<jpm::workload::Trace> traces(n);
    std::vector<jpm::sim::RunMetrics> results(n * m);
    const auto w0 = Clock::now();
    try {
      traced_parallel_for(&rec, n, ctx_.threads, [&](std::size_t i) {
        ScopedSpan span(&rec, SpanKind::kSynthesize, static_cast<std::uint32_t>(i));
        traces[i] = jpm::workload::synthesize_trace(l.points[i].workload);
        span.set_count(traces[i].size());
      });
      traced_parallel_for(&rec, jobs.size(), ctx_.threads, [&](std::size_t t) {
        const auto [i, j] = jobs[t];
        results[i * m + j] = traced_replay(&rec, static_cast<std::uint32_t>(n + t),
                                           traces[i], roster[j], engine);
      });
    } catch (const std::exception& e) {
      r.wall_s = seconds_since(w0);
      r.compare_digests.assign(n * m, 0);
      r.unit_failed.assign(n * m, true);
      r.problems.push_back(std::string("traced sweep threw: ") + e.what());
      return r;
    }
    r.wall_s = seconds_since(w0);

    double disk_writes = 0.0;
    for (std::size_t u = 0; u < results.size(); ++u) {
      const jpm::sim::RunMetrics& metrics = results[u];
      const jpm::workload::Trace& trace = traces[u / m];
      r.compare_digests.push_back(digest_run(metrics));
      disk_writes += static_cast<double>(metrics.disk_writes);
      const std::string why =
          check_run(metrics, engine.warm_up_s, events_from(trace, trace.duration_s));
      r.unit_failed.push_back(!why.empty());
      if (!why.empty()) r.problems.push_back(why);
    }
    r.spans = rec.spans();
    span_layer_metrics(r.spans, run_class, ctx_.threads, r.metrics);
    set_metric(r.metrics, "sim.disk_writes", disk_writes);
    return r;
  }
};

}  // namespace

std::unique_ptr<Workload> make_sweep(Context ctx) {
  return std::make_unique<Sweep>(std::move(ctx));
}

}  // namespace e2e
