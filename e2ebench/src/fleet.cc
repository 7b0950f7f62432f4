// fleet_1000: Joint on a 1000-server partitioned cluster over a grid of
// points, the shape of `jpm run` on fleet_sweep.
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "digest.h"
#include "jpm/cluster/cluster.h"
#include "jpm/workload/synthesizer.h"
#include "proc.h"
#include "stats.h"

namespace e2e {
namespace {

jpm::cluster::ClusterConfig cluster_of(const jpm::spec::Scenario& sc) {
  if (!sc.cluster) throw std::invalid_argument(sc.name + " has no cluster section");
  jpm::cluster::ClusterConfig cc = *sc.cluster;
  cc.engine = sc.engine;
  // Per-server fault seeds are derived inside ClusterEngine; the traced
  // pipeline below replays servers without them.
  if (cc.engine.fault.enabled) {
    throw std::invalid_argument(sc.name + ": the fleet workload runs without faults");
  }
  return cc;
}

// The part of a server's outcome the traced pipeline reproduces: the engine
// statistics and the request count (chassis accounting is not redone).
void add_pipeline(Digest& d, const jpm::sim::RunMetrics& m, std::uint64_t requests) {
  d.add_u64(digest_run(m));
  d.add_u64(requests);
}

class Fleet final : public Workload {
 public:
  explicit Fleet(Context ctx) : Workload(std::move(ctx)) {}
  const char* op_name() const override { return "cluster points"; }

  Rep run_untraced(std::uint64_t index) override {
    Rep rep;
    const auto t0 = Clock::now();
    LoadedScenario l = load_scenario(ctx_, index);
    const double load_s = seconds_since(t0);
    apply_event_budget(l, ctx_.event_budget);
    const auto t1 = Clock::now();
    const jpm::cluster::ClusterConfig cc = cluster_of(l.scenario);
    const std::size_t n = l.points.size();
    std::vector<std::size_t> sizes(n);
    std::vector<std::uint64_t> starts(n);
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
        for (const std::uint8_t f : traces[i].flags) {
          starts[i] += (f & jpm::workload::kTraceFlagStart) != 0 ? 1 : 0;
        }
      }
    }

    const auto& roster = l.scenario.roster;
    const std::size_t units = n * roster.size();
    const double cpu0 = process_cpu_s();
    const auto w0 = Clock::now();
    std::vector<jpm::cluster::ClusterSweepPoint> points;
    try {
      points = jpm::cluster::run_cluster_sweep(cc, l.points, roster);
    } catch (const std::exception& e) {
      rep.wall_s = seconds_since(w0);
      rep.cpu_s = process_cpu_s() - cpu0;
      rep.digests.assign(units, 0);
      rep.compare_digests = rep.digests;
      rep.unit_failed.assign(units, true);
      rep.problems.push_back(std::string("run_cluster_sweep threw: ") + e.what());
      return rep;
    }
    rep.wall_s = seconds_since(w0);
    rep.cpu_s = process_cpu_s() - cpu0;

    for (std::size_t i = 0; i < n; ++i) {
      rep.events += static_cast<double>(sizes[i] * roster.size());
      for (const auto& o : points[i].outcomes) {
        Digest full, pipeline;
        std::string why;
        std::uint64_t requests = 0;
        for (const auto& s : o.metrics.servers) {
          add_pipeline(full, s.metrics, s.requests);
          add_pipeline(pipeline, s.metrics, s.requests);
          full.add_f64(s.chassis_on_s);
          full.add_f64(s.chassis_energy_j);
          full.add_u64(s.power_cycles);
          requests += s.requests;
          if (why.empty()) why = check_run(s.metrics, cc.engine.warm_up_s, trailing[i]);
        }
        full.add_f64(o.metrics.duration_s);
        full.add_u64(o.metrics.reliability.server_crashes);
        full.add_u64(o.metrics.reliability.failed_over_requests);
        if (why.empty() && requests != starts[i]) {
          why = points[i].label + ": servers report " + std::to_string(requests) +
                " requests, the trace holds " + std::to_string(starts[i]);
        }
        if (why.empty() && o.metrics.servers.size() != cc.server_count) {
          why = points[i].label + ": wrong server count";
        }
        rep.digests.push_back(full.value());
        rep.compare_digests.push_back(pipeline.value());
        rep.unit_failed.push_back(!why.empty());
        if (!why.empty()) rep.problems.push_back(why);
      }
    }
    return rep;
  }

  TracedResult run_traced(std::uint64_t index) override {
    TracedResult r;
    r.metrics = layer_metric_table();
    LoadedScenario l = load_scenario(ctx_, index);
    apply_event_budget(l, ctx_.event_budget);
    const jpm::cluster::ClusterConfig cc = cluster_of(l.scenario);
    const auto& roster = l.scenario.roster;
    const std::size_t n = l.points.size();
    const std::size_t m = roster.size();
    const std::uint32_t servers = cc.server_count;

    jpm::sim::LiveSource source;
    source.page_bytes = l.points.front().workload.page_bytes;
    source.total_pages = time_generators(l.points, r.metrics);
    source.duration_hint_s = l.points.front().workload.duration_s;
    construction_rss(source, roster, cc.engine, r.metrics);

    // Run id t covers every span of job t (point t / m, policy t % m).
    std::vector<PolicyClass> run_class;
    for (std::size_t t = 0; t < n * m; ++t) run_class.push_back(policy_class(roster[t % m]));

    SpanRecorder rec;
    r.compare_digests.assign(n * m, 0);
    r.unit_failed.assign(n * m, false);
    std::vector<std::string> why(n * m);
    std::vector<std::uint64_t> disk_writes(n * m, 0);
    const auto w0 = Clock::now();
    try {
      traced_parallel_for(&rec, n * m, ctx_.threads, [&](std::size_t t) {
        const auto run = static_cast<std::uint32_t>(t);
        const auto& workload = l.points[t / m].workload;
        const auto& policy = roster[t % m];
        jpm::workload::Trace trace;
        {
          ScopedSpan span(&rec, SpanKind::kSynthesize, run);
          trace = jpm::workload::synthesize_trace(workload);
          span.set_count(trace.size());
        }
        std::vector<std::uint32_t> routes;
        {
          const ScopedSpan span(&rec, SpanKind::kRoute, run);
          routes = jpm::cluster::route_requests(trace, cc);
        }
        // Group the events by server, keeping time order within a server.
        std::vector<std::size_t> offsets(servers + 1, 0);
        std::vector<std::uint64_t> requests(servers, 0);
        for (std::size_t e = 0; e < trace.size(); ++e) {
          ++offsets[routes[e] + 1];
          if ((trace.flags[e] & jpm::workload::kTraceFlagStart) != 0) ++requests[routes[e]];
        }
        for (std::uint32_t s = 0; s < servers; ++s) offsets[s + 1] += offsets[s];
        std::vector<std::size_t> order(trace.size());
        {
          std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
          for (std::size_t e = 0; e < trace.size(); ++e) order[cursor[routes[e]]++] = e;
        }
        std::vector<double> times(trace.size());
        std::vector<std::uint64_t> pages(trace.size());
        std::vector<std::uint8_t> flags(trace.size());
        for (std::size_t k = 0; k < order.size(); ++k) {
          times[k] = trace.times[order[k]];
          pages[k] = trace.pages[order[k]];
          flags[k] = trace.flags[order[k]];
        }

        const std::uint64_t trailing = events_from(trace, workload.duration_s);
        jpm::sim::LiveSource server_source;
        server_source.page_bytes = workload.page_bytes;
        server_source.total_pages = trace.total_pages;
        server_source.duration_hint_s = workload.duration_s;
        Digest pipeline;
        for (std::uint32_t s = 0; s < servers; ++s) {
          ScopedSpan server(&rec, SpanKind::kServer, run);
          const std::size_t begin = offsets[s];
          const std::size_t count = offsets[s + 1] - begin;
          server.set_count(count);
          std::optional<jpm::sim::Engine> engine;
          {
            const ScopedSpan span(&rec, SpanKind::kConstruct, run);
            engine.emplace(server_source, policy, cc.engine);
          }
          {
            ScopedSpan span(&rec, SpanKind::kLoop, run);
            if (count == 0) {
              // An idle server is accounted with one request start at t = 0,
              // as ClusterEngine does.
              const double t0 = 0.0;
              const std::uint64_t page0 = 0;
              const std::uint8_t start = jpm::workload::kTraceFlagStart;
              engine->push_chunk(&t0, &page0, &start, 1);
              span.set_count(1);
            } else {
              engine->push_chunk(times.data() + begin, pages.data() + begin,
                                 flags.data() + begin, count);
              span.set_count(count);
            }
          }
          jpm::sim::RunMetrics metrics;
          {
            const ScopedSpan span(&rec, SpanKind::kFinish, run);
            metrics = engine->finish(workload.duration_s);
            engine.reset();
          }
          add_pipeline(pipeline, metrics, requests[s]);
          disk_writes[t] += metrics.disk_writes;
          if (why[t].empty()) why[t] = check_run(metrics, cc.engine.warm_up_s, trailing);
        }
        r.compare_digests[t] = pipeline.value();
      });
    } catch (const std::exception& e) {
      r.wall_s = seconds_since(w0);
      r.unit_failed.assign(n * m, true);
      r.problems.push_back(std::string("traced fleet threw: ") + e.what());
      return r;
    }
    r.wall_s = seconds_since(w0);
    for (std::size_t t = 0; t < n * m; ++t) {
      r.unit_failed[t] = !why[t].empty();
      if (!why[t].empty()) r.problems.push_back(why[t]);
    }

    r.spans = rec.spans();
    span_layer_metrics(r.spans, run_class, ctx_.threads, r.metrics);
    double writes = 0.0;
    for (const std::uint64_t w : disk_writes) writes += static_cast<double>(w);
    set_metric(r.metrics, "sim.disk_writes", writes);
    double route_s = 0.0;
    std::vector<double> server_s, construct_s;
    for (const Span& s : r.spans) {
      if (s.kind == SpanKind::kRoute) route_s += s.seconds();
      if (s.kind == SpanKind::kServer) server_s.push_back(s.seconds());
      if (s.kind == SpanKind::kConstruct) construct_s.push_back(s.seconds());
    }
    set_metric(r.metrics, "cluster.route_s", route_s,
               "summed over " + std::to_string(n * m) + " points");
    const std::string servers_note = std::to_string(server_s.size()) + " server pipelines";
    set_metric(r.metrics, "cluster.server_s.p50", percentile(server_s, 50.0), servers_note);
    const Tail tail = tail_percentile(server_s);
    char note[96];
    std::snprintf(note, sizeof note, "p%g, %zu of %zu samples beyond", tail.p, tail.beyond,
                  server_s.size());
    set_metric(r.metrics, "cluster.server_s.tail", tail.value, note);
    set_metric(r.metrics, "cluster.server_construct_s", median(construct_s),
               "median of " + std::to_string(construct_s.size()));
    return r;
  }
};

}  // namespace

std::unique_ptr<Workload> make_fleet(Context ctx) {
  return std::make_unique<Fleet>(std::move(ctx));
}

}  // namespace e2e
