// serve_writes: the `jpm serve` daemon shape. One producer thread offers a
// synthesized write-mixed stream into StreamEngine as fast as the ring
// accepts it (a closed loop) while the engine thread pumps it through
// Joint; the result must equal a direct push-mode replay of the same events.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "digest.h"
#include "jpm/stream/stream_engine.h"
#include "jpm/workload/synthesizer.h"
#include "proc.h"

namespace e2e {
namespace {

struct ServeSetup {
  LoadedScenario loaded;
  jpm::sim::PolicySpec policy;
  jpm::stream::StreamConfig stream;
  jpm::workload::Trace trace;
};

ServeSetup load_serve(const Context& ctx, std::uint64_t index) {
  ServeSetup s{load_scenario(ctx, index), {}, {}, {}};
  const auto& sc = s.loaded.scenario;
  if (sc.roster.empty() || !sc.stream || s.loaded.points.empty()) {
    throw std::invalid_argument(sc.name + ": a serve workload needs a roster, a "
                                          "stream section and a workload point");
  }
  s.policy = sc.roster.front();  // what `jpm serve` picks by default
  s.stream = *sc.stream;
  return s;
}

// The first `events` events of the point's stream, synthesized in one
// TraceGenerator pass (the event budget, without a separate search); the run
// ends at the last event rounded up to a whole second, and lasts at least
// warm-up plus one period.
jpm::workload::Trace stream_prefix(const LoadedScenario& l, std::uint64_t events) {
  jpm::workload::SynthesizerConfig w = l.points.front().workload;
  w.duration_s *= 16;  // room to reach the budget on a slow seed
  jpm::workload::TraceGenerator generator(w);
  jpm::workload::Trace trace;
  trace.reserve(events);
  while (trace.size() < events) {
    const auto e = generator.next();
    if (!e) break;
    trace.push_back(*e);
  }
  const auto& engine = l.scenario.engine;
  trace.page_bytes = w.page_bytes;
  trace.total_pages = generator.total_pages();
  trace.duration_s = std::max(trace.empty() ? 0.0 : std::ceil(trace.times.back()),
                              engine.warm_up_s + engine.joint.period_s);
  return trace;
}

jpm::sim::LiveSource live_source(const jpm::workload::Trace& trace) {
  jpm::sim::LiveSource source;
  source.page_bytes = trace.page_bytes;
  source.total_pages = trace.total_pages;
  source.duration_hint_s = trace.duration_s;
  return source;
}

// Offers every event of `trace` from this thread, then closes the ring.
// `stop` cuts the stream short when the engine thread has failed.
void produce(jpm::stream::StreamEngine& engine, const jpm::workload::Trace& trace,
             const std::atomic<bool>& stop) {
  for (std::size_t i = 0; i < trace.size() && !stop.load(std::memory_order_relaxed); ++i) {
    engine.offer(jpm::stream::StreamEvent{trace.times[i], trace.pages[i], trace.flags[i]});
  }
  engine.close();
}

// Stream-level failures: sheds fail their events, a watchdog close or a
// clamped timestamp fails the run.
std::string check_stream(const jpm::stream::StreamStats& st, std::size_t events) {
  if (st.events_offered != events || st.events_processed + st.shed_reads + st.shed_writes != events) {
    return "stream lost events: offered " + std::to_string(st.events_offered) + ", processed " +
           std::to_string(st.events_processed) + " of " + std::to_string(events);
  }
  if (st.watchdog_closes != 0) return "the watchdog forced a period close";
  if (st.clamped_timestamps != 0) return "the stream clamped timestamps of a sorted trace";
  return "";
}

class Serve final : public Workload {
 public:
  explicit Serve(Context ctx) : Workload(std::move(ctx)) {}
  const char* op_name() const override { return "offered events"; }
  std::string thread_note() const override { return "1 engine + 1 producer"; }

  Rep run_untraced(std::uint64_t index) override {
    Rep rep;
    const auto t0 = Clock::now();
    ServeSetup s = load_serve(ctx_, index);
    s.trace = stream_prefix(s.loaded, ctx_.event_budget);
    const auto& engine_cfg = s.loaded.scenario.engine;
    std::optional<jpm::stream::StreamEngine> engine;
    engine.emplace(live_source(s.trace), s.policy, engine_cfg, s.stream);
    rep.setup_s = seconds_since(t0);

    const double cpu0 = process_cpu_s();
    const auto w0 = Clock::now();
    jpm::sim::RunMetrics metrics;
    std::exception_ptr error;
    std::atomic<bool> stop{false};
    std::thread consumer([&] {
      try {
        engine->run_until_closed();
        metrics = engine->finish_at(s.trace.duration_s);
      } catch (...) {
        error = std::current_exception();
        stop = true;
      }
    });
    produce(*engine, s.trace, stop);
    consumer.join();
    rep.wall_s = seconds_since(w0);
    rep.cpu_s = process_cpu_s() - cpu0;
    rep.events = static_cast<double>(s.trace.size());

    const jpm::stream::StreamStats st = engine->stats();
    engine.reset();  // before the direct replay below, so peak RSS is the stream's
    std::string why;
    if (error) {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        why = std::string("the stream threw: ") + e.what();
      }
    }
    if (why.empty()) why = check_stream(st, s.trace.size());
    if (why.empty()) {
      why = check_run(metrics, engine_cfg.warm_up_s, events_from(s.trace, s.trace.duration_s));
    }
    if (why.empty() && index == 0) {
      // The stream must equal a direct replay of the same events; checked
      // on the first repetition's inputs, outside the timed call.
      const auto direct = traced_replay(nullptr, 0, s.trace, s.policy, engine_cfg);
      if (digest_run(metrics) != digest_run(direct)) {
        why = "the stream's statistics differ from a direct replay of its events";
      }
    }
    rep.digests.push_back(digest_run(metrics));
    rep.compare_digests = rep.digests;
    rep.unit_failed.push_back(!why.empty());
    if (!why.empty()) rep.problems.push_back(why);
    rep.ops_per_unit = s.trace.size();
    rep.extra_failed_ops = st.shed_reads + st.shed_writes;
    return rep;
  }

  TracedResult run_traced(std::uint64_t index) override {
    TracedResult r;
    r.metrics = layer_metric_table();
    ServeSetup s = load_serve(ctx_, index);
    const auto& engine_cfg = s.loaded.scenario.engine;

    jpm::sim::LiveSource source;
    source.page_bytes = s.loaded.points.front().workload.page_bytes;
    source.total_pages = time_generators(s.loaded.points, r.metrics);
    construction_rss(source, {s.policy}, engine_cfg, r.metrics);

    // Run ids: 0 synthesis, 1 the stream, 2 the direct replay.
    const std::vector<PolicyClass> run_class = {PolicyClass::kNone, policy_class(s.policy),
                                                policy_class(s.policy)};
    SpanRecorder rec;
    {
      ScopedSpan span(&rec, SpanKind::kSynthesize, 0);
      s.trace = stream_prefix(s.loaded, ctx_.event_budget);
      span.set_count(s.trace.size());
    }
    std::optional<jpm::stream::StreamEngine> engine;
    {
      const ScopedSpan span(&rec, SpanKind::kConstruct, 1);
      engine.emplace(live_source(s.trace), s.policy, engine_cfg, s.stream);
    }

    // The ring path: this thread is the engine thread, pumping with a span
    // around every pump(); the producer runs beside it.
    std::uint64_t pumps = 0, pumped = 0;
    jpm::sim::RunMetrics streamed;
    const auto w0 = Clock::now();
    std::atomic<bool> stop{false};
    std::thread producer([&] { produce(*engine, s.trace, stop); });
    try {
      while (!engine->drained()) {
        std::size_t got = 0;
        {
          ScopedSpan span(&rec, SpanKind::kPump, 1);
          got = engine->pump();
          span.set_count(got);
        }
        if (got > 0) {
          ++pumps;
          pumped += got;
        } else {
          // run_until_closed()'s idle back-off.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      const ScopedSpan span(&rec, SpanKind::kFinish, 1);
      streamed = engine->finish_at(s.trace.duration_s);
    } catch (...) {
      stop = true;
      producer.join();
      throw;
    }
    producer.join();
    r.wall_s = seconds_since(w0);
    const jpm::stream::StreamStats st = engine->stats();
    engine.reset();

    // The direct path: the same events pushed straight into an engine.
    const auto d0 = Clock::now();
    const jpm::sim::RunMetrics direct = traced_replay(&rec, 2, s.trace, s.policy, engine_cfg);
    const double direct_s = seconds_since(d0);

    std::string why = check_stream(st, s.trace.size());
    if (why.empty()) {
      why = check_run(streamed, engine_cfg.warm_up_s, events_from(s.trace, s.trace.duration_s));
    }
    if (why.empty() && digest_run(streamed) != digest_run(direct)) {
      why = "the stream's statistics differ from a direct replay of its events";
    }
    r.compare_digests.push_back(digest_run(streamed));
    r.unit_failed.push_back(!why.empty());
    if (!why.empty()) r.problems.push_back(why);

    r.spans = rec.spans();
    span_layer_metrics(r.spans, run_class, 1, r.metrics);
    // A single policy run: the stream's own construct -> finish.
    double construct_begin = 0.0, finish_end = 0.0;
    double direct_construct_s = 0.0;
    for (const Span& sp : r.spans) {
      if (sp.run == 1 && sp.kind == SpanKind::kConstruct) construct_begin = sp.start_ns * 1e-9;
      if (sp.run == 1 && sp.kind == SpanKind::kFinish) finish_end = sp.end_ns * 1e-9;
      if (sp.run == 2 && sp.kind == SpanKind::kConstruct) direct_construct_s = sp.seconds();
    }
    set_metric(r.metrics, "sim.run_s.p50", finish_end - construct_begin, "the stream run");
    set_metric(r.metrics, "sim.run_s.max", finish_end - construct_begin, "the stream run");
    set_metric(r.metrics, "sim.disk_writes", static_cast<double>(streamed.disk_writes));
    const double direct_push_s = direct_s - direct_construct_s;
    set_metric(r.metrics, "stream.ingest_s", r.wall_s,
               std::to_string(s.trace.size()) + " events, first offer to finish_at");
    set_metric(r.metrics, "stream.direct_push_s", direct_push_s,
               "first push_chunk to finish");
    set_metric(r.metrics, "stream.ring_overhead",
               direct_push_s > 0.0 ? r.wall_s / direct_push_s : 0.0,
               "ingest_s / direct_push_s");
    set_metric(r.metrics, "stream.block_waits", static_cast<double>(st.block_waits),
               "base " + std::to_string(st.events_offered) + " events offered");
    set_metric(r.metrics, "stream.events_per_pump",
               pumps > 0 ? static_cast<double>(pumped) / static_cast<double>(pumps) : 0.0,
               std::to_string(pumps) + " non-empty pumps");
    return r;
  }
};

}  // namespace

std::unique_ptr<Workload> make_serve(Context ctx) {
  return std::make_unique<Serve>(std::move(ctx));
}

}  // namespace e2e
