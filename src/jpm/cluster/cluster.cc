#include "jpm/cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "jpm/telemetry/registry.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/util/check.h"
#include "jpm/util/parallel.h"
#include "jpm/workload/shared_models.h"

namespace jpm::cluster {

void ClusterConfig::validate() const {
  const auto bad = [](const std::string& why) {
    throw std::invalid_argument("invalid ClusterConfig: " + why);
  };
  if (server_count == 0) bad("server_count must be at least 1");
  if (partition_pages == 0) bad("partition_pages must be positive");
  if (!(rate_cap_rps > 0.0)) bad("rate_cap_rps must be positive");
  if (!(rate_ewma_tau_s > 0.0)) bad("rate_ewma_tau_s must be positive");
  if (chassis_on_w < 0.0 || chassis_off_w < 0.0) {
    bad("chassis powers must be nonnegative");
  }
  if (!(server_off_idle_s > 0.0)) bad("server_off_idle_s must be positive");
  if (server_boot_s < 0.0) bad("server_boot_s must be nonnegative");
}

double ClusterMetrics::pipeline_energy_j() const {
  double total = 0.0;
  for (const auto& s : servers) total += s.metrics.total_j();
  return total;
}

double ClusterMetrics::chassis_energy_j() const {
  double total = 0.0;
  for (const auto& s : servers) total += s.chassis_energy_j;
  return total;
}

std::uint64_t ClusterMetrics::total_requests() const {
  std::uint64_t total = 0;
  for (const auto& s : servers) total += s.requests;
  return total;
}

double ClusterMetrics::mean_latency_s() const {
  double latency = 0.0;
  std::uint64_t accesses = 0;
  for (const auto& s : servers) {
    latency += s.metrics.total_latency_s;
    accesses += s.metrics.cache_accesses;
  }
  return accesses == 0 ? 0.0 : latency / static_cast<double>(accesses);
}

double ClusterMetrics::long_latency_per_s() const {
  std::uint64_t count = 0;
  for (const auto& s : servers) count += s.metrics.long_latency_count;
  return duration_s == 0.0 ? 0.0
                           : static_cast<double>(count) / duration_s;
}

double ClusterMetrics::balance_index() const {
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& s : servers) {
    const double x = static_cast<double>(s.requests);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(servers.size()) * sum_sq);
}

std::vector<std::uint32_t> route_requests(const workload::Trace& trace,
                                          const ClusterConfig& cfg) {
  JPM_CHECK(cfg.server_count > 0);
  const std::size_t n = trace.size();
  std::vector<std::uint32_t> routes;
  routes.reserve(n);

  std::uint32_t rr_next = 0;
  std::uint32_t current = 0;  // route of the open request (continuations)
  // kUnbalanced: per-server EWMA request rate.
  std::vector<double> rate(cfg.server_count, 0.0);
  double last_t = 0.0;

  for (std::size_t i = 0; i < n; ++i) {
    if ((trace.flags[i] & workload::kTraceFlagStart) != 0) {
      switch (cfg.distribution) {
        case DistributionPolicy::kRoundRobin:
          current = rr_next;
          rr_next = (rr_next + 1) % cfg.server_count;
          break;
        case DistributionPolicy::kPartitioned:
          current = static_cast<std::uint32_t>(
              (trace.pages[i] / cfg.partition_pages) % cfg.server_count);
          break;
        case DistributionPolicy::kUnbalanced: {
          const double decay =
              std::exp(-(trace.times[i] - last_t) / cfg.rate_ewma_tau_s);
          for (auto& r : rate) r *= decay;
          last_t = trace.times[i];
          // First server under the cap; the last server takes any overflow.
          current = cfg.server_count - 1;
          for (std::uint32_t s = 0; s < cfg.server_count; ++s) {
            if (rate[s] < cfg.rate_cap_rps) {
              current = s;
              break;
            }
          }
          // One request adds 1/tau, so a steady stream of lambda req/s
          // drives the EWMA toward lambda.
          rate[current] += 1.0 / cfg.rate_ewma_tau_s;
          break;
        }
      }
    }
    routes.push_back(current);
  }
  return routes;
}

FaultRouting route_requests_with_faults(
    const workload::Trace& trace, const ClusterConfig& cfg,
    const std::vector<OutageWindows>& outages) {
  JPM_CHECK(outages.size() == cfg.server_count);
  FaultRouting out;
  out.routes = route_requests(trace, cfg);

  // Per-server cursor into its sorted outage windows; the trace is
  // time-sorted, so each cursor only moves forward.
  std::vector<std::size_t> cursor(cfg.server_count, 0);
  const auto down_at = [&](std::uint32_t s, double t) {
    auto& w = cursor[s];
    while (w < outages[s].size() && outages[s][w].second <= t) ++w;
    return w < outages[s].size() && outages[s][w].first <= t;
  };

  std::uint32_t current = out.routes.empty() ? 0 : out.routes[0];
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if ((trace.flags[i] & workload::kTraceFlagStart) == 0) {
      // Continuations drain on whichever server their request landed on,
      // even if it crashed mid-request (connection draining).
      out.routes[i] = current;
      continue;
    }
    std::uint32_t target = out.routes[i];
    if (down_at(target, trace.times[i])) {
      for (std::uint32_t step = 1; step < cfg.server_count; ++step) {
        const auto candidate = static_cast<std::uint32_t>(
            (target + step) % cfg.server_count);
        if (!down_at(candidate, trace.times[i])) {
          target = candidate;
          ++out.failed_over_requests;
          break;
        }
      }
      // Every server down: the home server keeps the request.
    }
    out.routes[i] = target;
    current = target;
  }
  return out;
}

ChassisUsage chassis_usage(const double* request_times_s, std::size_t n,
                           double duration_s, double off_idle_s) {
  JPM_CHECK(off_idle_s > 0.0);
  ChassisUsage usage;
  // The server starts on; it powers off after each idle stretch exceeding
  // off_idle_s and boots back for the next request.
  double on_since = 0.0;
  double last_activity = 0.0;
  bool on = true;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = request_times_s[i];
    JPM_DCHECK(t >= last_activity);
    if (on && t - last_activity > off_idle_s) {
      usage.on_s += (last_activity + off_idle_s) - on_since;
      on = false;
      ++usage.power_cycles;
    }
    if (!on) {
      on = true;
      on_since = t;
    }
    last_activity = t;
  }
  if (on) {
    const double end_of_on =
        std::min(duration_s, last_activity + off_idle_s);
    usage.on_s += std::max(end_of_on, on_since) - on_since;
    if (end_of_on < duration_s) ++usage.power_cycles;
  }
  return usage;
}

ChassisUsage chassis_usage(const double* request_times_s, std::size_t n,
                           double duration_s, double off_idle_s,
                           const OutageWindows& outages) {
  JPM_CHECK(off_idle_s > 0.0);
  ChassisUsage usage;
  double on_since = 0.0;
  double last_activity = 0.0;
  bool on = true;
  std::size_t w = 0;

  // Idle-timeout transition strictly before time t (the base state machine).
  const auto idle_off_before = [&](double t) {
    if (on && t - last_activity > off_idle_s) {
      usage.on_s += (last_activity + off_idle_s) - on_since;
      on = false;
      ++usage.power_cycles;
    }
  };
  // A crash at `crash` forces the chassis off (one forced power cycle even
  // if the idle timeout already had it off — the restart is a real cycle);
  // the server is back on when the outage ends.
  const auto apply_crash = [&](double crash, double restart) {
    idle_off_before(crash);
    if (on) {
      usage.on_s += std::max(crash, on_since) - on_since;
      on = false;
    }
    ++usage.power_cycles;
    if (restart < duration_s) {
      on = true;
      on_since = restart;
      last_activity = restart;
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const double t = request_times_s[i];
    while (w < outages.size() && outages[w].first <= t) {
      apply_crash(outages[w].first, outages[w].second);
      ++w;
    }
    idle_off_before(t);
    if (!on) {
      on = true;
      on_since = t;
    }
    last_activity = std::max(last_activity, t);
  }
  while (w < outages.size() && outages[w].first < duration_s) {
    apply_crash(outages[w].first, outages[w].second);
    ++w;
  }
  if (on) {
    const double end_of_on =
        std::min(duration_s, last_activity + off_idle_s);
    usage.on_s += std::max(end_of_on, on_since) - on_since;
    if (end_of_on < duration_s) ++usage.power_cycles;
  }
  return usage;
}

ShardLayout build_shard_layout(const workload::Trace& trace,
                               const std::vector<std::uint32_t>& routes,
                               std::uint32_t server_count) {
  JPM_CHECK(routes.size() == trace.size());
  JPM_CHECK(server_count > 0);
  ShardLayout out;
  out.event_offsets.assign(server_count + 1, 0);
  out.arrival_offsets.assign(server_count + 1, 0);
  out.request_counts.assign(server_count, 0);

  // Counting pass: block sizes per server (offsets shifted one right so the
  // prefix sum lands in place).
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint32_t s = routes[i];
    JPM_DCHECK(s < server_count);
    ++out.event_offsets[s + 1];
    if ((trace.flags[i] & workload::kTraceFlagStart) != 0) {
      ++out.arrival_offsets[s + 1];
      ++out.request_counts[s];
    }
  }
  for (std::uint32_t s = 0; s < server_count; ++s) {
    out.event_offsets[s + 1] += out.event_offsets[s];
    out.arrival_offsets[s + 1] += out.arrival_offsets[s];
  }

  // Scatter pass: one write cursor per server walks its block; time order
  // within a block follows trace order.
  out.times.resize(trace.size());
  out.pages.resize(trace.size());
  out.flags.resize(trace.size());
  out.arrivals.resize(out.arrival_offsets[server_count]);
  std::vector<std::size_t> event_cursor(out.event_offsets.begin(),
                                        out.event_offsets.end() - 1);
  std::vector<std::size_t> arrival_cursor(out.arrival_offsets.begin(),
                                          out.arrival_offsets.end() - 1);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint32_t s = routes[i];
    const std::size_t at = event_cursor[s]++;
    out.times[at] = trace.times[i];
    out.pages[at] = trace.pages[i];
    out.flags[at] = trace.flags[i];
    if ((trace.flags[i] & workload::kTraceFlagStart) != 0) {
      out.arrivals[arrival_cursor[s]++] = trace.times[i];
    }
  }
  return out;
}

ClusterEngine::ClusterEngine(
    const ClusterConfig& config, const workload::SynthesizerConfig& workload,
    const sim::PolicySpec& policy,
    std::shared_ptr<const workload::WorkloadModel> model)
    : config_(config),
      workload_(workload),
      policy_(policy),
      model_(std::move(model)) {
  config.validate();
}

ClusterMetrics ClusterEngine::run() {
  // Materialize the stream once (SoA lanes) and route request-granularly.
  // The model is let go here, before the trace-heavy routing and replay, so
  // a shared model's last job frees it as early as an unshared one would.
  std::shared_ptr<const workload::WorkloadModel> model =
      std::exchange(model_, nullptr);
  const workload::Trace trace = workload::synthesize_trace(
      workload_, model != nullptr ? std::move(model)
                                  : workload::build_model(workload_));
  const std::uint64_t total_pages = trace.total_pages;

  // Injected server crashes: outage windows are drawn per server from the
  // fault plan (deterministic in (seed, server index)) and the dead
  // server's requests fail over to survivors.
  const fault::FaultPlan& plan = config_.engine.fault;
  std::vector<OutageWindows> outages(config_.server_count);
  std::uint64_t crash_count = 0;
  if (plan.crashes_active()) {
    for (std::uint32_t s = 0; s < config_.server_count; ++s) {
      outages[s] = fault::crash_windows(plan, s, workload_.duration_s);
      crash_count += outages[s].size();
    }
  }
  std::uint64_t failed_over = 0;
  std::vector<std::uint32_t> routes;
  if (plan.crashes_active()) {
    FaultRouting fr = route_requests_with_faults(trace, config_, outages);
    routes = std::move(fr.routes);
    failed_over = fr.failed_over_requests;
  } else {
    routes = route_requests(trace, config_);
  }

  // Pack every server's events into the contiguous shard arena; the routed
  // AoS-per-server vectors this replaces cost one allocation per server and
  // scattered the fleet's state across the heap.
  const ShardLayout shards =
      build_shard_layout(trace, routes, config_.server_count);

  ClusterMetrics out;
  out.duration_s = workload_.duration_s - config_.engine.warm_up_s;
  out.servers.resize(config_.server_count);
  // Per-server telemetry streams, registered serially in server order so
  // the report is independent of how the fan-out below is scheduled.
  std::vector<telemetry::RunRecorder*> recorders;
  if (server_telemetry_ && telemetry::session_active()) {
    recorders.resize(config_.server_count, nullptr);
    for (std::uint32_t s = 0; s < config_.server_count; ++s) {
      recorders[s] = telemetry::begin_run("server" + std::to_string(s));
    }
  }
  // Per-server pipelines replay disjoint shard blocks and share nothing
  // mutable, so they fan out as stealable tasks (JPM_THREADS workers;
  // stealing absorbs stragglers like fault-heavy or hot-partition servers);
  // each task writes only its own ServerOutcome slot, so results never
  // depend on the schedule.
  util::parallel_for(config_.server_count, [&](std::size_t s) {
    ServerOutcome& server = out.servers[s];
    server.requests = shards.request_counts[s];
    const telemetry::ScopedRun scope(
        recorders.empty() ? nullptr : recorders[s]);
    const telemetry::SpanTimer span("server_pipeline",
                                    "server" + std::to_string(s));
    if (!recorders.empty() && recorders[s] != nullptr) {
      recorders[s]->counter("requests").add(shards.request_counts[s]);
      for (const auto& window : outages[s]) {
        TELEM_EVENT(kCluster, "server_crash", window.first,
                    {"server", static_cast<double>(s)},
                    {"restart_s", window.second});
      }
    }

    // Decorrelate per-server disk-fault streams: without this every
    // server's spindle 0 would replay the same failure sequence.
    sim::EngineConfig engine_cfg = config_.engine;
    if (engine_cfg.fault.disk_faults_active()) {
      engine_cfg.fault.seed = fault::stream_seed(
          plan.seed, 0x2000000ull + static_cast<std::uint64_t>(s));
    }

    // Replay the server's shard block zero-copy through the push-mode
    // engine (bit-identical to a materialized replay of the same events).
    sim::LiveSource source;
    source.page_bytes = workload_.page_bytes;
    source.total_pages = total_pages;
    source.duration_hint_s = workload_.duration_s;
    sim::Engine engine(source, policy_, engine_cfg);
    const std::size_t begin = shards.event_offsets[s];
    const std::size_t count = shards.events_of(static_cast<std::uint32_t>(s));
    if (count == 0) {
      // Never touched: the pipeline idles the whole run. Account it with a
      // single synthetic request-start at t=0, exactly like the replay path
      // always has.
      const double t0 = 0.0;
      const std::uint64_t page0 = 0;
      const std::uint8_t start = workload::kTraceFlagStart;
      engine.push_chunk(&t0, &page0, &start, 1);
    } else {
      engine.push_chunk(shards.times.data() + begin,
                        shards.pages.data() + begin,
                        shards.flags.data() + begin, count);
    }
    server.metrics = engine.finish(workload_.duration_s);

    const double* arrivals = shards.arrivals.data() + shards.arrival_offsets[s];
    const std::size_t n_arrivals =
        shards.arrival_offsets[s + 1] - shards.arrival_offsets[s];
    const auto usage =
        plan.crashes_active()
            ? chassis_usage(arrivals, n_arrivals, workload_.duration_s,
                            config_.server_off_idle_s, outages[s])
            : chassis_usage(arrivals, n_arrivals, workload_.duration_s,
                            config_.server_off_idle_s);
    server.chassis_on_s = usage.on_s;
    server.power_cycles = usage.power_cycles;
    server.chassis_energy_j =
        config_.chassis_on_w * usage.on_s +
        config_.chassis_off_w * (workload_.duration_s - usage.on_s);
    if (!recorders.empty() && recorders[s] != nullptr) {
      recorders[s]->gauge("chassis_on_s").set(usage.on_s);
      recorders[s]->counter("power_cycles").add(usage.power_cycles);
    }
  });
  TELEM_EVENT(kCluster, "cluster_done", workload_.duration_s,
              {"servers", static_cast<double>(config_.server_count)},
              {"crashes", static_cast<double>(crash_count)},
              {"failed_over", static_cast<double>(failed_over)});

  // Reduce in fixed server order — aggregation stays byte-stable no matter
  // which worker finished which server first.
  for (const auto& s : out.servers) {
    out.reliability.merge(s.metrics.reliability);
  }
  out.reliability.server_crashes += crash_count;
  out.reliability.failed_over_requests += failed_over;
  return out;
}

std::vector<ClusterSweepPoint> run_cluster_sweep(
    const ClusterConfig& config,
    const std::vector<sim::SweepWorkload>& workloads,
    const std::vector<sim::PolicySpec>& roster,
    const std::function<void(const std::string&)>& progress) {
  config.validate();
  JPM_CHECK_MSG(!workloads.empty(), "cluster sweep has no workload points");
  JPM_CHECK_MSG(!roster.empty(), "cluster sweep has an empty policy roster");
  for (const auto& w : workloads) {
    JPM_CHECK_MSG(w.trace_path.empty(),
                  "cluster point [" << w.label << "]: cluster sweeps "
                  "synthesize every point and cannot replay trace file "
                  << w.trace_path);
  }
  const std::size_t n_points = workloads.size();
  const std::size_t n_policies = roster.size();
  TELEM_EVENT(kSweep, "cluster_sweep_begin", 0.0,
              {"points", static_cast<double>(n_points)},
              {"policies", static_cast<double>(n_policies)},
              {"servers", static_cast<double>(config.server_count)});

  std::vector<ClusterSweepPoint> points(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    points[i].label = workloads[i].label;
    points[i].workload = workloads[i].workload;
    points[i].outcomes.resize(n_policies);
    for (std::size_t j = 0; j < n_policies; ++j) {
      points[i].outcomes[j].spec = roster[j];
    }
  }

  // One telemetry run per (point, policy) job, registered serially in job
  // order before the fan-out (stream ids depend only on the sweep's shape).
  // Axis coordinates are stamped here; the per-server streams inside each
  // ClusterEngine are disabled (see set_server_telemetry).
  std::vector<telemetry::RunRecorder*> recorders;
  if (telemetry::session_active()) {
    recorders.resize(n_points * n_policies, nullptr);
    for (std::size_t i = 0; i < n_points; ++i) {
      for (std::size_t j = 0; j < n_policies; ++j) {
        telemetry::RunRecorder* rec =
            telemetry::begin_run(points[i].label + "/" + roster[j].name);
        for (const auto& [axis, value] : workloads[i].axes) {
          rec->gauge("axis/" + axis).set(value);
        }
        recorders[i * n_policies + j] = rec;
      }
    }
  }

  // Job t is (point t / n_policies, policy t % n_policies). Jobs run
  // model-major — all jobs of the first workload model, then the next — so
  // the stealing pool's contiguous slices keep each worker on few models and
  // every model is freed after its last job. Inside each job the cluster's
  // own per-server parallel_for hits the nested-parallelism guard and runs
  // inline, so a fleet sweep is parallel across jobs, serial within one.
  std::vector<workload::SynthesizerConfig> job_workloads;
  job_workloads.reserve(n_points * n_policies);
  for (std::size_t t = 0; t < n_points * n_policies; ++t) {
    job_workloads.push_back(workloads[t / n_policies].workload);
  }
  workload::SharedModels models(std::move(job_workloads));
  sim::OrderedProgress ordered(n_points * n_policies, progress);
  util::parallel_for(n_points * n_policies, [&](std::size_t k) {
    const std::size_t t = models.order()[k];
    const std::size_t i = t / n_policies;
    const std::size_t j = t % n_policies;
    ClusterSweepOutcome& outcome = points[i].outcomes[j];
    const telemetry::ScopedRun scope(
        recorders.empty() ? nullptr : recorders[t]);
    const telemetry::SpanTimer span(
        "cluster_point", points[i].label + "/" + roster[j].name);
    ClusterEngine engine(config, workloads[i].workload, roster[j],
                         models.acquire(t));
    engine.set_server_telemetry(false);
    outcome.metrics = engine.run();
    if (progress) {
      std::ostringstream os;
      os << "[" << points[i].label << "] " << roster[j].name << ": total "
         << outcome.metrics.total_j() / 1e3 << " kJ, balance "
         << outcome.metrics.balance_index();
      ordered.emit(t, os.str());
    }
  });
  TELEM_EVENT(kSweep, "cluster_sweep_end", 0.0,
              {"runs", static_cast<double>(n_points * n_policies)});
  return points;
}

}  // namespace jpm::cluster
