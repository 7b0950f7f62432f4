// Server-cluster extension (paper Sections II-B and VI): the joint method
// deployed across a cluster, combined with the request-distribution schemes
// the paper cites (Pinheiro et al.'s workload unbalancing, Rajamani &
// Lefurgy's request distribution).
//
// The cluster layer splits one request stream across servers at request
// granularity, runs each server's full memory+disk pipeline independently
// (replaying its sub-trace through the standard engine), and adds
// chassis-level power accounting: a server whose request stream goes quiet
// long enough can be switched off entirely — the cluster-scale analogue of
// the disk timeout.
//
// Distribution policies:
//   * kRoundRobin   — requests rotate across servers; every cache sees the
//                     whole working set (maximal duplication).
//   * kPartitioned  — content partitioning by on-disk extent; each server
//                     caches only its share (no duplication, load follows
//                     data popularity).
//   * kUnbalanced   — concentrate requests on the fewest servers that stay
//                     under a rate cap; surplus servers idle and power off.
//
// Fleet scale: one scenario may sweep hundreds of workload points over a
// 1000+ server cluster. Per-server event state lives in one contiguous
// structure-of-arrays shard arena (ShardLayout) allocated up front — no
// per-server vector<vector<...>> heap scatter — and servers execute as
// stealable tasks on the work-stealing pool. Every task writes only its own
// preallocated ServerOutcome slot and metrics reduce in fixed server order,
// so aggregates are byte-stable at any JPM_THREADS / JPM_SCHED.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "jpm/sim/engine.h"
#include "jpm/sim/runner.h"

namespace jpm::cluster {

enum class DistributionPolicy { kRoundRobin, kPartitioned, kUnbalanced };

struct ClusterConfig {
  std::uint32_t server_count = 2;
  DistributionPolicy distribution = DistributionPolicy::kPartitioned;
  // Per-server engine configuration (memory size, disk, joint constants).
  sim::EngineConfig engine;
  // Content-partition extent for kPartitioned, in pages.
  std::uint64_t partition_pages = 256;
  // kUnbalanced: per-server request-rate cap (requests/s over the EWMA
  // window) before spilling to the next server.
  double rate_cap_rps = 400.0;
  double rate_ewma_tau_s = 60.0;
  // Chassis power: consumed by a server that is on (fans, CPU idle, PSU),
  // on top of the memory and disk the engines account. Zero by default so
  // memory+disk comparisons match the single-server benches.
  double chassis_on_w = 0.0;
  double chassis_off_w = 0.0;
  // A server with no requests for this long powers off until its next
  // request (kUnbalanced-style consolidation makes such windows long).
  double server_off_idle_s = 600.0;
  double server_boot_s = 30.0;  // unavailable time on power-up

  // Rejects nonsensical cluster configurations (zero server_count, zero
  // partition_pages, negative powers/intervals) with a descriptive
  // std::invalid_argument. The nested engine config is validated by the
  // engines themselves.
  void validate() const;
};

struct ServerOutcome {
  sim::RunMetrics metrics;      // memory + disk pipeline results
  std::uint64_t requests = 0;   // requests routed to this server
  double chassis_on_s = 0.0;
  double chassis_energy_j = 0.0;
  std::uint64_t power_cycles = 0;
};

struct ClusterMetrics {
  std::vector<ServerOutcome> servers;
  double duration_s = 0.0;
  // Aggregated fault-injection outcome: per-server pipeline counters merged
  // with cluster-level crash and failover counts (all-zero without faults).
  fault::ReliabilityMetrics reliability;

  double pipeline_energy_j() const;  // sum of memory+disk energy
  double chassis_energy_j() const;
  double total_j() const { return pipeline_energy_j() + chassis_energy_j(); }
  std::uint64_t total_requests() const;
  double mean_latency_s() const;
  double long_latency_per_s() const;
  // Jain's fairness index over per-server request counts: 1 = perfectly
  // balanced, 1/n = fully concentrated.
  double balance_index() const;
};

// The cluster's per-server event state, packed into one contiguous SoA
// arena: server s owns the half-open slice
// [event_offsets[s], event_offsets[s+1]) of the times/pages/flags lanes and
// [arrival_offsets[s], arrival_offsets[s+1]) of the arrivals lane. Blocks
// are sized by a counting pass and filled by a single scatter pass, so the
// whole fleet's state is three allocations regardless of server count, each
// server's events are contiguous (cache- and prefetch-friendly for the
// engine's per-event loop), and a server task pushes its block zero-copy
// into the engine.
struct ShardLayout {
  std::vector<double> times;
  std::vector<std::uint64_t> pages;
  std::vector<std::uint8_t> flags;          // workload trace flag bits
  std::vector<std::size_t> event_offsets;   // server_count + 1 entries
  std::vector<double> arrivals;             // request start times (chassis)
  std::vector<std::size_t> arrival_offsets; // server_count + 1 entries
  std::vector<std::uint64_t> request_counts;

  std::uint32_t server_count() const {
    return event_offsets.empty()
               ? 0
               : static_cast<std::uint32_t>(event_offsets.size() - 1);
  }
  std::size_t events_of(std::uint32_t s) const {
    return event_offsets[s + 1] - event_offsets[s];
  }
};

// Builds the shard arena from a routed trace (exposed for testing). Events
// keep their time order within each server's block.
ShardLayout build_shard_layout(const workload::Trace& trace,
                               const std::vector<std::uint32_t>& routes,
                               std::uint32_t server_count);

class ClusterEngine {
 public:
  // `model`, when given, is the workload's shared model (see
  // workload::WorkloadModel); without one, run() builds its own.
  ClusterEngine(const ClusterConfig& config,
                const workload::SynthesizerConfig& workload,
                const sim::PolicySpec& policy,
                std::shared_ptr<const workload::WorkloadModel> model = {});

  // Per-server telemetry runs ("server0", ...) register by default. A sweep
  // driver that already owns one telemetry run per (point, policy) job turns
  // them off: a 500-point × 1000-server grid would otherwise register half a
  // million streams, from inside the fan-out, in schedule-dependent order.
  void set_server_telemetry(bool enabled) { server_telemetry_ = enabled; }

  // Splits the workload, replays every server, and aggregates.
  ClusterMetrics run();

 private:
  ClusterConfig config_;
  workload::SynthesizerConfig workload_;
  sim::PolicySpec policy_;
  std::shared_ptr<const workload::WorkloadModel> model_;
  bool server_telemetry_ = true;
};

// One policy's cluster result at one sweep point.
struct ClusterSweepOutcome {
  sim::PolicySpec spec;
  ClusterMetrics metrics;
};

struct ClusterSweepPoint {
  std::string label;
  workload::SynthesizerConfig workload;
  std::vector<ClusterSweepOutcome> outcomes;  // roster order
};

// Runs every roster policy's ClusterEngine at every workload point. Jobs
// fan out as stealable tasks; each cluster's inner per-server loop then runs
// inline on its worker (nested-parallelism guard), so fleet sweeps
// parallelize across points without oversubscribing. Points that share a
// workload model (workload::SharedModels) share one popularity solve: jobs
// run model-major and each model is freed after its last job. Results sit in
// preallocated slots and `progress` lines are emitted in canonical job order
// (point-major, roster order), so output is bit-identical at any
// JPM_THREADS / JPM_SCHED. Unlike sim::run_sweep there is no
// always-on-baseline requirement (cluster metrics are absolute, not
// normalized). Axis coordinates on the workloads surface as `axis/<name>`
// gauges on each job's telemetry run.
std::vector<ClusterSweepPoint> run_cluster_sweep(
    const ClusterConfig& config,
    const std::vector<sim::SweepWorkload>& workloads,
    const std::vector<sim::PolicySpec>& roster,
    const std::function<void(const std::string&)>& progress = {});

// Routing decision sequence for a request stream. The Trace overload is the
// primary (reads the SoA lanes directly); the AoS form converts and
// forwards (exposed for testing and interop).
std::vector<std::uint32_t> route_requests(const workload::Trace& trace,
                                          const ClusterConfig& cfg);
std::vector<std::uint32_t> route_requests(
    const std::vector<workload::TraceEvent>& trace, const ClusterConfig& cfg);

// Per-server crash outage windows, sorted and disjoint.
using OutageWindows = std::vector<std::pair<double, double>>;

// Fault-aware routing: requests whose home server is inside an outage
// window re-route to the next surviving server in ring order (with every
// server down the home server keeps the request). Continuations follow
// their request's route — connections opened before a crash drain on the
// original server. Exposed for testing.
struct FaultRouting {
  std::vector<std::uint32_t> routes;
  std::uint64_t failed_over_requests = 0;
};
FaultRouting route_requests_with_faults(const workload::Trace& trace,
                                        const ClusterConfig& cfg,
                                        const std::vector<OutageWindows>& outages);
FaultRouting route_requests_with_faults(
    const std::vector<workload::TraceEvent>& trace, const ClusterConfig& cfg,
    const std::vector<OutageWindows>& outages);

// Chassis on/off accounting over one server's request arrival times. The
// pointer form reads an arrival slice straight out of the shard arena; the
// vector overloads forward to it.
struct ChassisUsage {
  double on_s = 0.0;
  std::uint64_t power_cycles = 0;
};
ChassisUsage chassis_usage(const double* request_times_s, std::size_t n,
                           double duration_s, double off_idle_s);
ChassisUsage chassis_usage(const std::vector<double>& request_times_s,
                           double duration_s, double off_idle_s);
// Outage-aware overload: a crash forces the chassis off for the window
// (one forced power cycle); the server restarts — and is back on — at the
// window's end.
ChassisUsage chassis_usage(const double* request_times_s, std::size_t n,
                           double duration_s, double off_idle_s,
                           const OutageWindows& outages);
ChassisUsage chassis_usage(const std::vector<double>& request_times_s,
                           double duration_s, double off_idle_s,
                           const OutageWindows& outages);

}  // namespace jpm::cluster
