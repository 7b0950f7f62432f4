// jpm::spec — the declarative scenario layer.
//
// Every configuration struct in the system round-trips through JSON built on
// jpm/util/json: workload synthesizer, engine (joint constants, RDRAM and
// disk parameters, fault plan), policy specs and rosters, and the cluster
// extension — composed into one Scenario{workloads, roster, engine, output}
// that `jpm run` and the bench harnesses execute. Configs become data: a new
// (dataset, rate, popularity, policy, fault) point is a JSON edit, not a
// recompile.
//
// Contracts:
//   * Round-trip is byte-identical: serialize(parse(serialize(x))) ==
//     serialize(x). Checked-in scenarios/*.json are canonical, i.e. equal to
//     serialize(parse(file)) byte for byte, so goldens double as format
//     documentation. Serialization is deterministic (insertion-order objects,
//     shortest-round-trip numbers) and independent of JPM_THREADS.
//   * Errors name the offending JSON path: unknown keys, wrong types,
//     out-of-range values all throw SpecError with messages like
//     "$.engine.joint.disk.idle_w: expected number, got string".
//   * Parsing fills omitted keys from the C++ defaults; serialization always
//     emits the fully resolved form (`jpm print` shows defaults filled in).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "jpm/cluster/cluster.h"
#include "jpm/sim/engine.h"
#include "jpm/sim/runner.h"
#include "jpm/stream/stream_engine.h"
#include "jpm/util/json.h"

namespace jpm::spec {

// Parse/validation failure; the message starts with the JSON path of the
// offending value ("$" is the document root).
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& message)
      : std::runtime_error(message) {}
};

// Sweep-grid sugar: the cartesian product of named numeric axes over a base
// workload. `{"workloads": {"base": {...}, "grid": {"byte_rate": [2e6, 4e6],
// "seed": [1, 2, 3]}}}` declares 6 points; every axis name must be a
// workload key (unknown names fail by path, e.g. "$.workloads.grid.sed:
// unknown key"). The first declared axis varies slowest (outermost), and
// each point's label is its coordinates, "byte_rate=2000000,seed=1".
// Scenarios parsed from the grid form serialize back to it (canonical), and
// the expansion is deterministic, so one short file can declare a
// thousand-point fleet sweep.
struct WorkloadGrid {
  workload::SynthesizerConfig base;
  // Axis name -> values, in declaration order.
  std::vector<std::pair<std::string, std::vector<double>>> axes;
};

// One result table of a sweep run: rows = roster policies, columns = the
// workload points, cells = `metric` of each outcome (formatted exactly as
// the bench harnesses format it).
enum class Metric {
  kTotalPct,        // total energy, % of always-on
  kDiskPct,         // disk energy, % of always-on disk
  kMemoryPct,       // memory energy, % of always-on memory
  kMeanLatencyMs,   // mean request latency, ms
  kUtilizationPct,  // disk bandwidth utilization
  kLongLatencyPerS, // requests above the long-latency threshold, per second
  kDiskAccessesMillions,
  kTotalEnergyKj,
  kDiskEnergyKj,
  kMemoryEnergyKj,
  kDiskShutdowns,
  kHitPct,
};

struct TableSpec {
  std::string title;
  Metric metric = Metric::kTotalPct;
};

struct OutputSpec {
  // Printed before the sweep runs. The token "{measured_min}" expands to the
  // measured minutes (first workload duration minus engine warm-up), so one
  // header serves both full-scale and JPM_BENCH_FAST runs.
  std::string header;
  std::vector<TableSpec> tables;
};

// A complete declarative experiment. `cluster`, when present, carries the
// cluster-extension knobs; its engine is the scenario's engine (see
// cluster_config()). `stream`, when present, configures the push-mode
// daemon (`jpm serve`): ring capacity, overload policy, watermarks,
// watchdog — scenarios without it replay traces exactly as before.
struct Scenario {
  std::string name;         // short identifier ("fig7_dataset")
  std::string description;  // free text for humans
  std::vector<sim::SweepWorkload> workloads;
  // Set when `workloads` was declared as a sweep grid; `workloads` then
  // holds the expansion (expand_grid(*grid)) and serialization re-emits the
  // grid form, keeping grid scenarios canonical at any point count.
  std::optional<WorkloadGrid> grid;
  std::vector<sim::PolicySpec> roster;
  sim::EngineConfig engine;
  std::optional<cluster::ClusterConfig> cluster;
  std::optional<stream::StreamConfig> stream;
  OutputSpec output;
};

// ---- per-struct JSON round-trips -------------------------------------------
// from_json rejects unknown keys and wrong types with SpecError naming
// `path` + the key; omitted keys keep the struct's C++ default.

util::json::Value to_json(const workload::SynthesizerConfig& c);
workload::SynthesizerConfig workload_from_json(const util::json::Value& v,
                                               const std::string& path);

util::json::Value to_json(const mem::RdramParams& c);
mem::RdramParams rdram_from_json(const util::json::Value& v,
                                 const std::string& path);

util::json::Value to_json(const disk::DiskParams& c);
disk::DiskParams disk_from_json(const util::json::Value& v,
                                const std::string& path);

util::json::Value to_json(const core::JointConfig& c);
core::JointConfig joint_from_json(const util::json::Value& v,
                                  const std::string& path);

util::json::Value to_json(const fault::FaultPlan& c);
fault::FaultPlan fault_from_json(const util::json::Value& v,
                                 const std::string& path);

util::json::Value to_json(const sim::EngineConfig& c);
sim::EngineConfig engine_from_json(const util::json::Value& v,
                                   const std::string& path);

util::json::Value to_json(const sim::PolicySpec& c);
sim::PolicySpec policy_from_json(const util::json::Value& v,
                                 const std::string& path);

// Roster: an explicit array of policy objects, or the preset form
//   {"preset": "paper", "physical_bytes": ..., "fm_gib": [8, 16, ...]}
// which resolves to sim::paper_policies(...). Serialization always emits the
// resolved explicit array.
util::json::Value to_json(const std::vector<sim::PolicySpec>& roster);
std::vector<sim::PolicySpec> roster_from_json(const util::json::Value& v,
                                              const std::string& path);

// Cluster section: every ClusterConfig knob except the nested engine (the
// scenario's engine is the per-server engine; see cluster_config()).
util::json::Value to_json(const cluster::ClusterConfig& c);
cluster::ClusterConfig cluster_from_json(const util::json::Value& v,
                                         const std::string& path);

// Stream section: the jpm serve daemon's ring/overload/watchdog knobs.
util::json::Value to_json(const stream::StreamConfig& c);
stream::StreamConfig stream_from_json(const util::json::Value& v,
                                      const std::string& path);

// Workloads: an explicit array of {"label", "workload"} points, the sweep
// axis form {"base": {...}, "points": [{"label": ..., <overrides>}]} where
// each point overrides any subset of the base workload's keys, or the grid
// form {"base": {...}, "grid": {...}} (see WorkloadGrid; expanded on
// parse). Serialization emits the resolved explicit array — except grid
// scenarios, whose Scenario::grid re-serializes as the grid form.
util::json::Value to_json(const std::vector<sim::SweepWorkload>& points);
std::vector<sim::SweepWorkload> workloads_from_json(
    const util::json::Value& v, const std::string& path);

// Grid form round-trip and expansion. grid_from_json validates shape only
// (axes present, arrays of numbers); expand_grid applies each axis value
// through the workload binder, so unknown axis names and type/range
// mismatches fail with SpecError at `path`.grid.<axis>. The expansion is
// capped at 100000 points.
util::json::Value to_json(const WorkloadGrid& grid);
WorkloadGrid grid_from_json(const util::json::Value& v,
                            const std::string& path);
std::vector<sim::SweepWorkload> expand_grid(const WorkloadGrid& grid,
                                            const std::string& path);

// ---- scenario --------------------------------------------------------------

// Parses scenario JSON text. Throws SpecError on malformed JSON (byte
// offset), unknown keys, wrong types, or an unsupported version.
Scenario parse_scenario(const std::string& text);

// Deterministic, fully resolved serialization (2-space pretty print +
// trailing newline). serialize(parse(serialize(sc))) == serialize(sc).
std::string serialize_scenario(const Scenario& sc);

// Semantic validation with path-named errors: every workload point, the
// engine's disk/fault/joint geometry (against each workload's page size),
// every roster entry (joint halves must pair up; fixed sizes in range), and
// the cluster section when present.
void validate_scenario(const Scenario& sc);

// FNV-1a 64 content hash of the resolved serialization, as 16 hex digits.
// This is the provenance hash embedded in telemetry run reports.
std::uint64_t fnv1a64(std::string_view bytes);
std::string scenario_hash(const Scenario& sc);

// Reads and parses a scenario file; errors are prefixed with the file path.
Scenario load_scenario_file(const std::string& path);

// The cluster extension's full config: the scenario's cluster section with
// the scenario's engine as the per-server engine. JPM_CHECKs that the
// section is present.
cluster::ClusterConfig cluster_config(const Scenario& sc);

}  // namespace jpm::spec
