#include "jpm/spec/spec.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "jpm/sim/policies.h"
#include "jpm/util/check.h"
#include "jpm/util/hash.h"

namespace jpm::spec {
namespace {

using util::json::Array;
using util::json::Object;
using util::json::Value;

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw SpecError(path + ": " + why);
}

std::string type_error(const char* expected, const Value& v) {
  return std::string("expected ") + expected + ", got " +
         Value::kind_name(v.kind());
}

// Enum <-> string tables. The reader's error message lists every name.
template <typename E>
struct EnumName {
  const char* name;
  E value;
};

constexpr EnumName<sim::DiskPolicyKind> kDiskPolicyNames[] = {
    {"two_competitive", sim::DiskPolicyKind::kTwoCompetitive},
    {"adaptive", sim::DiskPolicyKind::kAdaptive},
    {"predictive", sim::DiskPolicyKind::kPredictive},
    {"always_on", sim::DiskPolicyKind::kAlwaysOn},
    {"joint", sim::DiskPolicyKind::kJoint},
};
constexpr EnumName<sim::MemPolicyKind> kMemPolicyNames[] = {
    {"fixed", sim::MemPolicyKind::kFixed},
    {"power_down", sim::MemPolicyKind::kPowerDown},
    {"disable", sim::MemPolicyKind::kDisable},
    {"nap_all", sim::MemPolicyKind::kNapAll},
    {"joint", sim::MemPolicyKind::kJoint},
};
constexpr EnumName<core::AlphaEstimator> kAlphaEstimatorNames[] = {
    {"moment", core::AlphaEstimator::kMoment},
    {"mle", core::AlphaEstimator::kMle},
};
constexpr EnumName<core::TimeoutRule> kTimeoutRuleNames[] = {
    {"pareto", core::TimeoutRule::kPareto},
    {"exponential", core::TimeoutRule::kExponential},
    {"two_competitive", core::TimeoutRule::kTwoCompetitive},
};
constexpr EnumName<cluster::DistributionPolicy> kDistributionNames[] = {
    {"round_robin", cluster::DistributionPolicy::kRoundRobin},
    {"partitioned", cluster::DistributionPolicy::kPartitioned},
    {"unbalanced", cluster::DistributionPolicy::kUnbalanced},
};
constexpr EnumName<stream::OverloadPolicy> kOverloadPolicyNames[] = {
    {"block", stream::OverloadPolicy::kBlock},
    {"shed", stream::OverloadPolicy::kShed},
    {"degrade", stream::OverloadPolicy::kDegrade},
};
constexpr EnumName<Metric> kMetricNames[] = {
    {"total_pct", Metric::kTotalPct},
    {"disk_pct", Metric::kDiskPct},
    {"memory_pct", Metric::kMemoryPct},
    {"mean_latency_ms", Metric::kMeanLatencyMs},
    {"utilization_pct", Metric::kUtilizationPct},
    {"long_latency_per_s", Metric::kLongLatencyPerS},
    {"disk_accesses_millions", Metric::kDiskAccessesMillions},
    {"total_energy_kj", Metric::kTotalEnergyKj},
    {"disk_energy_kj", Metric::kDiskEnergyKj},
    {"memory_energy_kj", Metric::kMemoryEnergyKj},
    {"disk_shutdowns", Metric::kDiskShutdowns},
    {"hit_pct", Metric::kHitPct},
};

template <typename E, std::size_t N>
const char* enum_to_name(E value, const EnumName<E> (&names)[N]) {
  for (const auto& n : names) {
    if (n.value == value) return n.name;
  }
  JPM_CHECK_MSG(false, "enum value has no spec name");
  return "";
}

template <typename E, std::size_t N>
E enum_from_name(const std::string& s, const EnumName<E> (&names)[N],
                 const std::string& path) {
  for (const auto& n : names) {
    if (s == n.name) return n.value;
  }
  std::ostringstream os;
  os << "unknown value \"" << s << "\" (expected one of ";
  for (std::size_t i = 0; i < N; ++i) os << (i ? ", " : "") << names[i].name;
  os << ")";
  fail(path, os.str());
}

// ---- reader ----------------------------------------------------------------
// Wraps one JSON object; field() fills struct members from keys (omitted
// keys keep the default already in the member), tracks every key it was
// asked about, and finish() rejects leftovers by path.

class ObjectReader {
 public:
  ObjectReader(const Value& v, std::string path) : path_(std::move(path)) {
    if (!v.is_object()) fail(path_, type_error("object", v));
    obj_ = &v.as_object();
  }

  const std::string& path() const { return path_; }
  std::string key_path(const char* key) const { return path_ + "." + key; }

  // Marks `key` consumed and returns its value, or nullptr when absent.
  const Value* child(const char* key) {
    seen_.push_back(key);
    return obj_->find(key);
  }

  void field(const char* key, double* out) {
    if (const Value* v = child(key)) {
      if (!v->is_number()) fail(key_path(key), type_error("number", *v));
      *out = v->as_number();
    }
  }

  void field(const char* key, bool* out) {
    if (const Value* v = child(key)) {
      if (!v->is_bool()) fail(key_path(key), type_error("boolean", *v));
      *out = v->as_bool();
    }
  }

  void field(const char* key, std::string* out) {
    if (const Value* v = child(key)) {
      if (!v->is_string()) fail(key_path(key), type_error("string", *v));
      *out = v->as_string();
    }
  }

  void field(const char* key, std::uint64_t* out) {
    if (const Value* v = child(key)) *out = read_integer(*v, key_path(key));
  }

  void field(const char* key, std::uint32_t* out) {
    if (const Value* v = child(key)) {
      const std::uint64_t n = read_integer(*v, key_path(key));
      if (n > 0xffffffffull) fail(key_path(key), "value out of 32-bit range");
      *out = static_cast<std::uint32_t>(n);
    }
  }

  template <typename E, std::size_t N>
  void enum_field(const char* key, E* out, const EnumName<E> (&names)[N]) {
    if (const Value* v = child(key)) {
      if (!v->is_string()) fail(key_path(key), type_error("string", *v));
      *out = enum_from_name(v->as_string(), names, key_path(key));
    }
  }

  template <typename T, typename BindFn>
  void object_field(const char* key, T* out, BindFn bind) {
    if (const Value* v = child(key)) {
      ObjectReader r(*v, key_path(key));
      bind(r, *out);
      r.finish();
    }
  }

  // Every key the binder never asked about is unknown — reject it so typos
  // fail loudly instead of silently running the default.
  void finish() const {
    for (const auto& [key, value] : obj_->entries()) {
      (void)value;
      if (std::find(seen_.begin(), seen_.end(), key) == seen_.end()) {
        fail(path_ + "." + key, "unknown key");
      }
    }
  }

 private:
  static std::uint64_t read_integer(const Value& v, const std::string& path) {
    if (!v.is_number()) fail(path, type_error("number", v));
    const double d = v.as_number();
    if (!(d >= 0.0) || d != std::floor(d) || d > 9.007199254740992e15) {
      fail(path, "expected a nonnegative integer, got " +
                     util::json::format_number(d));
    }
    return static_cast<std::uint64_t>(d);
  }

  const Object* obj_ = nullptr;
  std::string path_;
  std::vector<std::string> seen_;
};

// ---- writer ----------------------------------------------------------------
// Mirrors ObjectReader's interface so one bind functor per struct defines
// both directions; fields serialize in bind order (deterministic).

class ObjectWriter {
 public:
  const std::string& path() const { return path_; }

  void field(const char* key, const double* v) { obj_[key] = Value{*v}; }
  void field(const char* key, const bool* v) { obj_[key] = Value{*v}; }
  void field(const char* key, const std::string* v) { obj_[key] = Value{*v}; }
  void field(const char* key, const std::uint64_t* v) { obj_[key] = Value{*v}; }
  void field(const char* key, const std::uint32_t* v) {
    obj_[key] = Value{static_cast<std::uint64_t>(*v)};
  }

  template <typename E, std::size_t N>
  void enum_field(const char* key, const E* v, const EnumName<E> (&names)[N]) {
    obj_[key] = Value{enum_to_name(*v, names)};
  }

  template <typename T, typename BindFn>
  void object_field(const char* key, const T* v, BindFn bind) {
    ObjectWriter w;
    bind(w, const_cast<T&>(*v));
    obj_[key] = w.take();
  }

  Value take() { return Value{std::move(obj_)}; }

 private:
  Object obj_;
  std::string path_;
};

// The writer never mutates; it only reads through the non-const references
// the shared bind functors require. One bind functor per struct keeps the
// reader and writer field sets identical by construction.

struct BindWorkload {
  template <typename B>
  void operator()(B& b, workload::SynthesizerConfig& c) const {
    b.field("dataset_bytes", &c.dataset_bytes);
    b.field("byte_rate", &c.byte_rate);
    b.field("popularity", &c.popularity);
    b.field("duration_s", &c.duration_s);
    b.field("page_bytes", &c.page_bytes);
    b.field("file_scale", &c.file_scale);
    b.field("rate_modulation", &c.rate_modulation);
    b.field("modulation_period_s", &c.modulation_period_s);
    b.field("intra_request_spacing_s", &c.intra_request_spacing_s);
    b.field("temporal_locality", &c.temporal_locality);
    b.field("write_fraction", &c.write_fraction);
    bind_size_t(b, "locality_window", &c.locality_window);
    b.field("seed", &c.seed);
  }

  // std::size_t aliases std::uint64_t on LP64; keep one explicit bridge so
  // the field set stays written out even if the alias ever changes.
  template <typename B>
  static void bind_size_t(B& b, const char* key, std::size_t* v) {
    static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));
    b.field(key, reinterpret_cast<std::uint64_t*>(v));
  }
};

struct BindRdram {
  template <typename B>
  void operator()(B& b, mem::RdramParams& c) const {
    b.field("bank_bytes", &c.bank_bytes);
    b.field("nap_mw_per_mb", &c.nap_mw_per_mb);
    b.field("dynamic_mj_per_mb", &c.dynamic_mj_per_mb);
    b.field("powerdown_fraction", &c.powerdown_fraction);
    b.field("powerdown_timeout_s", &c.powerdown_timeout_s);
    b.field("disable_timeout_s", &c.disable_timeout_s);
  }
};

struct BindDisk {
  template <typename B>
  void operator()(B& b, disk::DiskParams& c) const {
    b.field("active_w", &c.active_w);
    b.field("idle_w", &c.idle_w);
    b.field("standby_w", &c.standby_w);
    b.field("transition_j", &c.transition_j);
    b.field("spin_up_s", &c.spin_up_s);
    b.field("avg_seek_s", &c.avg_seek_s);
    b.field("avg_rotation_s", &c.avg_rotation_s);
    b.field("media_rate_bytes_per_s", &c.media_rate_bytes_per_s);
  }
};

struct BindJoint {
  template <typename B>
  void operator()(B& b, core::JointConfig& c) const {
    b.field("period_s", &c.period_s);
    b.field("window_s", &c.window_s);
    b.field("util_limit", &c.util_limit);
    b.field("delay_limit", &c.delay_limit);
    b.field("page_bytes", &c.page_bytes);
    b.field("unit_bytes", &c.unit_bytes);
    b.field("physical_bytes", &c.physical_bytes);
    b.enum_field("alpha_estimator", &c.alpha_estimator, kAlphaEstimatorNames);
    b.enum_field("timeout_rule", &c.timeout_rule, kTimeoutRuleNames);
    b.object_field("mem", &c.mem, BindRdram{});
    b.object_field("disk", &c.disk, BindDisk{});
  }
};

struct BindGuard {
  template <typename B>
  void operator()(B& b, fault::ManagerGuardConfig& c) const {
    b.field("enabled", &c.enabled);
    b.field("backoff_factor", &c.backoff_factor);
    b.field("relax_factor", &c.relax_factor);
    b.field("max_scale", &c.max_scale);
  }
};

struct BindFault {
  template <typename B>
  void operator()(B& b, fault::FaultPlan& c) const {
    b.field("enabled", &c.enabled);
    b.field("seed", &c.seed);
    b.field("p_spinup_fail", &c.p_spinup_fail);
    b.field("spinup_degrade_after", &c.spinup_degrade_after);
    b.field("spinup_backoff_s", &c.spinup_backoff_s);
    b.field("spinup_backoff_max_s", &c.spinup_backoff_max_s);
    b.field("degraded_service_factor", &c.degraded_service_factor);
    b.object_field("guard", &c.guard, BindGuard{});
    b.field("server_mtbf_s", &c.server_mtbf_s);
    b.field("server_outage_s", &c.server_outage_s);
  }
};

struct BindEngine {
  template <typename B>
  void operator()(B& b, sim::EngineConfig& c) const {
    b.object_field("joint", &c.joint, BindJoint{});
    b.field("disk_count", &c.disk_count);
    b.field("stripe_bytes", &c.stripe_bytes);
    b.field("long_latency_threshold_s", &c.long_latency_threshold_s);
    b.field("record_periods", &c.record_periods);
    b.field("prefill_cache", &c.prefill_cache);
    b.field("warm_up_s", &c.warm_up_s);
    b.field("flush_interval_s", &c.flush_interval_s);
    b.field("readahead_pages", &c.readahead_pages);
    b.object_field("fault", &c.fault, BindFault{});
  }
};

struct BindPolicy {
  template <typename B>
  void operator()(B& b, sim::PolicySpec& c) const {
    b.field("name", &c.name);
    b.enum_field("disk", &c.disk, kDiskPolicyNames);
    b.enum_field("mem", &c.mem, kMemPolicyNames);
    b.field("fixed_bytes", &c.fixed_bytes);
    b.field("multi_speed", &c.multi_speed);
  }
};

struct BindCluster {
  template <typename B>
  void operator()(B& b, cluster::ClusterConfig& c) const {
    b.field("server_count", &c.server_count);
    b.enum_field("distribution", &c.distribution, kDistributionNames);
    b.field("partition_pages", &c.partition_pages);
    b.field("rate_cap_rps", &c.rate_cap_rps);
    b.field("rate_ewma_tau_s", &c.rate_ewma_tau_s);
    b.field("chassis_on_w", &c.chassis_on_w);
    b.field("chassis_off_w", &c.chassis_off_w);
    b.field("server_off_idle_s", &c.server_off_idle_s);
    b.field("server_boot_s", &c.server_boot_s);
  }
};

struct BindStream {
  template <typename B>
  void operator()(B& b, stream::StreamConfig& c) const {
    b.field("ring_capacity", &c.ring_capacity);
    b.enum_field("overload", &c.overload, kOverloadPolicyNames);
    b.field("high_watermark", &c.high_watermark);
    b.field("low_watermark", &c.low_watermark);
    b.field("block_timeout_s", &c.block_timeout_s);
    b.field("watchdog_timeout_s", &c.watchdog_timeout_s);
    b.field("max_batch", &c.max_batch);
  }
};

struct BindTable {
  template <typename B>
  void operator()(B& b, TableSpec& c) const {
    b.field("title", &c.title);
    b.enum_field("metric", &c.metric, kMetricNames);
  }
};

template <typename T, typename BindFn>
Value struct_to_json(const T& c, BindFn bind) {
  ObjectWriter w;
  bind(w, const_cast<T&>(c));
  return w.take();
}

template <typename T, typename BindFn>
T struct_from_json(const Value& v, const std::string& path, BindFn bind,
                   T defaults = T{}) {
  ObjectReader r(v, path);
  bind(r, defaults);
  r.finish();
  return defaults;
}

std::string require_label(ObjectReader& r) {
  const Value* v = r.child("label");
  if (v == nullptr) fail(r.path(), "missing required key \"label\"");
  if (!v->is_string()) {
    fail(r.key_path("label"), type_error("string", *v));
  }
  return v->as_string();
}

// Re-throws a component validate()'s std::invalid_argument with the JSON
// path prepended, preserving the knob-naming message.
template <typename Fn>
void validate_at(const std::string& path, Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    fail(path, e.what());
  }
}

}  // namespace

// ---- per-struct entry points ----------------------------------------------

Value to_json(const workload::SynthesizerConfig& c) {
  return struct_to_json(c, BindWorkload{});
}
workload::SynthesizerConfig workload_from_json(const Value& v,
                                               const std::string& path) {
  return struct_from_json<workload::SynthesizerConfig>(v, path,
                                                       BindWorkload{});
}

Value to_json(const mem::RdramParams& c) {
  return struct_to_json(c, BindRdram{});
}
mem::RdramParams rdram_from_json(const Value& v, const std::string& path) {
  return struct_from_json<mem::RdramParams>(v, path, BindRdram{});
}

Value to_json(const disk::DiskParams& c) { return struct_to_json(c, BindDisk{}); }
disk::DiskParams disk_from_json(const Value& v, const std::string& path) {
  return struct_from_json<disk::DiskParams>(v, path, BindDisk{});
}

Value to_json(const core::JointConfig& c) {
  return struct_to_json(c, BindJoint{});
}
core::JointConfig joint_from_json(const Value& v, const std::string& path) {
  return struct_from_json<core::JointConfig>(v, path, BindJoint{});
}

Value to_json(const fault::FaultPlan& c) {
  return struct_to_json(c, BindFault{});
}
fault::FaultPlan fault_from_json(const Value& v, const std::string& path) {
  return struct_from_json<fault::FaultPlan>(v, path, BindFault{});
}

Value to_json(const sim::EngineConfig& c) {
  return struct_to_json(c, BindEngine{});
}
sim::EngineConfig engine_from_json(const Value& v, const std::string& path) {
  return struct_from_json<sim::EngineConfig>(v, path, BindEngine{});
}

Value to_json(const sim::PolicySpec& c) {
  return struct_to_json(c, BindPolicy{});
}
sim::PolicySpec policy_from_json(const Value& v, const std::string& path) {
  return struct_from_json<sim::PolicySpec>(v, path, BindPolicy{});
}

Value to_json(const cluster::ClusterConfig& c) {
  return struct_to_json(c, BindCluster{});
}
cluster::ClusterConfig cluster_from_json(const Value& v,
                                         const std::string& path) {
  return struct_from_json<cluster::ClusterConfig>(v, path, BindCluster{});
}

Value to_json(const stream::StreamConfig& c) {
  return struct_to_json(c, BindStream{});
}
stream::StreamConfig stream_from_json(const Value& v,
                                      const std::string& path) {
  return struct_from_json<stream::StreamConfig>(v, path, BindStream{});
}

Value to_json(const std::vector<sim::PolicySpec>& roster) {
  Array a;
  for (const auto& p : roster) a.push_back(to_json(p));
  return Value{std::move(a)};
}

std::vector<sim::PolicySpec> roster_from_json(const Value& v,
                                              const std::string& path) {
  std::vector<sim::PolicySpec> roster;
  if (v.is_array()) {
    const auto& a = v.as_array();
    roster.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      roster.push_back(
          policy_from_json(a[i], path + "[" + std::to_string(i) + "]"));
    }
    return roster;
  }
  if (!v.is_object()) fail(path, type_error("array or preset object", v));

  ObjectReader r(v, path);
  const Value* preset = r.child("preset");
  if (preset == nullptr) fail(path, "missing required key \"preset\"");
  if (!preset->is_string()) {
    fail(path + ".preset", type_error("string", *preset));
  }
  if (preset->as_string() != "paper") {
    fail(path + ".preset", "unknown value \"" + preset->as_string() +
                               "\" (expected one of paper)");
  }
  std::uint64_t physical_bytes = 128 * kGiB;
  r.field("physical_bytes", &physical_bytes);
  std::vector<std::uint64_t> fm_gib{8, 16, 32, 64, 128};
  if (const Value* fm = r.child("fm_gib")) {
    if (!fm->is_array()) fail(path + ".fm_gib", type_error("array", *fm));
    fm_gib.clear();
    const auto& a = fm->as_array();
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::string p = path + ".fm_gib[" + std::to_string(i) + "]";
      if (!a[i].is_number() || a[i].as_number() <= 0.0 ||
          a[i].as_number() != std::floor(a[i].as_number())) {
        fail(p, "expected a positive integer (GiB)");
      }
      fm_gib.push_back(static_cast<std::uint64_t>(a[i].as_number()));
    }
  }
  r.finish();
  return sim::paper_policies(physical_bytes, fm_gib);
}

namespace {

// The "trace": {"path": ...} event source of a workload point. An object
// (not a bare string) so future knobs (e.g. a window override) stay
// backward compatible.
std::string trace_source_from_json(const Value& v, const std::string& path) {
  ObjectReader r(v, path);
  std::string trace_path;
  r.field("path", &trace_path);
  r.finish();
  if (trace_path.empty()) {
    fail(path + ".path", "trace path must not be empty");
  }
  return trace_path;
}

}  // namespace

Value to_json(const std::vector<sim::SweepWorkload>& points) {
  Array a;
  for (const auto& p : points) {
    Object o;
    o["label"] = Value{p.label};
    o["workload"] = to_json(p.workload);
    if (!p.trace_path.empty()) {
      Object t;
      t["path"] = Value{p.trace_path};
      o["trace"] = Value{std::move(t)};
    }
    a.push_back(Value{std::move(o)});
  }
  return Value{std::move(a)};
}

Value to_json(const WorkloadGrid& grid) {
  Object o;
  o["base"] = to_json(grid.base);
  Object axes;
  for (const auto& [axis, values] : grid.axes) {
    Array a;
    for (const double value : values) a.push_back(Value{value});
    axes[axis] = Value{std::move(a)};
  }
  o["grid"] = Value{std::move(axes)};
  return Value{std::move(o)};
}

WorkloadGrid grid_from_json(const Value& v, const std::string& path) {
  ObjectReader r(v, path);
  WorkloadGrid grid;
  if (const Value* b = r.child("base")) {
    grid.base = workload_from_json(*b, path + ".base");
  }
  const Value* g = r.child("grid");
  if (g == nullptr) fail(path, "missing required key \"grid\"");
  if (!g->is_object()) fail(path + ".grid", type_error("object", *g));
  r.finish();
  for (const auto& [axis, values] : g->as_object().entries()) {
    const std::string p = path + ".grid." + axis;
    if (!values.is_array()) fail(p, type_error("array", values));
    const auto& a = values.as_array();
    if (a.empty()) fail(p, "axis needs at least one value");
    std::vector<double> parsed;
    parsed.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!a[i].is_number()) {
        fail(p + "[" + std::to_string(i) + "]", type_error("number", a[i]));
      }
      parsed.push_back(a[i].as_number());
    }
    grid.axes.emplace_back(axis, std::move(parsed));
  }
  if (grid.axes.empty()) fail(path + ".grid", "grid needs at least one axis");
  return grid;
}

namespace {

// Fleet sweeps are meant to be large, but a typo'd grid should not OOM the
// process before validation can complain.
constexpr std::size_t kGridPointCap = 100000;

}  // namespace

std::vector<sim::SweepWorkload> expand_grid(const WorkloadGrid& grid,
                                            const std::string& path) {
  if (grid.axes.empty()) fail(path + ".grid", "grid needs at least one axis");
  std::size_t total = 1;
  for (const auto& [axis, values] : grid.axes) {
    if (values.empty()) {
      fail(path + ".grid." + axis, "axis needs at least one value");
    }
    if (total > kGridPointCap / values.size()) {
      fail(path + ".grid", "grid expands past the " +
                               std::to_string(kGridPointCap) + "-point cap");
    }
    total *= values.size();
  }

  // Odometer over the axes: the last axis varies fastest, so the first
  // declared axis is the outermost loop of the cartesian product.
  std::vector<sim::SweepWorkload> points;
  points.reserve(total);
  std::vector<std::size_t> idx(grid.axes.size(), 0);
  for (std::size_t n = 0; n < total; ++n) {
    sim::SweepWorkload point;
    point.workload = grid.base;
    std::string label;
    for (std::size_t a = 0; a < grid.axes.size(); ++a) {
      const auto& [axis, values] = grid.axes[a];
      const double value = values[idx[a]];
      // Route the coordinate through the workload binder as a one-key
      // object: unknown axis names and type mismatches (e.g. a fractional
      // seed) fail with the binder's path-named SpecError.
      Object o;
      o[axis] = Value{value};
      const Value wrapped{std::move(o)};
      ObjectReader r(wrapped, path + ".grid");
      BindWorkload{}(r, point.workload);
      r.finish();
      point.axes.emplace_back(axis, value);
      if (a != 0) label += ",";
      label += axis + "=" + util::json::format_number(value);
    }
    point.label = std::move(label);
    points.push_back(std::move(point));
    for (std::size_t a = grid.axes.size(); a-- > 0;) {
      if (++idx[a] < grid.axes[a].second.size()) break;
      idx[a] = 0;
    }
  }
  return points;
}

std::vector<sim::SweepWorkload> workloads_from_json(const Value& v,
                                                    const std::string& path) {
  std::vector<sim::SweepWorkload> points;
  if (v.is_array()) {
    const auto& a = v.as_array();
    points.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::string p = path + "[" + std::to_string(i) + "]";
      ObjectReader r(a[i], p);
      sim::SweepWorkload point;
      point.label = require_label(r);
      if (const Value* w = r.child("workload")) {
        point.workload = workload_from_json(*w, p + ".workload");
      }
      if (const Value* t = r.child("trace")) {
        point.trace_path = trace_source_from_json(*t, p + ".trace");
      }
      r.finish();
      points.push_back(std::move(point));
    }
    return points;
  }
  if (!v.is_object()) fail(path, type_error("array or sweep object", v));
  if (v.as_object().find("grid") != nullptr) {
    if (v.as_object().find("points") != nullptr) {
      fail(path, "\"points\" and \"grid\" are mutually exclusive");
    }
    return expand_grid(grid_from_json(v, path), path);
  }

  // Sweep-axis form: base workload + per-point overrides.
  ObjectReader r(v, path);
  workload::SynthesizerConfig base;
  if (const Value* b = r.child("base")) {
    base = workload_from_json(*b, path + ".base");
  }
  const Value* pts = r.child("points");
  if (pts == nullptr) fail(path, "missing required key \"points\"");
  if (!pts->is_array()) fail(path + ".points", type_error("array", *pts));
  r.finish();
  const auto& a = pts->as_array();
  points.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string p = path + ".points[" + std::to_string(i) + "]";
    ObjectReader pr(a[i], p);
    sim::SweepWorkload point;
    point.label = require_label(pr);
    point.workload = base;
    BindWorkload{}(pr, point.workload);  // overrides any subset of keys
    if (const Value* t = pr.child("trace")) {
      point.trace_path = trace_source_from_json(*t, p + ".trace");
    }
    pr.finish();
    points.push_back(std::move(point));
  }
  return points;
}

// ---- scenario --------------------------------------------------------------

namespace {

OutputSpec output_from_json(const Value& v, const std::string& path) {
  OutputSpec out;
  ObjectReader r(v, path);
  r.field("header", &out.header);
  if (const Value* tables = r.child("tables")) {
    if (!tables->is_array()) {
      fail(path + ".tables", type_error("array", *tables));
    }
    const auto& a = tables->as_array();
    for (std::size_t i = 0; i < a.size(); ++i) {
      out.tables.push_back(struct_from_json<TableSpec>(
          a[i], path + ".tables[" + std::to_string(i) + "]", BindTable{}));
    }
  }
  r.finish();
  return out;
}

Value output_to_json(const OutputSpec& out) {
  Object o;
  o["header"] = Value{out.header};
  Array tables;
  for (const auto& t : out.tables) {
    tables.push_back(struct_to_json(t, BindTable{}));
  }
  o["tables"] = Value{std::move(tables)};
  return Value{std::move(o)};
}

}  // namespace

Scenario parse_scenario(const std::string& text) {
  Value root;
  std::string error;
  if (!util::json::parse(text, &root, &error)) {
    throw SpecError("$: malformed JSON: " + error);
  }
  ObjectReader r(root, "$");
  if (const Value* version = r.child("version")) {
    if (!version->is_number() || version->as_number() != 1.0) {
      fail("$.version", "unsupported scenario version (expected 1)");
    }
  }
  Scenario sc;
  r.field("name", &sc.name);
  r.field("description", &sc.description);
  if (const Value* w = r.child("workloads")) {
    if (w->is_object() && w->as_object().find("grid") != nullptr) {
      // Keep the grid spec so serialization re-emits the compact grid form
      // (a 1000-point scenario file must stay a 20-line file).
      if (w->as_object().find("points") != nullptr) {
        fail("$.workloads", "\"points\" and \"grid\" are mutually exclusive");
      }
      sc.grid = grid_from_json(*w, "$.workloads");
      sc.workloads = expand_grid(*sc.grid, "$.workloads");
    } else {
      sc.workloads = workloads_from_json(*w, "$.workloads");
    }
  }
  if (const Value* roster = r.child("roster")) {
    sc.roster = roster_from_json(*roster, "$.roster");
  }
  if (const Value* engine = r.child("engine")) {
    sc.engine = engine_from_json(*engine, "$.engine");
  }
  if (const Value* cl = r.child("cluster")) {
    sc.cluster = cluster_from_json(*cl, "$.cluster");
  }
  if (const Value* st = r.child("stream")) {
    sc.stream = stream_from_json(*st, "$.stream");
  }
  if (const Value* output = r.child("output")) {
    sc.output = output_from_json(*output, "$.output");
  }
  r.finish();
  return sc;
}

std::string serialize_scenario(const Scenario& sc) {
  Object root;
  root["version"] = Value{1};
  root["name"] = Value{sc.name};
  root["description"] = Value{sc.description};
  root["workloads"] =
      sc.grid.has_value() ? to_json(*sc.grid) : to_json(sc.workloads);
  root["roster"] = to_json(sc.roster);
  root["engine"] = to_json(sc.engine);
  if (sc.cluster.has_value()) root["cluster"] = to_json(*sc.cluster);
  if (sc.stream.has_value()) root["stream"] = to_json(*sc.stream);
  root["output"] = output_to_json(sc.output);
  return util::json::dump(Value{std::move(root)}, 2) + "\n";
}

void validate_scenario(const Scenario& sc) {
  const auto& jc = sc.engine.joint;
  for (std::size_t i = 0; i < sc.workloads.size(); ++i) {
    const std::string path =
        "$.workloads[" + std::to_string(i) + "].workload";
    const auto& w = sc.workloads[i].workload;
    validate_at(path, [&] { w.validate(); });
    // The engine adopts the workload's page size; check the memory geometry
    // against it the way Engine::init does, but with a named path.
    if (w.page_bytes != 0 && jc.unit_bytes % w.page_bytes != 0) {
      fail(path + ".page_bytes",
           "engine unit_bytes must be a whole number of pages");
    }
    if (w.page_bytes != 0 && jc.mem.bank_bytes % w.page_bytes != 0) {
      fail(path + ".page_bytes",
           "engine bank_bytes must be a whole number of pages");
    }
  }
  validate_at("$.engine.joint.disk", [&] { jc.disk.validate(); });
  validate_at("$.engine.fault", [&] { fault::validate(sc.engine.fault); });
  if (jc.unit_bytes == 0 || jc.physical_bytes % jc.unit_bytes != 0) {
    fail("$.engine.joint.physical_bytes",
         "physical memory must be a whole number of units");
  }
  if (jc.mem.bank_bytes == 0 || jc.physical_bytes % jc.mem.bank_bytes != 0) {
    fail("$.engine.joint.physical_bytes",
         "physical memory must be a whole number of banks");
  }
  if (sc.engine.disk_count == 0) {
    fail("$.engine.disk_count", "at least one disk is required");
  }
  for (std::size_t i = 0; i < sc.roster.size(); ++i) {
    const std::string path = "$.roster[" + std::to_string(i) + "]";
    const auto& p = sc.roster[i];
    if (p.name.empty()) fail(path + ".name", "policy name must not be empty");
    if (p.joint_disk() != p.joint_memory()) {
      fail(path,
           "joint disk and joint memory policies must be used together");
    }
    if (p.mem == sim::MemPolicyKind::kFixed) {
      if (p.fixed_bytes == 0) {
        fail(path + ".fixed_bytes", "fixed memory size must be positive");
      }
      if (p.fixed_bytes > jc.physical_bytes) {
        fail(path + ".fixed_bytes",
             "fixed memory size exceeds physical_bytes");
      }
    }
    if (p.multi_speed && sc.engine.disk_count != 1) {
      fail(path + ".multi_speed", "multi-speed arrays are not modeled");
    }
  }
  if (sc.cluster.has_value()) {
    validate_at("$.cluster", [&] {
      cluster::ClusterConfig full = *sc.cluster;
      full.engine = sc.engine;
      full.validate();
    });
    // A cluster sweep routes a synthesized stream across its servers; it
    // has no file-backed source.
    for (std::size_t i = 0; i < sc.workloads.size(); ++i) {
      if (!sc.workloads[i].trace_path.empty()) {
        fail("$.workloads[" + std::to_string(i) + "].trace",
             "cluster scenarios synthesize every point and cannot replay "
             "trace file \"" + sc.workloads[i].trace_path + "\"");
      }
    }
  }
  if (sc.stream.has_value()) {
    validate_at("$.stream", [&] { stream::validate(*sc.stream); });
  }
}

std::uint64_t fnv1a64(std::string_view bytes) { return util::fnv1a64(bytes); }

std::string scenario_hash(const Scenario& sc) {
  return util::hex16(fnv1a64(serialize_scenario(sc)));
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SpecError(path + ": cannot open scenario file");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse_scenario(text.str());
  } catch (const SpecError& e) {
    throw SpecError(path + ": " + e.what());
  }
}

cluster::ClusterConfig cluster_config(const Scenario& sc) {
  JPM_CHECK_MSG(sc.cluster.has_value(),
                "scenario has no cluster section");
  cluster::ClusterConfig cfg = *sc.cluster;
  cfg.engine = sc.engine;
  return cfg;
}

}  // namespace jpm::spec
