// jpm::telemetry — deterministic structured tracing for the simulator.
//
// Design goals, in order:
//   1. Near-zero overhead when disabled. TELEM_EVENT costs one relaxed
//      atomic load + branch when no session is active or its category is
//      filtered out at run time.
//   2. Deterministic output. Events are buffered in a lock-free per-thread
//      ring and attributed to *streams* (one per simulation run), which are
//      registered in structural order — point-major, roster order — before
//      any parallel fan-out. The exported event order is (stream, emission
//      index), which depends only on the simulated work, never on
//      JPM_THREADS or scheduling. Simulated time, not wall clock, is the
//      event timestamp; wall clock exists only in the Chrome trace spans.
//   3. No locks on the hot path. A ring buffer is owned by exactly one
//      thread; flushing into the owning RunRecorder happens on that same
//      thread at scope boundaries. Only stream registration, orphan events,
//      and span capture take a mutex (all rare).
//
// Usage:
//   telemetry::start();                       // or bench --telemetry=<path>
//   auto* rec = telemetry::begin_run("16GB/Joint");
//   { telemetry::ScopedRun scope(rec);        // makes rec the thread's sink
//     TELEM_EVENT(kDisk, "spin_up", t, {"wait_s", 10.0});
//     rec->counter("flush_bursts").add();
//   }
//   telemetry::export_files("out/run");       // report/trace/periods files
//   telemetry::stop();
//
// The engine and sweep runner do all of this automatically when a session
// is active; instrument new code with TELEM_EVENT and current_run().
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace jpm::telemetry {

enum class Category : std::uint32_t {
  kEngine = 1u << 0,   // simulation engine: periods, flushes, snapshots
  kCache = 1u << 1,    // cache layer
  kDisk = 1u << 2,     // disk front-end: spin-ups, shutdowns
  kManager = 1u << 3,  // joint power manager decisions and searches
  kCluster = 1u << 4,  // cluster routing, crashes, fail-over
  kFault = 1u << 5,    // fault injection outcomes
  kSweep = 1u << 6,    // sweep runner lifecycle
  kBench = 1u << 7,    // bench harness annotations
  kStream = 1u << 8,   // streaming daemon: overload, watchdog, shutdown
};

const char* category_name(Category c);
// Parses a comma-separated list of category names ("engine,disk,manager")
// into a mask; "all" or "" yields everything. Unknown names are ignored.
std::uint32_t category_mask_from_string(const std::string& spec);

// One key/value pair attached to an event; keys must be string literals
// (the tracer stores the pointer, not a copy).
struct EventArg {
  const char* key;
  double value;
};

inline constexpr int kMaxEventArgs = 6;

// A point event. `name` and arg keys must be string literals. `sim_time_s`
// is simulated time.
struct Event {
  const char* name = nullptr;
  Category category = Category::kEngine;
  double sim_time_s = 0.0;
  int arg_count = 0;
  EventArg args[kMaxEventArgs];
};

struct Options {
  // Runtime category mask; events outside it are skipped at the gate.
  std::uint32_t categories = 0xffffffffu;
  // Events retained per stream (ring capacity). The ring keeps the *last*
  // `ring_capacity` events of a stream and counts the dropped prefix, which
  // is deterministic per stream for a deterministic workload.
  std::size_t ring_capacity = 4096;
  // Capture wall-clock spans for the Chrome trace exporter.
  bool capture_spans = true;
};

class RunRecorder;  // registry.h

namespace detail {
// Runtime gate: 0 when no session is active, so the disabled fast path is a
// single relaxed load and branch.
extern std::atomic<std::uint32_t> g_runtime_mask;
}  // namespace detail

inline bool category_enabled(Category c) {
  return (detail::g_runtime_mask.load(std::memory_order_relaxed) &
          static_cast<std::uint32_t>(c)) != 0;
}
inline bool enabled() {
  return detail::g_runtime_mask.load(std::memory_order_relaxed) != 0;
}

// ---- provenance -------------------------------------------------------------
// The resolved scenario this process is running (serialized by jpm::spec)
// plus its content hash (16 hex digits, FNV-1a 64 of the serialization).
// Stored independently of the session lifecycle — harnesses publish whenever
// the scenario is loaded, before or after start() — and embedded by
// report_json() as "scenario" / "scenario_hash" so any report can be re-run
// from its own spec. `resolved_json` must be a JSON object document.
void set_scenario(const std::string& resolved_json,
                  const std::string& hash_hex);
void clear_scenario();
// Empty strings when no scenario has been published.
std::string scenario_json();
std::string scenario_hash_hex();

// File-backed trace provenance: every distinct JPMC trace file the run
// replays (registered by sim::run_sweep when it maps the file), as the path
// plus the file's content hash (16 hex digits, FNV-1a 64 of the logical
// event stream — see jpm/tracefile/format.h). Embedded by report_json() as
// "trace_path" / "trace_hash"; runs over several files join the entries with
// ";" in sweep-point order. Re-registering a path updates its hash.
void add_trace(const std::string& path, const std::string& hash_hex);
void clear_traces();
// ";"-joined registered paths/hashes; empty strings when none.
std::string trace_paths();
std::string trace_hashes();

// Starts the global session. Restarting an active session is an error
// (JPM_CHECK); stop() first. Thread-compatible: call with no concurrent
// emitters.
void start(const Options& options = {});
// Tears the session down and discards unexported data. Any emitter still
// running concurrently is a data race — join your workers first.
void stop();
bool session_active();
const Options& session_options();  // JPM_CHECK(session_active())

// Registers a new stream + recorder (in call order — register streams
// before fanning work out so the order is structural, not scheduled).
// Returns nullptr when no session is active. The recorder stays owned by
// the session and is valid until stop().
RunRecorder* begin_run(std::string name);

// The recorder events on this thread currently flow into (nullptr when the
// thread is outside every ScopedRun or telemetry is off).
RunRecorder* current_run();

// Binds a recorder to the current thread for the scope's lifetime. Nesting
// is allowed (the previous binding is restored); the ring is flushed into
// the outgoing recorder at every transition, preserving per-stream order.
class ScopedRun {
 public:
  explicit ScopedRun(RunRecorder* run);
  ~ScopedRun();
  ScopedRun(const ScopedRun&) = delete;
  ScopedRun& operator=(const ScopedRun&) = delete;

 private:
  RunRecorder* prev_;
};

// Emits one event (the macro's backend; callable directly when the category
// is only known at runtime). Events emitted outside any ScopedRun land in
// the session-level "orphan" list (mutex-protected; fine for setup/teardown
// annotations, not for hot loops).
void emit(Category c, const char* name, double sim_time_s,
          std::initializer_list<EventArg> args);

// Wall-clock span for the Chrome trace exporter (runner tasks, synthesis,
// cluster servers). Records on destruction; no-op when the session is gone
// or spans are disabled. Never part of the deterministic report.
class SpanTimer {
 public:
  SpanTimer(std::string name, std::string arg_label = {});
  ~SpanTimer();
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  std::string name_;
  std::string label_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t epoch_ = 0;
  bool armed_ = false;
};

}  // namespace jpm::telemetry

// Structured trace event, gated on the runtime category mask.
//   TELEM_EVENT(kDisk, "spin_up", t, {"wait_s", w}, {"spindle", 0.0});
// `cat` is a bare Category enumerator name; `name` and arg keys must be
// string literals; arg values convert to double. Up to kMaxEventArgs args.
#define TELEM_EVENT(cat, name, sim_time_s, ...)                               \
  do {                                                                        \
    if (::jpm::telemetry::category_enabled(                                   \
            ::jpm::telemetry::Category::cat)) {                               \
      ::jpm::telemetry::emit(::jpm::telemetry::Category::cat, (name),         \
                             (sim_time_s), {__VA_ARGS__});                    \
    }                                                                         \
  } while (0)
