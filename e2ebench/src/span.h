// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from outside the library, around each call into a
// layer: the recorder never sees the engine's internals. Each thread appends
// to its own log (no lock on the hot path); the logs are gathered once all
// threads have joined. A span's parent is the innermost span open on the
// same thread, or the span a ParentScope adopts (a fan-out task's parent is
// the util.fanout span on the thread that issued the parallel_for).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

enum class SpanKind : std::uint8_t {
  kSynthesize,  // workload.synthesize
  kConstruct,   // sim.construct
  kLoop,        // sim.loop: push_chunk up to the next timer edge
  kBoundary,    // sim.boundary: advance_to at a period boundary
  kFlush,       // sim.flush: advance_to at a flush tick
  kFinish,      // sim.finish
  kRoute,       // cluster.route
  kServer,      // cluster.server: one server's push-mode pipeline
  kPump,        // stream.pump
  kFanout,      // util.fanout: one parallel_for
};
inline constexpr std::size_t kSpanKinds = 10;

const char* span_name(SpanKind kind);

inline constexpr std::uint64_t kNoSpan = ~std::uint64_t{0};

struct Span {
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = kNoSpan;      // (thread << 32) | index in the thread log
  std::uint64_t parent = kNoSpan;  // kNoSpan at the root
  std::uint64_t count = 0;         // work done inside, e.g. events pushed
  std::uint32_t run = 0;           // the task (policy run, point, server) id
  std::uint32_t thread = 0;
  SpanKind kind = SpanKind::kLoop;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span on the calling thread under its innermost open span.
  std::uint64_t begin(SpanKind kind, std::uint32_t run);
  // Closes the calling thread's innermost span, which must be `id`.
  void end(std::uint64_t id, std::uint64_t count = 0);
  // Makes `parent` the calling thread's current span without opening one.
  void push_parent(std::uint64_t parent);
  void pop_parent();

  // Every recorded span, grouped by thread. Call after all threads joined.
  std::vector<Span> spans() const;

 private:
  struct ThreadLog {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;  // stack of current parents
  };
  ThreadLog& log();
  std::int64_t now_ns() const;

  const std::uint64_t instance_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<ThreadLog> logs_;  // stable addresses; guarded by mu_
};

// RAII span; a null recorder records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanKind kind, std::uint32_t run)
      : rec_(rec), id_(rec ? rec->begin(kind, run) : kNoSpan) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_count(std::uint64_t n) { count_ = n; }
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::uint64_t id_;
  std::uint64_t count_ = 0;
};

// Adopts a span from another thread as the current parent for the scope.
class ParentScope {
 public:
  ParentScope(SpanRecorder* rec, std::uint64_t parent) : rec_(rec) {
    if (rec_ != nullptr) rec_->push_parent(parent);
  }
  ~ParentScope() {
    if (rec_ != nullptr) rec_->pop_parent();
  }
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  SpanRecorder* rec_;
};

// Self time: each span's duration minus the union of its children's
// intervals (clipped to the span). Children running concurrently on other
// threads (a fan-out's tasks) are covered once, not summed. Indexed like
// `spans`.
std::vector<double> self_seconds(const std::vector<Span>& spans);

struct LayerTotals {
  std::uint64_t spans = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
};
// Per span kind: how many spans, their summed duration and self time.
std::vector<LayerTotals> layer_totals(const std::vector<Span>& spans);

// The per-layer self-time table, one row per span kind that occurred.
std::string self_time_table(const std::vector<Span>& spans);

// Writes the spans as a Chrome trace_event file ("X" events, microseconds),
// the format of the repository's telemetry trace.json. Past `max_events`
// spans only the earliest-starting ones are written (the fleet records
// ~10^6); "otherData" gives both counts. Returns false when the file cannot
// be written.
bool write_chrome_trace(const std::string& path, std::vector<Span> spans,
                        std::size_t max_events = 100000);

}  // namespace e2e
