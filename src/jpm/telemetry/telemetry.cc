#include "jpm/telemetry/telemetry.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "jpm/telemetry/internal.h"
#include "jpm/telemetry/registry.h"
#include "jpm/util/check.h"

namespace jpm::telemetry {

namespace detail {
std::atomic<std::uint32_t> g_runtime_mask{0};
}  // namespace detail

const char* category_name(Category c) {
  switch (c) {
    case Category::kEngine: return "engine";
    case Category::kCache: return "cache";
    case Category::kDisk: return "disk";
    case Category::kManager: return "manager";
    case Category::kCluster: return "cluster";
    case Category::kFault: return "fault";
    case Category::kSweep: return "sweep";
    case Category::kBench: return "bench";
    case Category::kStream: return "stream";
  }
  return "?";
}

std::uint32_t category_mask_from_string(const std::string& spec) {
  if (spec.empty() || spec == "all") return 0xffffffffu;
  static constexpr Category kAll[] = {
      Category::kEngine, Category::kCache,   Category::kDisk,
      Category::kManager, Category::kCluster, Category::kFault,
      Category::kSweep,  Category::kBench,   Category::kStream};
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    for (Category c : kAll) {
      if (token == category_name(c)) mask |= static_cast<std::uint32_t>(c);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return mask;
}

// ---- session --------------------------------------------------------------

namespace {

// The session pointer and a monotonically increasing epoch. Thread-local
// state stamps the epoch it was initialized under, so stale per-thread
// buffers from a previous session are discarded instead of flushed into
// the wrong recorder.
SessionState* g_session = nullptr;
std::atomic<std::uint64_t> g_epoch{0};
std::mutex g_lifecycle_mu;

struct ThreadState {
  std::uint64_t epoch = 0;
  std::uint32_t tid = 0;
  RunRecorder* run = nullptr;
  // Ring buffer: `ring` has session ring_capacity slots once first used;
  // `head` is the next write slot, `size` the live count, `dropped` the
  // overwritten-prefix length since the last flush.
  std::vector<Event> ring;
  std::size_t head = 0;
  std::size_t size = 0;
  std::uint64_t dropped = 0;

  void reset_ring() {
    head = 0;
    size = 0;
    dropped = 0;
  }
};

thread_local ThreadState t_state;

// Returns the calling thread's state synced to the active session (or
// nullptr when no session). Assigns the thread a stable small integer id
// for the Chrome trace.
ThreadState* state_for(SessionState* s) {
  ThreadState& ts = t_state;
  if (ts.epoch != s->epoch) {
    ts.epoch = s->epoch;
    ts.run = nullptr;
    ts.reset_ring();
    if (ts.ring.size() != s->options.ring_capacity) {
      ts.ring.assign(s->options.ring_capacity, Event{});
    }
    const std::lock_guard<std::mutex> lock(s->mu);
    ts.tid = s->next_tid++;
  }
  return &ts;
}

// Moves the ring's retained events (oldest first) into the thread's bound
// recorder, or the session orphan list when unbound. Runs on the owning
// thread only.
void flush_ring(SessionState* s, ThreadState* ts) {
  if (ts->size == 0 && ts->dropped == 0) return;
  const std::size_t cap = ts->ring.size();
  const std::size_t first = (ts->head + cap - ts->size) % cap;
  // Unwrap into a contiguous scratch; rings are small (default 4096).
  static thread_local std::vector<Event> scratch;
  scratch.clear();
  scratch.reserve(ts->size);
  for (std::size_t i = 0; i < ts->size; ++i) {
    scratch.push_back(ts->ring[(first + i) % cap]);
  }
  if (ts->run != nullptr) {
    ts->run->append_events(scratch.data(), scratch.size(), ts->dropped);
  } else {
    const std::lock_guard<std::mutex> lock(s->mu);
    s->orphans.insert(s->orphans.end(), scratch.begin(), scratch.end());
  }
  ts->reset_ring();
}

std::uint64_t now_ns(SessionState* s) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - s->t0)
          .count());
}

}  // namespace

namespace {
// Provenance lives outside SessionState: the scenario is a property of the
// process invocation, not of one telemetry session, and must survive
// start()/stop() cycles so an atexit export still sees it.
std::mutex g_scenario_mu;
std::string g_scenario_json;
std::string g_scenario_hash;
// Registered (path, content-hash) pairs of the file-backed traces the
// process has replayed, in registration order.
std::vector<std::pair<std::string, std::string>> g_traces;
}  // namespace

void set_scenario(const std::string& resolved_json,
                  const std::string& hash_hex) {
  const std::lock_guard<std::mutex> lock(g_scenario_mu);
  g_scenario_json = resolved_json;
  g_scenario_hash = hash_hex;
}

void clear_scenario() {
  const std::lock_guard<std::mutex> lock(g_scenario_mu);
  g_scenario_json.clear();
  g_scenario_hash.clear();
}

std::string scenario_json() {
  const std::lock_guard<std::mutex> lock(g_scenario_mu);
  return g_scenario_json;
}

std::string scenario_hash_hex() {
  const std::lock_guard<std::mutex> lock(g_scenario_mu);
  return g_scenario_hash;
}

void add_trace(const std::string& path, const std::string& hash_hex) {
  const std::lock_guard<std::mutex> lock(g_scenario_mu);
  for (auto& [p, h] : g_traces) {
    if (p == path) {
      h = hash_hex;
      return;
    }
  }
  g_traces.emplace_back(path, hash_hex);
}

void clear_traces() {
  const std::lock_guard<std::mutex> lock(g_scenario_mu);
  g_traces.clear();
}

namespace {
std::string join_traces(bool hashes) {
  const std::lock_guard<std::mutex> lock(g_scenario_mu);
  std::string out;
  for (const auto& [p, h] : g_traces) {
    if (!out.empty()) out += ';';
    out += hashes ? h : p;
  }
  return out;
}
}  // namespace

std::string trace_paths() { return join_traces(false); }
std::string trace_hashes() { return join_traces(true); }

void start(const Options& options) {
  const std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  JPM_CHECK_MSG(g_session == nullptr,
                "telemetry session already active; stop() it first");
  auto* s = new SessionState();
  s->options = options;
  s->options.ring_capacity =
      options.ring_capacity == 0 ? 1 : options.ring_capacity;
  s->epoch = g_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  s->t0 = std::chrono::steady_clock::now();
  g_session = s;
  detail::g_runtime_mask.store(options.categories, std::memory_order_release);
}

void stop() {
  const std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  detail::g_runtime_mask.store(0, std::memory_order_release);
  delete g_session;
  g_session = nullptr;
}

bool session_active() { return g_session != nullptr; }

const Options& session_options() {
  JPM_CHECK_MSG(g_session != nullptr, "no telemetry session");
  return g_session->options;
}

SessionState* session_state_for_export() { return g_session; }  // export.cc

RunRecorder* begin_run(std::string name) {
  SessionState* s = g_session;
  if (s == nullptr) return nullptr;
  const std::lock_guard<std::mutex> lock(s->mu);
  const auto stream = static_cast<std::uint32_t>(s->runs.size());
  s->runs.push_back(std::make_unique<RunRecorder>(
      std::move(name), stream, s->options.ring_capacity));
  return s->runs.back().get();
}

RunRecorder* current_run() {
  SessionState* s = g_session;
  if (s == nullptr) return nullptr;
  ThreadState* ts = state_for(s);
  return ts->run;
}

ScopedRun::ScopedRun(RunRecorder* run) : prev_(nullptr) {
  SessionState* s = g_session;
  if (s == nullptr) return;
  ThreadState* ts = state_for(s);
  flush_ring(s, ts);
  prev_ = ts->run;
  ts->run = run;
}

ScopedRun::~ScopedRun() {
  SessionState* s = g_session;
  if (s == nullptr) return;
  ThreadState* ts = state_for(s);
  flush_ring(s, ts);
  ts->run = prev_;
}

void emit(Category c, const char* name, double sim_time_s,
          std::initializer_list<EventArg> args) {
  SessionState* s = g_session;
  if (s == nullptr) return;
  if ((s->options.categories & static_cast<std::uint32_t>(c)) == 0) return;
  ThreadState* ts = state_for(s);

  Event e;
  e.name = name;
  e.category = c;
  e.sim_time_s = sim_time_s;
  e.arg_count = 0;
  for (const EventArg& a : args) {
    if (e.arg_count == kMaxEventArgs) break;
    e.args[e.arg_count++] = a;
  }

  if (ts->run == nullptr) {
    // Outside any run: setup/teardown annotations. Rare — a mutex is fine.
    const std::lock_guard<std::mutex> lock(s->mu);
    s->orphans.push_back(e);
    return;
  }
  const std::size_t cap = ts->ring.size();
  ts->ring[ts->head] = e;
  ts->head = (ts->head + 1) % cap;
  if (ts->size < cap) {
    ++ts->size;
  } else {
    ++ts->dropped;  // overwrote the oldest retained event
  }
}

SpanTimer::SpanTimer(std::string name, std::string arg_label)
    : name_(std::move(name)), label_(std::move(arg_label)) {
  SessionState* s = g_session;
  if (s == nullptr || !s->options.capture_spans) return;
  epoch_ = s->epoch;
  start_ns_ = now_ns(s);
  armed_ = true;
}

SpanTimer::~SpanTimer() {
  if (!armed_) return;
  SessionState* s = g_session;
  if (s == nullptr || s->epoch != epoch_) return;  // session changed
  ThreadState* ts = state_for(s);
  Span span;
  span.name = std::move(name_);
  span.label = std::move(label_);
  span.tid = ts->tid;
  span.start_ns = start_ns_;
  const std::uint64_t end = now_ns(s);
  span.duration_ns = end > start_ns_ ? end - start_ns_ : 0;
  const std::lock_guard<std::mutex> lock(s->mu);
  s->spans.push_back(std::move(span));
}

}  // namespace jpm::telemetry
