#include "span.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace e2e {
namespace {

std::atomic<std::uint64_t> g_next_instance{1};

// The calling thread's log in the recorder it last used.
struct ThreadCache {
  std::uint64_t instance = 0;
  void* log = nullptr;
};
thread_local ThreadCache tl_cache;

std::uint32_t index_of(std::uint64_t id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSynthesize: return "workload.synthesize";
    case SpanKind::kConstruct: return "sim.construct";
    case SpanKind::kLoop: return "sim.loop";
    case SpanKind::kBoundary: return "sim.boundary";
    case SpanKind::kFlush: return "sim.flush";
    case SpanKind::kFinish: return "sim.finish";
    case SpanKind::kRoute: return "cluster.route";
    case SpanKind::kServer: return "cluster.server";
    case SpanKind::kPump: return "stream.pump";
    case SpanKind::kFanout: return "util.fanout";
  }
  return "?";
}

SpanRecorder::SpanRecorder()
    : instance_(g_next_instance.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

SpanRecorder::ThreadLog& SpanRecorder::log() {
  if (tl_cache.instance != instance_) {
    const std::lock_guard<std::mutex> lock(mu_);
    logs_.emplace_back();
    logs_.back().thread = static_cast<std::uint32_t>(logs_.size());
    tl_cache.instance = instance_;
    tl_cache.log = &logs_.back();
  }
  return *static_cast<ThreadLog*>(tl_cache.log);
}

std::uint64_t SpanRecorder::begin(SpanKind kind, std::uint32_t run) {
  ThreadLog& l = log();
  Span s;
  s.id = (static_cast<std::uint64_t>(l.thread) << 32) | l.spans.size();
  s.parent = l.open.empty() ? kNoSpan : l.open.back();
  s.run = run;
  s.thread = l.thread;
  s.kind = kind;
  s.start_ns = now_ns();
  l.spans.push_back(s);
  l.open.push_back(s.id);
  return s.id;
}

void SpanRecorder::end(std::uint64_t id, std::uint64_t count) {
  const std::int64_t t = now_ns();
  ThreadLog& l = log();
  if (l.open.empty() || l.open.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  l.open.pop_back();
  Span& s = l.spans[index_of(id)];
  s.end_ns = t;
  s.count = count;
}

void SpanRecorder::push_parent(std::uint64_t parent) {
  log().open.push_back(parent);
}

void SpanRecorder::pop_parent() { log().open.pop_back(); }

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  std::size_t n = 0;
  for (const auto& l : logs_) n += l.spans.size();
  out.reserve(n);
  for (const auto& l : logs_) out.insert(out.end(), l.spans.begin(), l.spans.end());
  return out;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // (parent index, child index), ordered by parent then child start.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  edges.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index.find(spans[i].parent);
    if (it != index.end()) edges.emplace_back(it->second, i);
  }
  std::sort(edges.begin(), edges.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return spans[a.second].start_ns < spans[b.second].start_ns;
  });

  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (std::size_t k = 0; k < edges.size();) {
    const Span& p = spans[edges[k].first];
    // Merge this parent's child intervals (sorted by start), clipped to it.
    std::int64_t covered = 0;
    std::int64_t run_begin = 0, run_end = 0;
    bool open = false;
    std::size_t m = k;
    for (; m < edges.size() && edges[m].first == edges[k].first; ++m) {
      const Span& c = spans[edges[m].second];
      const std::int64_t b = std::max(c.start_ns, p.start_ns);
      const std::int64_t e = std::min(c.end_ns, p.end_ns);
      if (e <= b) continue;
      if (open && b <= run_end) {
        run_end = std::max(run_end, e);
      } else {
        if (open) covered += run_end - run_begin;
        run_begin = b;
        run_end = e;
        open = true;
      }
    }
    if (open) covered += run_end - run_begin;
    self[edges[k].first] -= static_cast<double>(covered) * 1e-9;
    k = m;
  }
  return self;
}

std::vector<LayerTotals> layer_totals(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::vector<LayerTotals> out(kSpanKinds);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[static_cast<std::size_t>(spans[i].kind)];
    ++t.spans;
    t.total_s += spans[i].seconds();
    t.self_s += self[i];
    t.count += spans[i].count;
  }
  return out;
}

std::string self_time_table(const std::vector<Span>& spans) {
  const std::vector<LayerTotals> totals = layer_totals(spans);
  double all_self = 0.0;
  for (const auto& t : totals) all_self += t.self_s;
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-20s %10s %12s %12s %7s %12s\n", "span",
                "spans", "total_s", "self_s", "self%", "count");
  out += line;
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const LayerTotals& t = totals[k];
    if (t.spans == 0) continue;
    std::snprintf(line, sizeof line, "%-20s %10llu %12.6f %12.6f %6.1f%% %12llu\n",
                  span_name(static_cast<SpanKind>(k)),
                  static_cast<unsigned long long>(t.spans), t.total_s, t.self_s,
                  all_self > 0.0 ? 100.0 * t.self_s / all_self : 0.0,
                  static_cast<unsigned long long>(t.count));
    out += line;
  }
  return out;
}

bool write_chrome_trace(const std::string& path, std::vector<Span> spans,
                        std::size_t max_events) {
  const std::size_t recorded = spans.size();
  if (spans.size() > max_events) {
    std::nth_element(spans.begin(), spans.begin() + static_cast<std::ptrdiff_t>(max_events),
                     spans.end(),
                     [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
    spans.resize(max_events);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"e2ebench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"run\":%u,\"count\":%llu}}",
                 i == 0 ? "" : ",", span_name(s.kind),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread, s.run,
                 static_cast<unsigned long long>(s.count));
  }
  std::fprintf(f,
               "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_recorded\":%zu,"
               "\"spans_written\":%zu}}\n",
               recorded, spans.size());
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace e2e
