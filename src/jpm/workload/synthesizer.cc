#include "jpm/workload/synthesizer.h"

#include <array>
#include <bit>
#include <cmath>
#include <ostream>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "jpm/util/check.h"
#include "jpm/util/json.h"

namespace jpm::workload {

void SynthesizerConfig::validate() const {
  const auto bad = [](const std::string& why) {
    throw std::invalid_argument("invalid SynthesizerConfig: " + why);
  };
  if (dataset_bytes == 0) bad("dataset_bytes must be positive");
  if (page_bytes == 0) bad("page_bytes must be positive");
  if (!(byte_rate > 0.0) || !std::isfinite(byte_rate)) {
    bad("byte_rate must be positive and finite");
  }
  if (!(duration_s > 0.0) || !std::isfinite(duration_s)) {
    bad("duration_s must be positive and finite");
  }
  if (!(popularity > 0.0) || popularity > 1.0) {
    bad("popularity must lie in (0, 1]");
  }
  if (!(file_scale > 0.0)) bad("file_scale must be positive");
  if (rate_modulation < 0.0) bad("rate_modulation must be nonnegative");
  if (modulation_period_s < 0.0) {
    bad("modulation_period_s must be nonnegative (0 disables)");
  }
  // At 1 the rate reaches 0 at a trough and the arrival gap is infinite;
  // above 1 it turns negative and arrivals run backward in time.
  if (modulation_period_s > 0.0 && !(rate_modulation < 1.0)) {
    bad("rate_modulation must lie below 1 while modulation_period_s > 0");
  }
  if (intra_request_spacing_s < 0.0) {
    bad("intra_request_spacing_s must be nonnegative");
  }
  if (temporal_locality < 0.0 || temporal_locality > 1.0) {
    bad("temporal_locality must lie in [0, 1]");
  }
  if (write_fraction < 0.0 || write_fraction > 1.0) {
    bad("write_fraction must lie in [0, 1]");
  }
}

namespace {

std::array<std::uint64_t, 4> key_bits(const WorkloadKey& k) {
  return {k.dataset_bytes, std::bit_cast<std::uint64_t>(k.file_scale),
          std::bit_cast<std::uint64_t>(k.popularity), k.seed};
}

FileSetConfig file_set_config(const WorkloadKey& key) {
  return FileSetConfig{key.dataset_bytes, gib(4), key.file_scale, key.seed};
}

// Pages spanned by the file set's linear layout.
std::uint64_t data_set_pages(const FileSet& files, std::uint64_t page_bytes) {
  return ceil_div(files.total_bytes(), page_bytes);
}

// A page access waiting to be emitted; requests overlap, so a min-heap on
// time interleaves them into one nondecreasing stream.
struct Pending {
  double time;
  std::uint64_t page;
  std::uint32_t pages_left;  // further pages after this one
  std::uint8_t flags;        // kTraceFlagStart | kTraceFlagWrite
};
struct PendingLater {
  bool operator()(const Pending& a, const Pending& b) const {
    return a.time > b.time;
  }
};

}  // namespace

WorkloadKey WorkloadKey::of(const SynthesizerConfig& config) {
  return WorkloadKey{config.dataset_bytes, config.file_scale,
                     config.popularity, config.seed};
}

bool operator==(const WorkloadKey& a, const WorkloadKey& b) {
  return key_bits(a) == key_bits(b);
}

bool operator<(const WorkloadKey& a, const WorkloadKey& b) {
  return key_bits(a) < key_bits(b);
}

std::ostream& operator<<(std::ostream& os, const WorkloadKey& key) {
  return os << "{dataset_bytes=" << key.dataset_bytes
            << ", file_scale=" << util::json::format_number(key.file_scale)
            << ", popularity=" << util::json::format_number(key.popularity)
            << ", seed=" << key.seed << "}";
}

WorkloadModel::WorkloadModel(const WorkloadKey& key)
    : key_(key),
      files_(file_set_config(key)),
      popularity_(files_, PopularityConfig{key.popularity, 0.9, key.seed}) {
  for (std::size_t i = 0; i < files_.file_count(); ++i) {
    mean_request_bytes_ += popularity_.probability(i) *
                           static_cast<double>(files_.file(i).size_bytes);
  }
  JPM_CHECK(mean_request_bytes_ > 0.0);
}

std::shared_ptr<const WorkloadModel> build_model(
    const SynthesizerConfig& config) {
  config.validate();
  return std::make_shared<const WorkloadModel>(WorkloadKey::of(config));
}

std::uint64_t total_pages(const SynthesizerConfig& config) {
  config.validate();
  return data_set_pages(FileSet(file_set_config(WorkloadKey::of(config))),
                        config.page_bytes);
}

struct TraceGenerator::Impl {
  SynthesizerConfig config;
  std::shared_ptr<const WorkloadModel> model;
  const FileSet& files;
  const PopularityModel& popularity;
  Rng rng;

  std::priority_queue<Pending, std::vector<Pending>, PendingLater> heap;
  double next_arrival = 0.0;
  bool arrivals_done = false;
  // Ring buffer of recent request file indices for the temporal-locality
  // draw (duplicates intended: repetition compounds recency weight).
  std::vector<std::uint32_t> recent;
  std::size_t recent_next = 0;

  Impl(const SynthesizerConfig& cfg, std::shared_ptr<const WorkloadModel> m)
      : config(cfg),
        model(std::move(m)),
        files(model->files()),
        popularity(model->popularity()),
        rng(cfg.seed * 0x2545f4914f6cdd1dull + 0x9e37) {
    advance_arrival();
  }

  double instant_rate(double t) const {
    double rate = config.byte_rate;
    if (config.rate_modulation > 0.0 && config.modulation_period_s > 0.0) {
      rate *= 1.0 + config.rate_modulation *
                        std::sin(2.0 * 3.14159265358979323846 * t /
                                 config.modulation_period_s);
    }
    return rate;
  }

  void advance_arrival() {
    if (arrivals_done) return;
    const double mean_gap =
        model->mean_request_bytes() / instant_rate(next_arrival);
    next_arrival += rng.exponential(mean_gap);
    if (next_arrival >= config.duration_s) arrivals_done = true;
  }

  std::size_t draw_file() {
    if (!recent.empty() && rng.chance(config.temporal_locality)) {
      // Quadratic bias toward the most recent entries.
      const double u = rng.uniform();
      const auto back = static_cast<std::size_t>(
          u * u * static_cast<double>(recent.size()));
      const std::size_t pos =
          (recent_next + recent.size() - 1 - back) % recent.size();
      return recent[pos];
    }
    return popularity.sample(rng);
  }

  void remember_file(std::size_t fi) {
    if (config.temporal_locality <= 0.0 || config.locality_window == 0) return;
    if (recent.size() < config.locality_window) {
      recent.push_back(static_cast<std::uint32_t>(fi));
      recent_next = recent.size() % config.locality_window;
    } else {
      recent[recent_next] = static_cast<std::uint32_t>(fi);
      recent_next = (recent_next + 1) % recent.size();
    }
  }

  void admit_request() {
    const std::size_t fi = draw_file();
    remember_file(fi);
    const auto count = static_cast<std::uint32_t>(
        files.page_count(fi, config.page_bytes));
    // Skip the draw entirely at 0 so read-only configs keep the exact
    // pseudo-random stream they had before the write extension existed.
    const bool is_write =
        config.write_fraction > 0.0 && rng.chance(config.write_fraction);
    heap.push(Pending{next_arrival, files.first_page(fi, config.page_bytes),
                      count - 1,
                      static_cast<std::uint8_t>(
                          kTraceFlagStart | (is_write ? kTraceFlagWrite : 0))});
    advance_arrival();
  }

  std::optional<TraceEvent> next() {
    // Admit every request that arrives before the earliest pending page so
    // emission order is globally nondecreasing in time.
    while (!arrivals_done && (heap.empty() || next_arrival <= heap.top().time)) {
      admit_request();
    }
    if (heap.empty()) return std::nullopt;
    const Pending p = heap.top();
    heap.pop();
    if (p.pages_left > 0) {
      heap.push(Pending{p.time + config.intra_request_spacing_s, p.page + 1,
                        p.pages_left - 1,
                        static_cast<std::uint8_t>(p.flags & kTraceFlagWrite)});
    }
    return TraceEvent{p.time, p.page, p.flags};
  }
};

TraceGenerator::TraceGenerator(const SynthesizerConfig& config)
    : TraceGenerator(config, build_model(config)) {}

TraceGenerator::TraceGenerator(const SynthesizerConfig& config,
                               std::shared_ptr<const WorkloadModel> model) {
  config.validate();
  JPM_CHECK_MSG(model != nullptr, "TraceGenerator needs a workload model");
  JPM_CHECK_MSG(model->key() == WorkloadKey::of(config),
                "workload model built for " << model->key()
                    << " cannot serve a config keyed "
                    << WorkloadKey::of(config));
  impl_ = std::make_unique<Impl>(config, std::move(model));
}

TraceGenerator::~TraceGenerator() = default;
TraceGenerator::TraceGenerator(TraceGenerator&&) noexcept = default;
TraceGenerator& TraceGenerator::operator=(TraceGenerator&&) noexcept = default;

std::optional<TraceEvent> TraceGenerator::next() { return impl_->next(); }

void TraceGenerator::reset() {
  impl_ = std::make_unique<Impl>(impl_->config, impl_->model);
}

const std::shared_ptr<const WorkloadModel>& TraceGenerator::model() const {
  return impl_->model;
}
const SynthesizerConfig& TraceGenerator::config() const {
  return impl_->config;
}
std::uint64_t TraceGenerator::total_pages() const {
  return data_set_pages(impl_->files, impl_->config.page_bytes);
}

Trace synthesize_trace(const SynthesizerConfig& config) {
  return synthesize_trace(config, build_model(config));
}

Trace synthesize_trace(const SynthesizerConfig& config,
                       std::shared_ptr<const WorkloadModel> model) {
  TraceGenerator gen(config, std::move(model));
  Trace trace;
  trace.page_bytes = config.page_bytes;
  // Matches the generator-driven engine path: total pages from the file set
  // (not max accessed page) and the configured duration (not the last event).
  trace.total_pages = gen.total_pages();
  trace.duration_s = config.duration_s;
  while (auto e = gen.next()) trace.push_back(*e);
  return trace;
}

}  // namespace jpm::workload
