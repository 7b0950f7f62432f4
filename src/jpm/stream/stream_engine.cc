#include "jpm/stream/stream_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "jpm/telemetry/registry.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/util/check.h"
#include "jpm/workload/trace.h"

namespace jpm::stream {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

const char* overload_policy_name(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kShed: return "shed";
    case OverloadPolicy::kDegrade: return "degrade";
  }
  return "?";
}

bool overload_policy_from_name(const std::string& name, OverloadPolicy* out) {
  if (name == "block") *out = OverloadPolicy::kBlock;
  else if (name == "shed") *out = OverloadPolicy::kShed;
  else if (name == "degrade") *out = OverloadPolicy::kDegrade;
  else return false;
  return true;
}

void validate(const StreamConfig& config) {
  if (!is_power_of_two(config.ring_capacity) ||
      config.ring_capacity > (1ull << 30)) {
    throw std::invalid_argument(
        "ring_capacity must be a power of two in [1, 2^30]");
  }
  if (!(config.low_watermark >= 0.0 && config.low_watermark <= 1.0) ||
      !(config.high_watermark >= 0.0 && config.high_watermark <= 1.0)) {
    throw std::invalid_argument("watermarks must lie in [0, 1]");
  }
  if (config.low_watermark > config.high_watermark) {
    throw std::invalid_argument(
        "low_watermark must not exceed high_watermark");
  }
  if (!(config.block_timeout_s >= 0.0)) {
    throw std::invalid_argument("block_timeout_s must be >= 0");
  }
  if (!(config.watchdog_timeout_s >= 0.0)) {
    throw std::invalid_argument("watchdog_timeout_s must be >= 0");
  }
  if (config.max_batch == 0 || config.max_batch > 65536) {
    throw std::invalid_argument("max_batch must be in [1, 65536]");
  }
}

StreamEngine::StreamEngine(const sim::LiveSource& source,
                           const sim::PolicySpec& policy,
                           const sim::EngineConfig& engine_config,
                           const StreamConfig& stream_config)
    : config_((validate(stream_config), stream_config)),
      ring_(static_cast<std::size_t>(stream_config.ring_capacity)),
      engine_(source, policy, engine_config),
      warm_up_s_(engine_config.warm_up_s),
      duration_hint_s_(source.duration_hint_s) {
  scratch_.resize(config_.max_batch);
  times_.resize(config_.max_batch);
  pages_.resize(config_.max_batch);
  flags_.resize(config_.max_batch);
}

bool StreamEngine::offer(const StreamEvent& event) {
  events_offered_.fetch_add(1, std::memory_order_relaxed);
  if (ring_.try_push(event)) {
    events_accepted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (config_.overload == OverloadPolicy::kShed) {
    shed(event);
    return false;
  }
  // block and degrade both back-pressure the producer on a full ring;
  // degrade additionally pins the manager via the consumer's watermarks.
  return offer_blocking(event);
}

bool StreamEngine::offer_blocking(const StreamEvent& event) {
  block_waits_.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point start = Clock::now();
  for (;;) {
    if (seconds_since(start) >= config_.block_timeout_s) break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    if (ring_.try_push(event)) {
      blocked_ns_.fetch_add(
          static_cast<std::uint64_t>(seconds_since(start) * 1e9),
          std::memory_order_relaxed);
      events_accepted_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  blocked_ns_.fetch_add(
      static_cast<std::uint64_t>(seconds_since(start) * 1e9),
      std::memory_order_relaxed);
  block_timeouts_.fetch_add(1, std::memory_order_relaxed);
  shed(event);
  return false;
}

void StreamEngine::shed(const StreamEvent& event) {
  if ((event.flags & workload::kTraceFlagWrite) != 0) {
    shed_writes_.fetch_add(1, std::memory_order_relaxed);
  } else {
    shed_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  pending_shed_.fetch_add(1, std::memory_order_relaxed);
}

void StreamEngine::drain_pending_shed() {
  const std::uint64_t n = pending_shed_.exchange(0, std::memory_order_relaxed);
  if (n != 0) engine_.note_shed(n);
}

void StreamEngine::update_degrade(std::size_t occupancy) {
  if (config_.overload != OverloadPolicy::kDegrade) return;
  const double frac = static_cast<double>(occupancy) /
                      static_cast<double>(ring_.capacity());
  if (!degrade_engaged_ && frac >= config_.high_watermark) {
    degrade_engaged_ = true;
    ++degrade_engagements_;
    engine_.set_forced_fallback(true);
    TELEM_EVENT(kStream, "degrade_engage", last_time_,
                {"occupancy", static_cast<double>(occupancy)});
  } else if (degrade_engaged_ && frac <= config_.low_watermark) {
    degrade_engaged_ = false;
    engine_.set_forced_fallback(false);
    TELEM_EVENT(kStream, "degrade_release", last_time_,
                {"occupancy", static_cast<double>(occupancy)});
  }
}

std::size_t StreamEngine::pump() {
  JPM_CHECK_MSG(!finished_, "pump after finish");
  const std::size_t occupancy = ring_.size_approx();
  max_occupancy_ = std::max<std::uint64_t>(max_occupancy_, occupancy);
  // Engage/release the degrade posture on the pre-drain occupancy so a
  // saturated ring is seen even when one pump() would empty it.
  update_degrade(occupancy);

  const std::size_t n = ring_.pop_chunk(scratch_.data(), scratch_.size());
  if (n == 0) return 0;
  for (std::size_t i = 0; i < n; ++i) {
    double t = scratch_[i].time_s;
    if (t < last_time_) {
      t = last_time_;
      ++clamped_timestamps_;
    }
    last_time_ = t;
    times_[i] = t;
    pages_[i] = scratch_[i].page;
    flags_[i] = scratch_[i].flags;
  }
  // Charge sheds noticed so far to the period that is current *before*
  // these events advance simulated time.
  drain_pending_shed();
  engine_.push_chunk(times_.data(), pages_.data(), flags_.data(), n);
  events_processed_ += n;
  if (telemetry::enabled()) {
    if (telemetry::RunRecorder* rec = telemetry::current_run()) {
      rec->gauge("ring_occupancy").set(static_cast<double>(occupancy));
    }
  }
  return n;
}

void StreamEngine::run_until_closed() {
  Clock::time_point last_progress = Clock::now();
  while (!ring_.drained()) {
    if (pump() > 0) {
      last_progress = Clock::now();
      continue;
    }
    if (config_.watchdog_timeout_s > 0.0 &&
        seconds_since(last_progress) >= config_.watchdog_timeout_s) {
      force_period_close();
      last_progress = Clock::now();
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void StreamEngine::force_period_close() {
  JPM_CHECK_MSG(!finished_, "period close after finish");
  const double boundary = engine_.next_boundary_s();
  drain_pending_shed();
  engine_.advance_to(boundary);
  last_time_ = std::max(last_time_, boundary);
  ++watchdog_closes_;
  TELEM_EVENT(kStream, "watchdog_close", boundary,
              {"occupancy", static_cast<double>(ring_.size_approx())});
}

sim::RunMetrics StreamEngine::finish() {
  // A run must strictly outlast its warm-up; pad an empty or short stream
  // out to one period past the warm-up boundary.
  const double min_end = warm_up_s_ + engine_.period_s();
  return finish_at(std::max({last_time_, duration_hint_s_, min_end}));
}

sim::RunMetrics StreamEngine::finish_at(double end_s) {
  JPM_CHECK_MSG(!finished_, "StreamEngine::finish is single-shot");
  finished_ = true;
  drain_pending_shed();
  publish_telemetry(end_s);
  return engine_.finish(end_s);
}

StreamStats StreamEngine::stats() const {
  StreamStats s;
  s.events_offered = events_offered_.load(std::memory_order_relaxed);
  s.events_accepted = events_accepted_.load(std::memory_order_relaxed);
  s.events_processed = events_processed_;
  s.shed_reads = shed_reads_.load(std::memory_order_relaxed);
  s.shed_writes = shed_writes_.load(std::memory_order_relaxed);
  s.block_waits = block_waits_.load(std::memory_order_relaxed);
  s.block_timeouts = block_timeouts_.load(std::memory_order_relaxed);
  s.blocked_s =
      static_cast<double>(blocked_ns_.load(std::memory_order_relaxed)) * 1e-9;
  s.degrade_engagements = degrade_engagements_;
  s.watchdog_closes = watchdog_closes_;
  s.clamped_timestamps = clamped_timestamps_;
  s.max_occupancy = max_occupancy_;
  return s;
}

void StreamEngine::publish_telemetry(double end_s) {
  const StreamStats s = stats();
  TELEM_EVENT(kStream, "stream_finish", end_s,
              {"accepted", static_cast<double>(s.events_accepted)},
              {"shed", static_cast<double>(s.shed_reads + s.shed_writes)},
              {"watchdog_closes", static_cast<double>(s.watchdog_closes)});
  if (!telemetry::enabled()) return;
  telemetry::RunRecorder* rec = telemetry::current_run();
  if (rec == nullptr) return;
  rec->counter("stream_events_offered").add(s.events_offered);
  rec->counter("stream_events_accepted").add(s.events_accepted);
  rec->counter("stream_events_processed").add(s.events_processed);
  rec->counter("stream_shed_reads").add(s.shed_reads);
  rec->counter("stream_shed_writes").add(s.shed_writes);
  rec->counter("stream_block_waits").add(s.block_waits);
  rec->counter("stream_block_timeouts").add(s.block_timeouts);
  rec->counter("stream_degrade_engagements").add(s.degrade_engagements);
  rec->counter("stream_watchdog_closes").add(s.watchdog_closes);
  rec->counter("stream_clamped_timestamps").add(s.clamped_timestamps);
  rec->gauge("ring_occupancy_max").set(static_cast<double>(s.max_occupancy));
}

}  // namespace jpm::stream
