#include "jpm/sim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "jpm/cache/lru_cache.h"
#include "jpm/cache/page_table.h"
#include "jpm/cache/stack_distance.h"
#include "jpm/disk/disk_array.h"
#include "jpm/disk/multispeed.h"
#include "jpm/disk/storage.h"
#include "jpm/disk/timeout_policy.h"
#include "jpm/mem/bank_set.h"
#include "jpm/telemetry/registry.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/util/check.h"
#include "jpm/workload/trace.h"

namespace jpm::sim {

struct Engine::Impl {
  PolicySpec policy;
  EngineConfig config;

  double duration_s = 0.0;  // telemetry annotation only (run_begin)
  std::uint64_t total_pages = 0;

  std::unique_ptr<disk::TimeoutPolicy> timeout_policy;
  disk::DynamicTimeout* dynamic_timeout = nullptr;  // set for joint runs
  std::unique_ptr<disk::Storage> disk;
  // One page table shared by the LRU cache and (in joint runs) the
  // stack-distance tracker: the hot loop resolves each event's page with a
  // single lookup and hands the entry to both. Declared before its users so
  // it outlives them.
  cache::PageTable page_table;
  std::unique_ptr<cache::LruCache> lru;
  mem::MemoryEnergyMeter meter;
  std::unique_ptr<mem::BankSet> banks;  // PD / DS / always-on static energy

  // Joint-method machinery.
  std::unique_ptr<cache::StackDistanceTracker> tracker;
  std::unique_ptr<core::PeriodStatsCollector> collector;
  std::unique_ptr<core::JointPowerManager> manager;
  std::uint64_t current_units = 0;

  RunMetrics metrics;

  // Telemetry stream bound to this thread when the run starts; all pointers
  // stay null when no session is active, so the hot path costs one branch.
  telemetry::RunRecorder* telem = nullptr;
  telemetry::TableRecorder* telem_periods = nullptr;
  BucketHistogram* telem_idle = nullptr;
  BucketHistogram* telem_latency = nullptr;
  BucketHistogram* telem_spinup = nullptr;
  double telem_prev_energy_j = 0.0;

  double next_flush = 0.0;  // next background writeback tick (0 = disabled)
  // The earliest of next_boundary, a pending warm-up snapshot and next_flush:
  // the one compare the per-event loop makes for all three. 0 until the
  // first event, which takes the snapshot or finds the real edge.
  double next_edge = 0.0;

  // Reused across period boundaries and bank disables so the hot loop does
  // not allocate a fresh vector per event.
  std::vector<cache::PageId> dirty_scratch;
  std::vector<mem::BankDisable> disable_scratch;

  // Per-period measured quantities (Fig. 9 and period records).
  double next_boundary = 0.0;
  double period_start = 0.0;
  std::uint64_t period_cache_accesses = 0;
  std::uint64_t period_disk_accesses = 0;
  double period_gap_sum = 0.0;
  std::uint64_t period_gap_count = 0;
  double period_busy_start_s = 0.0;
  std::uint64_t period_delayed_requests = 0;
  double last_disk_finish;
  // Engines start lazily at the first push and end at finish(); forced
  // fallback / shed counts come from the stream overload policies (see
  // engine.h).
  bool started = false;
  bool finished = false;
  bool forced_fallback = false;
  std::uint64_t period_shed_events = 0;

  // Cumulative totals at the warm-up boundary, subtracted at the end so
  // reported metrics cover only the measured window.
  struct Snapshot {
    bool taken = false;
    mem::MemoryEnergyBreakdown mem;
    double bank_static_j = 0.0;
    disk::DiskEnergyBreakdown disk;
    double busy_s = 0.0;
    std::uint64_t shutdowns = 0;
    std::uint64_t cache_accesses = 0;
    std::uint64_t disk_accesses = 0;
    std::uint64_t disk_writes = 0;
    std::uint64_t readahead = 0;
    std::uint64_t long_latency = 0;
    std::uint64_t spin_ups = 0;
    double latency_s = 0.0;
  } snapshot;

  Impl(const LiveSource& source, const PolicySpec& spec,
       const EngineConfig& cfg)
      : policy(spec), config(cfg), meter(cfg.joint.mem, 0, 0.0),
        last_disk_finish(0.0) {
    JPM_CHECK_MSG(source.total_pages > 0,
                  "a live source must declare its data-set size");
    // Checked before anything per-page is built. Bad input, so a named
    // error without a source location.
    if (source.total_pages > cache::PageTable::kMaxPages) {
      throw std::invalid_argument(
          "the source declares " + std::to_string(source.total_pages) +
          " pages; at most " + std::to_string(cache::PageTable::kMaxPages) +
          " are supported");
    }
    duration_s = source.duration_hint_s;
    total_pages = source.total_pages;
    init(source.page_bytes);
  }

  // Rejects configurations that would silently corrupt the run. Uses
  // std::invalid_argument (bad input), not JPM_CHECK (internal invariant).
  void validate_config() const {
    const auto bad = [](const std::string& why) {
      throw std::invalid_argument("invalid EngineConfig: " + why);
    };
    const auto& jc = config.joint;
    if (config.disk_count == 0) bad("disk_count must be at least 1");
    if (config.stripe_bytes == 0) bad("stripe_bytes must be positive");
    if (jc.page_bytes == 0) bad("page_bytes must be positive");
    if (!(jc.period_s > 0.0) || !std::isfinite(jc.period_s)) {
      bad("joint.period_s must be positive and finite");
    }
    if (!(jc.window_s > 0.0) || !std::isfinite(jc.window_s)) {
      bad("joint.window_s must be positive and finite");
    }
    if (jc.util_limit < 0.0 || !std::isfinite(jc.util_limit)) {
      bad("joint.util_limit must be nonnegative and finite");
    }
    if (jc.delay_limit < 0.0 || !std::isfinite(jc.delay_limit)) {
      bad("joint.delay_limit must be nonnegative and finite");
    }
    if (config.warm_up_s < 0.0) bad("warm_up_s must be nonnegative");
    if (config.flush_interval_s < 0.0) {
      bad("flush_interval_s must be nonnegative (0 disables)");
    }
    if (config.long_latency_threshold_s < 0.0) {
      bad("long_latency_threshold_s must be nonnegative");
    }
    jc.disk.validate();
    fault::validate(config.fault);
  }

  // A fresh instance of the run's disk timeout policy: the engine's own,
  // then one per spindle of an array. Joint runs make one DynamicTimeout,
  // which the manager retunes each period, and hand each spindle a
  // SharedTimeout view of it.
  std::unique_ptr<disk::TimeoutPolicy> make_timeout_policy() {
    const double break_even_s = config.joint.disk.break_even_s();
    switch (policy.disk) {
      case DiskPolicyKind::kTwoCompetitive:
        return std::make_unique<disk::FixedTimeout>(break_even_s);
      case DiskPolicyKind::kAdaptive:
        return std::make_unique<disk::AdaptiveTimeout>();
      case DiskPolicyKind::kPredictive:
        return std::make_unique<disk::PredictiveTimeout>(break_even_s);
      case DiskPolicyKind::kAlwaysOn:
        return std::make_unique<disk::NeverTimeout>();
      case DiskPolicyKind::kJoint: {
        if (dynamic_timeout != nullptr) {
          return std::make_unique<disk::SharedTimeout>(dynamic_timeout);
        }
        auto dynamic = std::make_unique<disk::DynamicTimeout>(break_even_s);
        dynamic_timeout = dynamic.get();
        return dynamic;
      }
    }
    JPM_CHECK_MSG(false, "unknown disk policy kind");
    return nullptr;
  }

  void init(std::uint64_t page_bytes) {
    config.joint.page_bytes = page_bytes;
    validate_config();
    const auto& jc = config.joint;
    JPM_CHECK_MSG(jc.unit_bytes % jc.page_bytes == 0,
                  "enumeration unit must be a whole number of pages");
    JPM_CHECK_MSG(jc.physical_bytes % jc.unit_bytes == 0,
                  "physical memory must be a whole number of units");
    JPM_CHECK_MSG(jc.mem.bank_bytes % jc.page_bytes == 0,
                  "bank must be a whole number of pages");
    JPM_CHECK_MSG(jc.physical_bytes % jc.mem.bank_bytes == 0,
                  "physical memory must be a whole number of banks");

    timeout_policy = make_timeout_policy();
    // Storage backend: multi-speed disk, single spin-down disk, or a
    // striped array with per-disk policy instances.
    if (policy.multi_speed) {
      JPM_CHECK_MSG(config.disk_count == 1,
                    "multi-speed arrays are not modeled");
      disk = std::make_unique<disk::MultiSpeedDisk>(
          disk::drpm_params(jc.disk), 0.0);
    } else if (config.disk_count == 1) {
      if (config.fault.disk_faults_active()) {
        disk = std::make_unique<disk::SingleDiskStorage>(
            jc.disk, timeout_policy.get(), 0.0, config.fault);
      } else {
        disk = std::make_unique<disk::SingleDiskStorage>(
            jc.disk, timeout_policy.get(), 0.0);
      }
    } else {
      disk::DiskArrayConfig array_cfg;
      array_cfg.disk_count = config.disk_count;
      array_cfg.stripe_bytes = config.stripe_bytes;
      array_cfg.page_bytes = jc.page_bytes;
      array_cfg.params = jc.disk;
      array_cfg.fault = config.fault;
      disk = std::make_unique<disk::DiskArray>(
          array_cfg, [this] { return make_timeout_policy(); }, 0.0);
    }

    // Cache sized to physical memory; logical capacity per the method.
    const std::uint64_t total_frames = jc.physical_bytes / jc.page_bytes;
    const std::uint64_t frames_per_bank = jc.mem.bank_bytes / jc.page_bytes;
    std::uint64_t capacity_frames = total_frames;
    if (policy.mem == MemPolicyKind::kFixed) {
      JPM_CHECK(policy.fixed_bytes > 0 &&
                policy.fixed_bytes <= jc.physical_bytes);
      capacity_frames = policy.fixed_bytes / jc.page_bytes;
    }
    lru = std::make_unique<cache::LruCache>(
        cache::LruCacheOptions{total_frames, frames_per_bank, capacity_frames},
        &page_table);

    // Memory static-energy accounting.
    const auto bank_count =
        static_cast<std::uint32_t>(jc.physical_bytes / jc.mem.bank_bytes);
    switch (policy.mem) {
      case MemPolicyKind::kFixed:
        meter.set_size(policy.fixed_bytes, 0.0);
        break;
      case MemPolicyKind::kJoint:
        meter.set_size(jc.physical_bytes, 0.0);
        break;
      case MemPolicyKind::kNapAll:
        banks = std::make_unique<mem::BankSet>(
            bank_count, jc.mem, mem::BankPolicy::kNapOnly, 0.0);
        break;
      case MemPolicyKind::kPowerDown:
        banks = std::make_unique<mem::BankSet>(
            bank_count, jc.mem, mem::BankPolicy::kPowerDown, 0.0);
        break;
      case MemPolicyKind::kDisable:
        banks = std::make_unique<mem::BankSet>(
            bank_count, jc.mem, mem::BankPolicy::kDisable, 0.0);
        break;
    }

    if (policy.joint_disk() || policy.joint_memory()) {
      JPM_CHECK_MSG(policy.joint_disk() && policy.joint_memory(),
                    "joint disk and joint memory policies must be used "
                    "together");
      tracker = std::make_unique<cache::StackDistanceTracker>(&page_table);
      // The closed-loop guard only engages through an enabled fault plan;
      // otherwise the manager keeps the paper's open-loop behavior.
      const fault::ManagerGuardConfig guard =
          config.fault.enabled ? config.fault.guard
                               : fault::ManagerGuardConfig{};
      manager = std::make_unique<core::JointPowerManager>(jc, guard);
      collector = std::make_unique<core::PeriodStatsCollector>(
          jc.unit_frames(), jc.max_units(), 0.0);
      current_units = manager->initial_memory_units();
      dynamic_timeout->set_timeout(manager->initial_timeout_s());
    } else {
      current_units = lru->capacity() / jc.unit_frames();
    }
    next_boundary = jc.period_s;
    next_flush = config.flush_interval_s;
    metrics.policy_name = policy.name;

    if (config.prefill_cache) prefill();
  }

  // Writes one dirty page back to disk. Background traffic: no user-visible
  // latency, but it occupies and wakes the disk like any other access.
  void write_back_page(double t, cache::PageId p) {
    const auto res = disk->read(t, p, config.joint.page_bytes);
    ++metrics.disk_writes;
    last_disk_finish = res.finish_s;
  }

  // Writes the given dirty pages back to disk (ascending page order keeps
  // most of a flush burst sequential).
  void write_back(double t, const std::vector<cache::PageId>& pages) {
    for (cache::PageId p : pages) write_back_page(t, p);
  }

  // Starts the run from a warm server: the cache AND the extended LRU list
  // are left as streaming every data-set page through them in page order,
  // before t = 0, would leave them — built in closed form. Prefilling the
  // tracker keeps prediction consistent with the warm cache: a page's first
  // in-trace access is a re-access at its (prefill-order) stack depth, which
  // is exactly where the resident copy sits — so the miss curve correctly
  // credits large memories with serving first touches from memory and
  // charges small ones with evicting them.
  void prefill() {
    if (tracker) tracker->fill_in_order(total_pages);
    lru->fill_in_order(total_pages);
  }

  void take_snapshot(double t) {
    JPM_CHECK(!snapshot.taken);
    snapshot.taken = true;
    meter.finalize(t);
    snapshot.mem = meter.breakdown();
    if (banks) {
      banks->finalize(t);
      snapshot.bank_static_j = banks->static_energy_j();
    }
    snapshot.disk = disk->energy_through(t);
    snapshot.busy_s = disk->busy_time_s();
    snapshot.shutdowns = disk->shutdowns();
    snapshot.cache_accesses = metrics.cache_accesses;
    snapshot.disk_accesses = metrics.disk_accesses;
    snapshot.disk_writes = metrics.disk_writes;
    snapshot.readahead = metrics.readahead_fetches;
    snapshot.long_latency = metrics.long_latency_count;
    snapshot.spin_ups = metrics.spin_ups;
    snapshot.latency_s = metrics.total_latency_s;
  }

  // ---- period bookkeeping -------------------------------------------------

  // Cumulative realized energy through t (memory + disk + banks). Only
  // called with telemetry enabled: the extra mid-run integrations can move
  // the final energy sums by an ulp, which is invisible in reported output
  // but would break the disabled-mode byte-identical guarantee.
  double telem_energy_through(double t) {
    meter.finalize(t);
    double j = meter.breakdown().total_j() + disk->energy_through(t).total_j();
    if (banks) {
      banks->finalize(t);
      j += banks->static_energy_j();
    }
    return j;
  }

  void close_period(double boundary) {
    if (telem_periods != nullptr) {
      const double realized_j =
          telem_energy_through(boundary) - telem_prev_energy_j;
      telem_prev_energy_j += realized_j;
      const double mean_idle =
          period_gap_count == 0
              ? 0.0
              : period_gap_sum / static_cast<double>(period_gap_count);
      telem_periods->add_row(
          {period_start, boundary,
           static_cast<double>(period_cache_accesses),
           static_cast<double>(period_disk_accesses), mean_idle,
           static_cast<double>(current_units), timeout_policy->timeout_s(),
           disk->busy_time_s() - period_busy_start_s,
           static_cast<double>(period_delayed_requests), realized_j});
      TELEM_EVENT(kEngine, "period_close", boundary,
                  {"disk_accesses", static_cast<double>(period_disk_accesses)},
                  {"realized_j", realized_j});
    }
    if (config.record_periods) {
      PeriodRecord rec;
      rec.start_s = period_start;
      rec.end_s = boundary;
      rec.cache_accesses = period_cache_accesses;
      rec.disk_accesses = period_disk_accesses;
      rec.mean_idle_s = period_gap_count == 0
                            ? 0.0
                            : period_gap_sum /
                                  static_cast<double>(period_gap_count);
      rec.memory_units = current_units;
      rec.timeout_s = timeout_policy->timeout_s();
      rec.busy_s = disk->busy_time_s() - period_busy_start_s;
      rec.delayed_requests = period_delayed_requests;
      rec.shed_events = period_shed_events;
      rec.degraded = period_shed_events > 0 || forced_fallback;
      metrics.periods.push_back(rec);
    }
    period_start = boundary;
    period_cache_accesses = 0;
    period_disk_accesses = 0;
    period_gap_sum = 0.0;
    period_gap_count = 0;
    period_busy_start_s = disk->busy_time_s();
    period_delayed_requests = 0;
    period_shed_events = 0;
  }

  void handle_boundary(double boundary) {
    disk->advance(boundary);
    if (manager) {
      core::PeriodStats stats = collector->harvest(boundary);
      const core::JointDecision& d = manager->on_period_end(stats);
      collector->recycle(std::move(stats));
      const std::uint64_t frames =
          d.memory_units * config.joint.unit_frames();
      dirty_scratch.clear();
      lru->set_capacity(std::max<std::uint64_t>(frames, 1), &dirty_scratch);
      write_back(boundary, dirty_scratch);
      meter.set_size(d.memory_bytes, boundary);
      dynamic_timeout->set_timeout(d.timeout_s);
      current_units = d.memory_units;
      TELEM_EVENT(kManager, "decision_applied", boundary,
                  {"memory_units", static_cast<double>(d.memory_units)},
                  {"timeout_s", d.timeout_s});
      if (telem != nullptr) {
        telem->gauge("memory_units")
            .set(static_cast<double>(d.memory_units));
      }
    }
    close_period(boundary);
  }

  // Handles every timer edge due at or before t in time order: period
  // boundaries, the warm-up snapshot and flush ticks. At equal times a
  // boundary runs first, then the snapshot, then the flush. Leaves next_edge
  // at the first edge after t.
  void process_edges_until(double t) {
    constexpr double kNever = std::numeric_limits<double>::infinity();
    for (;;) {
      const double snap = snapshot.taken ? kNever : config.warm_up_s;
      const double flush = config.flush_interval_s > 0.0 ? next_flush : kNever;
      next_edge = std::min({next_boundary, snap, flush});
      if (next_edge > t) return;
      if (next_boundary == next_edge) {
        handle_boundary(next_boundary);
        next_boundary += config.joint.period_s;
      } else if (snap == next_edge) {
        take_snapshot(snap);
      } else {
        lru->take_dirty_pages(&dirty_scratch);
        write_back(next_flush, dirty_scratch);
        next_flush += config.flush_interval_s;
      }
    }
  }

  // ---- main loop ----------------------------------------------------------

  // Every source's page-range check. Out of line, so the per-event loop
  // carries only the compare; the message names no source location
  // because the input, not the engine, is at fault.
  [[noreturn]] void reject_page(std::uint64_t page) const {
    throw std::out_of_range("event page " + std::to_string(page) +
                            " is outside the data set: the source declares " +
                            std::to_string(total_pages) + " pages");
  }

  // One event: timer bookkeeping, then a single page-table lookup resolves
  // the page for every consumer — the stack-distance update reads/writes
  // the entry's `slot` half and the residency check reads its `frame` half.
  // The resident hit is the per-event steady state of a run and stays
  // inline; the miss tail is out of line so the loop's code stays small.
  void step_event(double t, std::uint64_t page, bool is_write) {
    if (page >= total_pages) [[unlikely]] reject_page(page);
    advance_timers(t);
    ++metrics.cache_accesses;
    ++period_cache_accesses;
    // A telemetry session records spin-down markers the moment a timeout
    // expires; advance the disk per event in that mode so those markers
    // land in the event stream in simulated-time order (session-wide, not
    // per-run: TELEM_EVENT fires even on threads outside any ScopedRun).
    // Metrics never need it: spin-downs are stamped at their expiry time
    // and every state read (read(), energy_through(), finalize()) advances
    // internally first.
    if (telemetry::enabled()) disk->advance(t);
    cache::PageEntry* entry = page_table.find_or_insert(page);
    if (tracker) {
      const std::uint64_t depth = tracker->access_at(*entry);
      // Writes never become disk reads, so they stay out of the miss
      // curve and idle prediction; they still age the LRU stack above.
      if (!is_write) collector->on_access(t, depth);
    }

    if (entry->frame != cache::kNoFrame) {
      const auto outcome = lru->touch(entry->frame);
      meter.on_transfer(config.joint.page_bytes);
      if (is_write) lru->mark_dirty_frame(entry->frame);
      if (banks) banks->touch(outcome.bank, t);
      return;
    }

    access_miss(t, page, is_write);
  }

  // The non-resident tail of step_event: write-allocate or disk read plus
  // install, readahead, and the latency/idle bookkeeping that only miss
  // events carry.
  void access_miss(double t, std::uint64_t page, bool is_write) {
    const std::uint64_t page_bytes = config.joint.page_bytes;
    if (is_write) {
      // Write-allocate without fetch: the whole page is overwritten, so no
      // disk read happens now; the page becomes dirty for a later flush.
      const auto placed = lru->insert(page);
      if (placed.evicted && placed.evicted_dirty) {
        write_back_page(t, placed.evicted_page);
      }
      lru->mark_dirty_frame(placed.frame);
      meter.on_transfer(page_bytes);
      if (banks) banks->touch(placed.bank, t);
      return;
    }

    // Read miss: fetch the page from disk, then install it.
    const auto res = disk->read(t, page, page_bytes);
    ++metrics.disk_accesses;
    ++period_disk_accesses;
    if (res.triggered_spin_up) {
      ++metrics.spin_ups;
      ++period_delayed_requests;
    }
    metrics.total_latency_s += res.latency_s;
    if (res.latency_s > config.long_latency_threshold_s) {
      ++metrics.long_latency_count;
    }
    if (telem != nullptr) {
      telem_latency->add(res.latency_s);
      if (res.triggered_spin_up) telem_spinup->add(res.latency_s);
    }
    if (collector) {
      collector->on_disk_access(res.finish_s - res.start_s,
                                /*delayed=*/res.triggered_spin_up);
    }

    const double gap = t - last_disk_finish;
    if (telem != nullptr && gap > 0.0) telem_idle->add(gap);
    if (gap >= config.joint.window_s) {
      period_gap_sum += gap;
      ++period_gap_count;
    }
    last_disk_finish = res.finish_s;

    const auto placed = lru->insert(page);
    if (placed.evicted && placed.evicted_dirty) {
      write_back_page(t, placed.evicted_page);
    }
    meter.on_transfer(2 * page_bytes);  // fill + serve
    if (banks) banks->touch(placed.bank, t);

    // Sequential readahead rides the same disk operation.
    for (std::uint32_t k = 1; k <= config.readahead_pages; ++k) {
      const std::uint64_t next_page = page + k;
      if (next_page >= total_pages) break;
      if (lru->contains(next_page)) break;  // run already cached
      const auto ra = disk->read(t, next_page, page_bytes);
      ++metrics.readahead_fetches;
      last_disk_finish = ra.finish_s;
      const auto ra_placed = lru->insert(next_page);
      if (ra_placed.evicted && ra_placed.evicted_dirty) {
        write_back_page(t, ra_placed.evicted_page);
      }
      meter.on_transfer(page_bytes);
      if (banks) banks->touch(ra_placed.bank, t);
    }
  }

  // The timer half of step_event: period boundaries, warm-up snapshot and
  // flush ticks through time t, then bank disables, which drain at t. Also
  // the watchdog's forced period close (advance_to), which runs it without
  // an access. Each half costs one compare when nothing is due.
  void advance_timers(double t) {
    if (t >= next_edge) process_edges_until(t);
    if (banks && t >= banks->next_disable_s()) {
      banks->take_due_disables(t, &disable_scratch);
      for (const auto& d : disable_scratch) {
        dirty_scratch.clear();
        lru->invalidate_bank(d.bank, &dirty_scratch);
        write_back(t, dirty_scratch);
      }
    }
  }

  // Binds telemetry and emits the run_begin marker, lazily at the first
  // push, advance or finish. Idempotent.
  void begin_once() {
    if (started) return;
    started = true;
    telem = telemetry::current_run();
    if (telem != nullptr) {
      telem_periods = &telem->table(
          "periods",
          {"start_s", "end_s", "cache_accesses", "disk_accesses",
           "mean_idle_s", "memory_units", "timeout_s", "busy_s",
           "delayed_requests", "realized_j"});
      telem_idle =
          &telem->histogram("idle_interval_s", telemetry::buckets::idle_seconds());
      telem_latency = &telem->histogram("read_latency_s",
                                        telemetry::buckets::latency_seconds());
      telem_spinup = &telem->histogram("spinup_wait_s",
                                       telemetry::buckets::spinup_seconds());
      TELEM_EVENT(kEngine, "run_begin", 0.0, {"duration_s", duration_s},
                  {"warm_up_s", config.warm_up_s},
                  {"disk_count", static_cast<double>(config.disk_count)});
    }
  }

  // Close out the run at `end`: final boundaries and flushes, the shutdown
  // writeback, the last period, warm-up subtraction, and the metric totals.
  RunMetrics finish_run(double end) {
    finished = true;
    JPM_CHECK_MSG(config.warm_up_s < end,
                  "warm-up must be shorter than the run");
    process_edges_until(end);  // takes the snapshot if no event reached it
    // Shutdown flush: no dirty page outlives the run.
    lru->take_dirty_pages(&dirty_scratch);
    write_back(end, dirty_scratch);
    if (period_start < end) close_period(end);
    disk->finalize(end);
    meter.finalize(end);
    if (banks) banks->finalize(end);

    metrics.duration_s = end - config.warm_up_s;
    metrics.spindle_count = disk->spindle_count();
    metrics.disk_energy = disk->energy();
    metrics.mem_energy = meter.breakdown();
    if (banks) metrics.mem_energy.static_j += banks->static_energy_j();
    metrics.disk_busy_s = disk->busy_time_s();
    metrics.disk_shutdowns = disk->shutdowns();
    // Reliability covers the whole run (warm-up included): a degraded
    // spindle stays degraded across the warm-up boundary, so subtracting a
    // snapshot would misstate the counters.
    metrics.reliability = disk->reliability();
    if (manager) metrics.reliability.merge(manager->reliability());

    // Subtract the warm-up window.
    metrics.mem_energy.static_j -=
        snapshot.mem.static_j + snapshot.bank_static_j;
    metrics.mem_energy.dynamic_j -= snapshot.mem.dynamic_j;
    metrics.disk_energy.standby_base_j -= snapshot.disk.standby_base_j;
    metrics.disk_energy.static_j -= snapshot.disk.static_j;
    metrics.disk_energy.transition_j -= snapshot.disk.transition_j;
    metrics.disk_energy.dynamic_j -= snapshot.disk.dynamic_j;
    metrics.disk_busy_s -= snapshot.busy_s;
    metrics.disk_shutdowns -= snapshot.shutdowns;
    metrics.cache_accesses -= snapshot.cache_accesses;
    metrics.disk_accesses -= snapshot.disk_accesses;
    metrics.disk_writes -= snapshot.disk_writes;
    metrics.readahead_fetches -= snapshot.readahead;
    metrics.long_latency_count -= snapshot.long_latency;
    metrics.spin_ups -= snapshot.spin_ups;
    metrics.total_latency_s -= snapshot.latency_s;

    if (telem != nullptr) {
      // Measured-window totals, after warm-up subtraction.
      telem->counter("cache_accesses").add(metrics.cache_accesses);
      telem->counter("disk_accesses").add(metrics.disk_accesses);
      telem->counter("disk_writes").add(metrics.disk_writes);
      telem->counter("spin_ups").add(metrics.spin_ups);
      telem->counter("disk_shutdowns").add(metrics.disk_shutdowns);
      telem->counter("long_latency").add(metrics.long_latency_count);
      TELEM_EVENT(kEngine, "run_end", end,
                  {"mem_j", metrics.mem_energy.total_j()},
                  {"disk_j", metrics.disk_energy.total_j()},
                  {"total_latency_s", metrics.total_latency_s});
    }
    return metrics;
  }

  // ---- push interface (see engine.h) --------------------------------------

  void push_chunk(const double* times, const std::uint64_t* pages,
                  const std::uint8_t* flags, std::size_t n) {
    JPM_CHECK_MSG(!finished, "push after finish");
    // The first chunk pre-sizes the joint collector's first period: a trace
    // replay pushes its whole trace at once, so the per-access push never
    // grows mid-run (the growth ramp re-paid on every run dominated
    // collector time). Capacity only; results do not depend on it.
    if (!started && collector) collector->reserve_events(n);
    begin_once();
    for (std::size_t i = 0; i < n; ++i) {
      step_event(times[i], pages[i],
                 (flags[i] & workload::kTraceFlagWrite) != 0);
    }
  }

  void advance_to(double t) {
    JPM_CHECK_MSG(!finished, "advance after finish");
    begin_once();
    advance_timers(t);
  }

  void set_forced_fallback(bool on) {
    forced_fallback = on;
    if (manager) manager->set_forced_fallback(on);
  }

  RunMetrics finish(double end) {
    JPM_CHECK_MSG(!finished, "Engine::finish is single-shot");
    begin_once();
    return finish_run(end);
  }
};

Engine::Engine(const LiveSource& source, const PolicySpec& policy,
               const EngineConfig& config)
    : impl_(std::make_unique<Impl>(source, policy, config)) {}
Engine::~Engine() = default;

void Engine::push_chunk(const double* times, const std::uint64_t* pages,
                        const std::uint8_t* flags, std::size_t n) {
  impl_->push_chunk(times, pages, flags, n);
}
void Engine::advance_to(double t) { impl_->advance_to(t); }
double Engine::next_boundary_s() const { return impl_->next_boundary; }
double Engine::period_s() const { return impl_->config.joint.period_s; }
void Engine::set_forced_fallback(bool on) { impl_->set_forced_fallback(on); }
void Engine::note_shed(std::uint64_t events) {
  impl_->period_shed_events += events;
}
RunMetrics Engine::finish(double end_s) { return impl_->finish(end_s); }

RunMetrics run_simulation(const workload::SynthesizerConfig& workload,
                          const PolicySpec& policy,
                          const EngineConfig& config) {
  workload::TraceGenerator generator(workload);
  Engine engine(LiveSource{workload.page_bytes, generator.total_pages(),
                           workload.duration_s},
                policy, config);
  constexpr std::size_t kChunkEvents = 4096;
  workload::Trace chunk;
  chunk.reserve(kChunkEvents);
  const auto push = [&] {
    engine.push_chunk(chunk.times.data(), chunk.pages.data(),
                      chunk.flags.data(), chunk.size());
    chunk.times.clear();
    chunk.pages.clear();
    chunk.flags.clear();
  };
  while (auto event = generator.next()) {
    chunk.push_back(*event);
    if (chunk.size() == kChunkEvents) push();
  }
  if (!chunk.empty()) push();
  return engine.finish(workload.duration_s);
}

RunMetrics run_simulation(const workload::Trace& trace,
                          const PolicySpec& policy,
                          const EngineConfig& config) {
  JPM_CHECK_MSG(!trace.empty(), "replay trace is empty");
  // Branchless validation scan (accumulate, check once): a per-element
  // CHECK's early-exit branch kept the compiler from vectorizing what is
  // otherwise a pure ordered reduction over the whole trace — and this scan
  // runs per replay, which a sweep repeats per policy.
  const double* times = trace.times.data();
  const std::size_t count = trace.size();
  // >= (not !<) so a NaN timestamp fails the scan.
  bool sorted = times[0] >= 0.0;
  std::size_t i = 1;
#if defined(__SSE2__)
  // Two compares per vector op; a NaN makes cmple false, clearing its ok
  // bit, so the NaN behaviour above is preserved.
  __m128d ok = _mm_castsi128_pd(_mm_set1_epi32(-1));
  for (; i + 2 <= count; i += 2) {
    ok = _mm_and_pd(ok, _mm_cmple_pd(_mm_loadu_pd(times + i - 1),
                                     _mm_loadu_pd(times + i)));
  }
  sorted &= _mm_movemask_pd(ok) == 3;
#endif
  for (; i < count; ++i) sorted &= times[i] >= times[i - 1];
  JPM_CHECK_MSG(sorted, "replay trace must be time-sorted");

  // Zero geometry derives from the events. Events may trail slightly past
  // a declared duration (the synthesizer admits arrivals up to it and their
  // pages follow); the run still closes its books at the declared duration.
  LiveSource source{trace.page_bytes, trace.total_pages, trace.duration_s};
  if (source.total_pages == 0) {
    source.total_pages =
        *std::max_element(trace.pages.begin(), trace.pages.end()) + 1;
  }
  if (source.duration_hint_s == 0.0) {
    source.duration_hint_s = trace.times.back();
  }
  Engine engine(source, policy, config);
  engine.push_chunk(times, trace.pages.data(), trace.flags.data(), count);
  return engine.finish(source.duration_hint_s);
}

}  // namespace jpm::sim
