#include "jpm/sim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

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
namespace {

// One method of a trajectory group: its disk half, its static memory view,
// and the metrics and telemetry of its run.
struct Member {
  Member(const GroupMember& m, const mem::RdramParams& params,
         std::uint64_t static_bytes)
      : policy(m.policy), given_run(m.telemetry),
        meter(params, static_bytes, 0.0) {
    metrics.policy_name = policy.name;
  }

  PolicySpec policy;
  telemetry::RunRecorder* given_run;

  std::unique_ptr<disk::TimeoutPolicy> timeout_policy;
  disk::DynamicTimeout* dynamic_timeout = nullptr;  // set for joint runs
  std::unique_ptr<disk::Storage> disk;
  // Static memory energy of the FM size or the joint manager's size; sized
  // 0 for the bank policies, whose static energy is their BankSet's. The
  // dynamic half is the engine's, summed once for the group.
  mem::MemoryEnergyMeter meter;
  mem::BankSet* banks = nullptr;  // the engine's set for this bank policy

  // Filled as the run goes for what only this member sees (latency,
  // spin-ups, periods); the group's counters are copied in at finish.
  RunMetrics metrics;

  // The member's telemetry run, and whether it must be bound to the thread
  // around the member's work (it is not the run the thread already has).
  // All pointers stay null when no session is active.
  telemetry::RunRecorder* telem = nullptr;
  bool rebind = false;
  telemetry::TableRecorder* telem_periods = nullptr;
  BucketHistogram* telem_idle = nullptr;
  BucketHistogram* telem_latency = nullptr;
  BucketHistogram* telem_spinup = nullptr;
  double telem_prev_energy_j = 0.0;

  // Per-period disk-side quantities (Fig. 9 and period records).
  double period_gap_sum = 0.0;
  std::uint64_t period_gap_count = 0;
  double period_busy_start_s = 0.0;
  std::uint64_t period_delayed_requests = 0;
  double last_disk_finish = 0.0;

  // This member's cumulative totals at the warm-up boundary.
  struct Snapshot {
    double mem_static_j = 0.0;
    double bank_static_j = 0.0;
    disk::DiskEnergyBreakdown disk;
    double busy_s = 0.0;
    std::uint64_t shutdowns = 0;
    std::uint64_t long_latency = 0;
    std::uint64_t spin_ups = 0;
    double latency_s = 0.0;
  } snapshot;
};

// Binds a member's telemetry run to the thread for the scope when it is not
// the thread's run already: a group's other members, while a session is
// active. Otherwise a no-op.
class MemberScope {
 public:
  explicit MemberScope(const Member& m) {
    if (m.rebind) scope_.emplace(m.telem);
  }

 private:
  std::optional<telemetry::ScopedRun> scope_;
};

}  // namespace

struct Engine::Impl {
  EngineConfig config;

  double duration_s = 0.0;  // telemetry annotation only (run_begin)
  std::uint64_t total_pages = 0;

  // One page table shared by the LRU cache and (in joint runs) the
  // stack-distance tracker: the hot loop resolves each event's page with a
  // single lookup and hands the entry to both. Declared before its users so
  // it outlives them.
  cache::PageTable page_table;
  std::unique_ptr<cache::LruCache> lru;
  mem::MemoryEnergyMeter dynamic_meter;  // dynamic energy only (size 0)
  // One BankSet per distinct bank policy among the members (PD, DS or
  // always-on static energy), touched once per access; the DS set, if any,
  // also drives bank invalidation.
  std::vector<std::unique_ptr<mem::BankSet>> banks;
  mem::BankSet* disable_banks = nullptr;

  // Joint-method machinery (a joint method runs alone).
  std::unique_ptr<cache::StackDistanceTracker> tracker;
  std::unique_ptr<core::PeriodStatsCollector> collector;
  std::unique_ptr<core::JointPowerManager> manager;
  std::uint64_t current_units = 0;

  std::vector<Member> members;

  // The cache half's counters, the same for every member.
  std::uint64_t cache_accesses = 0;
  std::uint64_t disk_accesses = 0;  // read misses served by the disk
  std::uint64_t disk_writes = 0;
  std::uint64_t readahead_fetches = 0;

  double next_flush = 0.0;  // next background writeback tick (0 = disabled)
  // The earliest of next_boundary, a pending warm-up snapshot and next_flush:
  // the one compare the per-event loop makes for all three. 0 until the
  // first event, which takes the snapshot or finds the real edge.
  double next_edge = 0.0;

  // Reused across period boundaries and bank disables so the hot loop does
  // not allocate a fresh vector per event.
  std::vector<cache::PageId> dirty_scratch;
  std::vector<mem::BankDisable> disable_scratch;

  // Per-period quantities of the cache half.
  double next_boundary = 0.0;
  double period_start = 0.0;
  std::uint64_t period_cache_accesses = 0;
  std::uint64_t period_disk_accesses = 0;
  // Engines start lazily at the first push and end at finish(); forced
  // fallback / shed counts come from the stream overload policies (see
  // engine.h).
  bool started = false;
  bool finished = false;
  bool forced_fallback = false;
  std::uint64_t period_shed_events = 0;

  // The cache half's cumulative totals at the warm-up boundary, subtracted
  // at the end so reported metrics cover only the measured window.
  struct Snapshot {
    bool taken = false;
    double dynamic_j = 0.0;
    std::uint64_t cache_accesses = 0;
    std::uint64_t disk_accesses = 0;
    std::uint64_t disk_writes = 0;
    std::uint64_t readahead = 0;
  } snapshot;

  Impl(const LiveSource& source, const std::vector<GroupMember>& group,
       const EngineConfig& cfg)
      : config(cfg), dynamic_meter(cfg.joint.mem, 0, 0.0) {
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
    init(source.page_bytes, group);
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

  // A fresh instance of the member's disk timeout policy: its own, then one
  // per spindle of an array. Joint runs make one DynamicTimeout, which the
  // manager retunes each period, and hand each spindle a SharedTimeout view
  // of it.
  std::unique_ptr<disk::TimeoutPolicy> make_timeout_policy(Member& m) {
    const double break_even_s = config.joint.disk.break_even_s();
    switch (m.policy.disk) {
      case DiskPolicyKind::kTwoCompetitive:
        return std::make_unique<disk::FixedTimeout>(break_even_s);
      case DiskPolicyKind::kAdaptive:
        return std::make_unique<disk::AdaptiveTimeout>();
      case DiskPolicyKind::kPredictive:
        return std::make_unique<disk::PredictiveTimeout>(break_even_s);
      case DiskPolicyKind::kAlwaysOn:
        return std::make_unique<disk::NeverTimeout>();
      case DiskPolicyKind::kJoint: {
        if (m.dynamic_timeout != nullptr) {
          return std::make_unique<disk::SharedTimeout>(m.dynamic_timeout);
        }
        auto dynamic = std::make_unique<disk::DynamicTimeout>(break_even_s);
        m.dynamic_timeout = dynamic.get();
        return dynamic;
      }
    }
    JPM_CHECK_MSG(false, "unknown disk policy kind");
    return nullptr;
  }

  // The member's storage backend: multi-speed disk, single spin-down disk,
  // or a striped array with per-disk policy instances.
  void build_disk(Member& m) {
    const auto& jc = config.joint;
    m.timeout_policy = make_timeout_policy(m);
    if (m.policy.multi_speed) {
      JPM_CHECK_MSG(config.disk_count == 1,
                    "multi-speed arrays are not modeled");
      m.disk = std::make_unique<disk::MultiSpeedDisk>(
          disk::drpm_params(jc.disk), 0.0);
    } else if (config.disk_count == 1) {
      if (config.fault.disk_faults_active()) {
        m.disk = std::make_unique<disk::SingleDiskStorage>(
            jc.disk, m.timeout_policy.get(), 0.0, config.fault);
      } else {
        m.disk = std::make_unique<disk::SingleDiskStorage>(
            jc.disk, m.timeout_policy.get(), 0.0);
      }
    } else {
      disk::DiskArrayConfig array_cfg;
      array_cfg.disk_count = config.disk_count;
      array_cfg.stripe_bytes = config.stripe_bytes;
      array_cfg.page_bytes = jc.page_bytes;
      array_cfg.params = jc.disk;
      array_cfg.fault = config.fault;
      m.disk = std::make_unique<disk::DiskArray>(
          array_cfg, [this, &m] { return make_timeout_policy(m); }, 0.0);
    }
  }

  // The member's BankSet: an earlier member's with the same bank policy, or
  // a new one.
  mem::BankSet* bank_set(const Member& m, mem::BankPolicy policy) {
    for (const Member& other : members) {
      if (&other != &m && other.policy.mem == m.policy.mem) return other.banks;
    }
    const auto& jc = config.joint;
    const auto bank_count =
        static_cast<std::uint32_t>(jc.physical_bytes / jc.mem.bank_bytes);
    banks.push_back(
        std::make_unique<mem::BankSet>(bank_count, jc.mem, policy, 0.0));
    if (policy == mem::BankPolicy::kDisable) disable_banks = banks.back().get();
    return banks.back().get();
  }

  void init(std::uint64_t page_bytes, const std::vector<GroupMember>& group) {
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

    JPM_CHECK_MSG(!group.empty(), "an engine needs at least one method");
    for (const GroupMember& g : group) {
      const PolicySpec& p = g.policy;
      JPM_CHECK_MSG(p.joint_disk() == p.joint_memory(),
                    "joint disk and joint memory policies must be used "
                    "together");
      if (p.mem == MemPolicyKind::kFixed) {
        JPM_CHECK(p.fixed_bytes > 0 && p.fixed_bytes <= jc.physical_bytes);
      }
      JPM_CHECK_MSG(
          &g == &group.front() ||
              same_trajectory(group.front().policy, p, jc.physical_bytes),
          "\"" << group.front().policy.name << "\" and \"" << p.name
               << "\" do not share a cache trajectory");
    }

    members.reserve(group.size());
    for (const GroupMember& g : group) {
      std::uint64_t static_bytes = 0;
      if (g.policy.mem == MemPolicyKind::kFixed) {
        static_bytes = g.policy.fixed_bytes;
      } else if (g.policy.joint_memory()) {
        static_bytes = jc.physical_bytes;
      }
      Member& m = members.emplace_back(g, jc.mem, static_bytes);
      build_disk(m);
      switch (m.policy.mem) {
        case MemPolicyKind::kNapAll:
          m.banks = bank_set(m, mem::BankPolicy::kNapOnly);
          break;
        case MemPolicyKind::kPowerDown:
          m.banks = bank_set(m, mem::BankPolicy::kPowerDown);
          break;
        case MemPolicyKind::kDisable:
          m.banks = bank_set(m, mem::BankPolicy::kDisable);
          break;
        case MemPolicyKind::kFixed:
        case MemPolicyKind::kJoint:
          break;
      }
    }

    // Cache sized to physical memory; logical capacity per the method.
    const PolicySpec& lead = members.front().policy;
    const std::uint64_t total_frames = jc.physical_bytes / jc.page_bytes;
    const std::uint64_t frames_per_bank = jc.mem.bank_bytes / jc.page_bytes;
    const std::uint64_t capacity_frames =
        lead.mem == MemPolicyKind::kFixed ? lead.fixed_bytes / jc.page_bytes
                                          : total_frames;
    lru = std::make_unique<cache::LruCache>(
        cache::LruCacheOptions{total_frames, frames_per_bank, capacity_frames},
        &page_table);

    if (lead.is_joint()) {
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
      members.front().dynamic_timeout->set_timeout(
          manager->initial_timeout_s());
    } else {
      current_units = lru->capacity() / jc.unit_frames();
    }
    next_boundary = jc.period_s;
    next_flush = config.flush_interval_s;

    if (config.prefill_cache) prefill();
  }

  // Writes one dirty page back to every member's disk. Background traffic:
  // no user-visible latency, but it occupies and wakes the disk like any
  // other access.
  void write_back_page(Member& m, double t, cache::PageId p) {
    m.last_disk_finish =
        m.disk->read(t, p, config.joint.page_bytes).finish_s;
  }
  void write_back_page(double t, cache::PageId p) {
    ++disk_writes;
    for (Member& m : members) {
      const MemberScope scope(m);
      write_back_page(m, t, p);
    }
  }

  // Writes the given dirty pages back to disk (ascending page order keeps
  // most of a flush burst sequential).
  void write_back(double t, const std::vector<cache::PageId>& pages) {
    disk_writes += pages.size();
    for (Member& m : members) {
      const MemberScope scope(m);
      for (cache::PageId p : pages) write_back_page(m, t, p);
    }
  }

  // Every bank set's touch. The guards are inline, so a group without bank
  // policies pays one compare per access and the compiler sinks the
  // frame-to-bank division behind it. Either branch is one call per
  // access, so the hit path keeps `t` and the page in registers.
  JPM_FORCE_INLINE void touch_banks(cache::BankIndex bank, double t) {
    if (banks.size() == 1) {
      banks.front()->touch(bank, t);
    } else if (!banks.empty()) {
      touch_bank_sets(bank, t);
    }
  }
  JPM_NOINLINE void touch_bank_sets(cache::BankIndex bank, double t) {
    for (const auto& set : banks) set->touch(bank, t);
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
    snapshot.dynamic_j = dynamic_meter.breakdown().dynamic_j;
    snapshot.cache_accesses = cache_accesses;
    snapshot.disk_accesses = disk_accesses;
    snapshot.disk_writes = disk_writes;
    snapshot.readahead = readahead_fetches;
    for (Member& m : members) {
      const MemberScope scope(m);
      m.meter.finalize(t);
      m.snapshot.mem_static_j = m.meter.breakdown().static_j;
      if (m.banks) {
        m.banks->finalize(t);  // idempotent at one t for a shared set
        m.snapshot.bank_static_j = m.banks->static_energy_j();
      }
      m.snapshot.disk = m.disk->energy_through(t);
      m.snapshot.busy_s = m.disk->busy_time_s();
      m.snapshot.shutdowns = m.disk->shutdowns();
      m.snapshot.long_latency = m.metrics.long_latency_count;
      m.snapshot.spin_ups = m.metrics.spin_ups;
      m.snapshot.latency_s = m.metrics.total_latency_s;
    }
  }

  // ---- period bookkeeping -------------------------------------------------

  // The member's memory energy so far: its static view plus the group's
  // dynamic energy.
  mem::MemoryEnergyBreakdown memory_energy(const Member& m) const {
    return {m.meter.breakdown().static_j, dynamic_meter.breakdown().dynamic_j};
  }

  // Cumulative realized energy through t (memory + disk + banks). Only
  // called with telemetry enabled: the extra mid-run integrations can move
  // the final energy sums by an ulp, which is invisible in reported output
  // but would break the disabled-mode byte-identical guarantee.
  double telem_energy_through(Member& m, double t) {
    m.meter.finalize(t);
    double j = memory_energy(m).total_j() + m.disk->energy_through(t).total_j();
    if (m.banks) {
      m.banks->finalize(t);
      j += m.banks->static_energy_j();
    }
    return j;
  }

  void close_period(Member& m, double boundary) {
    const double mean_idle =
        m.period_gap_count == 0
            ? 0.0
            : m.period_gap_sum / static_cast<double>(m.period_gap_count);
    if (m.telem_periods != nullptr) {
      const double realized_j =
          telem_energy_through(m, boundary) - m.telem_prev_energy_j;
      m.telem_prev_energy_j += realized_j;
      m.telem_periods->add_row(
          {period_start, boundary,
           static_cast<double>(period_cache_accesses),
           static_cast<double>(period_disk_accesses), mean_idle,
           static_cast<double>(current_units), m.timeout_policy->timeout_s(),
           m.disk->busy_time_s() - m.period_busy_start_s,
           static_cast<double>(m.period_delayed_requests), realized_j});
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
      rec.mean_idle_s = mean_idle;
      rec.memory_units = current_units;
      rec.timeout_s = m.timeout_policy->timeout_s();
      rec.busy_s = m.disk->busy_time_s() - m.period_busy_start_s;
      rec.delayed_requests = m.period_delayed_requests;
      rec.shed_events = period_shed_events;
      rec.degraded = period_shed_events > 0 || forced_fallback;
      m.metrics.periods.push_back(rec);
    }
    m.period_gap_sum = 0.0;
    m.period_gap_count = 0;
    m.period_busy_start_s = m.disk->busy_time_s();
    m.period_delayed_requests = 0;
  }

  // Every member's period closes at `boundary`; then the next one starts.
  void close_periods(double boundary) {
    for (Member& m : members) {
      const MemberScope scope(m);
      close_period(m, boundary);
    }
    period_start = boundary;
    period_cache_accesses = 0;
    period_disk_accesses = 0;
    period_shed_events = 0;
  }

  // The joint manager's period-end decision: memory size and disk timeout.
  void apply_decision(double boundary) {
    Member& m = members.front();
    const MemberScope scope(m);
    core::PeriodStats stats = collector->harvest(boundary);
    const core::JointDecision& d = manager->on_period_end(stats);
    collector->recycle(std::move(stats));
    const std::uint64_t frames = d.memory_units * config.joint.unit_frames();
    dirty_scratch.clear();
    lru->set_capacity(std::max<std::uint64_t>(frames, 1), &dirty_scratch);
    write_back(boundary, dirty_scratch);
    m.meter.set_size(d.memory_bytes, boundary);
    m.dynamic_timeout->set_timeout(d.timeout_s);
    current_units = d.memory_units;
    TELEM_EVENT(kManager, "decision_applied", boundary,
                {"memory_units", static_cast<double>(d.memory_units)},
                {"timeout_s", d.timeout_s});
    if (m.telem != nullptr) {
      m.telem->gauge("memory_units").set(static_cast<double>(d.memory_units));
    }
  }

  void handle_boundary(double boundary) {
    for (Member& m : members) {
      const MemberScope scope(m);
      m.disk->advance(boundary);
    }
    if (manager) apply_decision(boundary);
    close_periods(boundary);
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
  // inline, with no per-member work; the miss tail is out of line so the
  // loop's code stays small.
  void step_event(double t, std::uint64_t page, bool is_write) {
    if (page >= total_pages) [[unlikely]] reject_page(page);
    advance_timers(t);
    ++cache_accesses;
    ++period_cache_accesses;
    if (telemetry::enabled()) advance_disks(t);
    cache::PageEntry* entry = page_table.find_or_insert(page);
    if (tracker) {
      const std::uint64_t depth = tracker->access_at(*entry);
      // Writes never become disk reads, so they stay out of the miss
      // curve and idle prediction; they still age the LRU stack above.
      if (!is_write) collector->on_access(t, depth);
    }

    if (entry->frame != cache::kNoFrame) {
      const auto outcome = lru->touch(entry->frame);
      dynamic_meter.on_transfer(config.joint.page_bytes);
      if (is_write) lru->mark_dirty_frame(entry->frame);
      touch_banks(outcome.bank, t);
      return;
    }

    access_miss(t, page, is_write);
  }

  // A telemetry session records spin-down markers the moment a timeout
  // expires; step_event advances the disks per event in that mode so those
  // markers land in the event stream in simulated-time order
  // (session-wide, not per-run: TELEM_EVENT fires even on threads outside
  // any ScopedRun). Metrics never need it: spin-downs are stamped at their
  // expiry time and every state read (read(), energy_through(),
  // finalize()) advances internally first. Out of line, so the hit path
  // does not carry the member loop.
  JPM_NOINLINE void advance_disks(double t) {
    for (Member& m : members) {
      const MemberScope scope(m);
      m.disk->advance(t);
    }
  }

  // One member's disk half of a read miss: the fetch, plus the latency,
  // spin-up and idle bookkeeping only miss events carry.
  void read_miss(Member& m, double t, std::uint64_t page) {
    const auto res = m.disk->read(t, page, config.joint.page_bytes);
    if (res.triggered_spin_up) {
      ++m.metrics.spin_ups;
      ++m.period_delayed_requests;
    }
    m.metrics.total_latency_s += res.latency_s;
    if (res.latency_s > config.long_latency_threshold_s) {
      ++m.metrics.long_latency_count;
    }
    if (m.telem != nullptr) {
      m.telem_latency->add(res.latency_s);
      if (res.triggered_spin_up) m.telem_spinup->add(res.latency_s);
    }
    if (collector) {
      collector->on_disk_access(res.finish_s - res.start_s,
                                /*delayed=*/res.triggered_spin_up);
    }

    const double gap = t - m.last_disk_finish;
    if (m.telem != nullptr && gap > 0.0) m.telem_idle->add(gap);
    if (gap >= config.joint.window_s) {
      m.period_gap_sum += gap;
      ++m.period_gap_count;
    }
    m.last_disk_finish = res.finish_s;
  }

  // The non-resident tail of step_event: write-allocate or disk read plus
  // install, and readahead.
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
      dynamic_meter.on_transfer(page_bytes);
      touch_banks(placed.bank, t);
      return;
    }

    // Read miss: fetch the page from disk, then install it.
    ++disk_accesses;
    ++period_disk_accesses;
    for (Member& m : members) {
      const MemberScope scope(m);
      read_miss(m, t, page);
    }
    const auto placed = lru->insert(page);
    if (placed.evicted && placed.evicted_dirty) {
      write_back_page(t, placed.evicted_page);
    }
    dynamic_meter.on_transfer(2 * page_bytes);  // fill + serve
    touch_banks(placed.bank, t);

    // Sequential readahead rides the same disk operation.
    for (std::uint32_t k = 1; k <= config.readahead_pages; ++k) {
      const std::uint64_t next_page = page + k;
      if (next_page >= total_pages) break;
      if (lru->contains(next_page)) break;  // run already cached
      ++readahead_fetches;
      for (Member& m : members) {
        const MemberScope scope(m);
        m.last_disk_finish = m.disk->read(t, next_page, page_bytes).finish_s;
      }
      const auto ra_placed = lru->insert(next_page);
      if (ra_placed.evicted && ra_placed.evicted_dirty) {
        write_back_page(t, ra_placed.evicted_page);
      }
      dynamic_meter.on_transfer(page_bytes);
      touch_banks(ra_placed.bank, t);
    }
  }

  // The timer half of step_event: period boundaries, warm-up snapshot and
  // flush ticks through time t, then bank disables, which drain at t. Also
  // the watchdog's forced period close (advance_to), which runs it without
  // an access. Each half costs one compare when nothing is due.
  void advance_timers(double t) {
    if (t >= next_edge) process_edges_until(t);
    if (disable_banks && t >= disable_banks->next_disable_s()) {
      drop_disabled_banks(t);
    }
  }

  // DS: the banks whose disable fired by t lose their pages; dirty ones
  // are written back first.
  JPM_NOINLINE void drop_disabled_banks(double t) {
    disable_banks->take_due_disables(t, &disable_scratch);
    for (const auto& d : disable_scratch) {
      dirty_scratch.clear();
      lru->invalidate_bank(d.bank, &dirty_scratch);
      write_back(t, dirty_scratch);
    }
  }

  // Binds telemetry and emits each member's run_begin marker, lazily at the
  // first push, advance or finish. Idempotent.
  void begin_once() {
    if (started) return;
    started = true;
    telemetry::RunRecorder* const current = telemetry::current_run();
    for (std::size_t a = 0; a < members.size(); ++a) {
      Member& m = members[a];
      m.telem = m.given_run != nullptr ? m.given_run : current;
      m.rebind = m.telem != current;
      for (std::size_t b = 0; b < a; ++b) {
        JPM_CHECK_MSG(m.telem == nullptr || members[b].telem != m.telem,
                      "\"" << members[b].policy.name << "\" and \""
                           << m.policy.name
                           << "\" would record into one telemetry run");
      }
    }
    for (Member& m : members) {
      if (m.telem == nullptr) continue;
      const MemberScope scope(m);
      m.telem_periods = &m.telem->table(
          "periods",
          {"start_s", "end_s", "cache_accesses", "disk_accesses",
           "mean_idle_s", "memory_units", "timeout_s", "busy_s",
           "delayed_requests", "realized_j"});
      m.telem_idle = &m.telem->histogram("idle_interval_s",
                                         telemetry::buckets::idle_seconds());
      m.telem_latency = &m.telem->histogram(
          "read_latency_s", telemetry::buckets::latency_seconds());
      m.telem_spinup = &m.telem->histogram(
          "spinup_wait_s", telemetry::buckets::spinup_seconds());
      TELEM_EVENT(kEngine, "run_begin", 0.0, {"duration_s", duration_s},
                  {"warm_up_s", config.warm_up_s},
                  {"disk_count", static_cast<double>(config.disk_count)});
    }
  }

  // One member's totals at `end`, after warm-up subtraction.
  RunMetrics finish_member(Member& m, double end) {
    m.disk->finalize(end);
    m.meter.finalize(end);
    if (m.banks) m.banks->finalize(end);  // idempotent at one t

    RunMetrics& metrics = m.metrics;
    metrics.duration_s = end - config.warm_up_s;
    metrics.spindle_count = m.disk->spindle_count();
    metrics.disk_energy = m.disk->energy();
    metrics.mem_energy = memory_energy(m);
    if (m.banks) metrics.mem_energy.static_j += m.banks->static_energy_j();
    metrics.disk_busy_s = m.disk->busy_time_s();
    metrics.disk_shutdowns = m.disk->shutdowns();
    metrics.cache_accesses = cache_accesses;
    metrics.disk_accesses = disk_accesses;
    metrics.disk_writes = disk_writes;
    metrics.readahead_fetches = readahead_fetches;
    // Reliability covers the whole run (warm-up included): a degraded
    // spindle stays degraded across the warm-up boundary, so subtracting a
    // snapshot would misstate the counters.
    metrics.reliability = m.disk->reliability();
    if (manager) metrics.reliability.merge(manager->reliability());

    // Subtract the warm-up window.
    const Member::Snapshot& own = m.snapshot;
    metrics.mem_energy.static_j -= own.mem_static_j + own.bank_static_j;
    metrics.mem_energy.dynamic_j -= snapshot.dynamic_j;
    metrics.disk_energy.standby_base_j -= own.disk.standby_base_j;
    metrics.disk_energy.static_j -= own.disk.static_j;
    metrics.disk_energy.transition_j -= own.disk.transition_j;
    metrics.disk_energy.dynamic_j -= own.disk.dynamic_j;
    metrics.disk_busy_s -= own.busy_s;
    metrics.disk_shutdowns -= own.shutdowns;
    metrics.cache_accesses -= snapshot.cache_accesses;
    metrics.disk_accesses -= snapshot.disk_accesses;
    metrics.disk_writes -= snapshot.disk_writes;
    metrics.readahead_fetches -= snapshot.readahead;
    metrics.long_latency_count -= own.long_latency;
    metrics.spin_ups -= own.spin_ups;
    metrics.total_latency_s -= own.latency_s;

    if (m.telem != nullptr) {
      // Measured-window totals, after warm-up subtraction.
      m.telem->counter("cache_accesses").add(metrics.cache_accesses);
      m.telem->counter("disk_accesses").add(metrics.disk_accesses);
      m.telem->counter("disk_writes").add(metrics.disk_writes);
      m.telem->counter("spin_ups").add(metrics.spin_ups);
      m.telem->counter("disk_shutdowns").add(metrics.disk_shutdowns);
      m.telem->counter("long_latency").add(metrics.long_latency_count);
      TELEM_EVENT(kEngine, "run_end", end,
                  {"mem_j", metrics.mem_energy.total_j()},
                  {"disk_j", metrics.disk_energy.total_j()},
                  {"total_latency_s", metrics.total_latency_s});
    }
    // The metrics outlive the engine (a fleet sweep holds 10^5 of them), so
    // the period records leave at their size, not their grown capacity.
    metrics.periods.shrink_to_fit();
    return std::move(metrics);
  }

  // Close out the run at `end`: final boundaries and flushes, the shutdown
  // writeback, the last period, then every member's totals.
  std::vector<RunMetrics> finish_run(double end) {
    finished = true;
    JPM_CHECK_MSG(config.warm_up_s < end,
                  "warm-up must be shorter than the run");
    process_edges_until(end);  // takes the snapshot if no event reached it
    // Shutdown flush: no dirty page outlives the run.
    lru->take_dirty_pages(&dirty_scratch);
    write_back(end, dirty_scratch);
    if (period_start < end) close_periods(end);
    std::vector<RunMetrics> out;
    out.reserve(members.size());
    for (Member& m : members) {
      const MemberScope scope(m);
      out.push_back(finish_member(m, end));
    }
    return out;
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

  std::vector<RunMetrics> finish(double end) {
    JPM_CHECK_MSG(!finished, "Engine::finish is single-shot");
    begin_once();
    return finish_run(end);
  }
};

Engine::Engine(const LiveSource& source, const PolicySpec& policy,
               const EngineConfig& config)
    : Engine(source, std::vector<GroupMember>{{policy, nullptr}}, config) {}
Engine::Engine(const LiveSource& source,
               const std::vector<GroupMember>& members,
               const EngineConfig& config)
    : impl_(std::make_unique<Impl>(source, members, config)) {}
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
RunMetrics Engine::finish(double end_s) {
  JPM_CHECK_MSG(impl_->members.size() == 1,
                "a trajectory group finishes with finish_group");
  return std::move(impl_->finish(end_s).front());
}
std::vector<RunMetrics> Engine::finish_group(double end_s) {
  return impl_->finish(end_s);
}

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
  return std::move(run_simulation(trace, {{policy, nullptr}}, config).front());
}

std::vector<RunMetrics> run_simulation(const workload::Trace& trace,
                                       const std::vector<GroupMember>& members,
                                       const EngineConfig& config) {
  JPM_CHECK_MSG(!trace.empty(), "replay trace is empty");
  // Branchless validation scan (accumulate, check once): a per-element
  // CHECK's early-exit branch kept the compiler from vectorizing what is
  // otherwise a pure ordered reduction over the whole trace — and this scan
  // runs per replay, which a sweep repeats per trajectory group.
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
    const std::uint64_t last =
        *std::max_element(trace.pages.begin(), trace.pages.end());
    if (last == std::numeric_limits<std::uint64_t>::max()) {
      throw std::invalid_argument(
          "event page " + std::to_string(last) +
          " leaves no data-set size to derive (page + 1 overflows); declare "
          "total_pages");
    }
    source.total_pages = last + 1;
  }
  if (source.duration_hint_s == 0.0) {
    source.duration_hint_s = trace.times.back();
  }
  Engine engine(source, members, config);
  engine.push_chunk(times, trace.pages.data(), trace.flags.data(), count);
  return engine.finish_group(source.duration_hint_s);
}

}  // namespace jpm::sim
