// Field-by-field RunMetrics equality for the sweep and trajectory-group
// tests: every counter, energy term, reliability figure and period record
// must match exactly (EXPECT_EQ on doubles, not a tolerance).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "jpm/sim/metrics.h"

namespace jpm::sim {

inline void expect_bit_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.mem_energy.static_j, b.mem_energy.static_j);
  EXPECT_EQ(a.mem_energy.dynamic_j, b.mem_energy.dynamic_j);
  EXPECT_EQ(a.disk_energy.standby_base_j, b.disk_energy.standby_base_j);
  EXPECT_EQ(a.disk_energy.static_j, b.disk_energy.static_j);
  EXPECT_EQ(a.disk_energy.transition_j, b.disk_energy.transition_j);
  EXPECT_EQ(a.disk_energy.dynamic_j, b.disk_energy.dynamic_j);
  EXPECT_EQ(a.cache_accesses, b.cache_accesses);
  EXPECT_EQ(a.disk_accesses, b.disk_accesses);
  EXPECT_EQ(a.disk_writes, b.disk_writes);
  EXPECT_EQ(a.readahead_fetches, b.readahead_fetches);
  EXPECT_EQ(a.disk_shutdowns, b.disk_shutdowns);
  EXPECT_EQ(a.spin_ups, b.spin_ups);
  EXPECT_EQ(a.disk_busy_s, b.disk_busy_s);
  EXPECT_EQ(a.spindle_count, b.spindle_count);
  EXPECT_EQ(a.total_latency_s, b.total_latency_s);
  EXPECT_EQ(a.long_latency_count, b.long_latency_count);
  EXPECT_EQ(a.reliability.spinup_retries, b.reliability.spinup_retries);
  EXPECT_EQ(a.reliability.retry_delay_s, b.reliability.retry_delay_s);
  EXPECT_EQ(a.reliability.degraded_spindles, b.reliability.degraded_spindles);
  EXPECT_EQ(a.reliability.degraded_time_s, b.reliability.degraded_time_s);
  EXPECT_EQ(a.reliability.rerouted_requests, b.reliability.rerouted_requests);
  EXPECT_EQ(a.reliability.manager_fallbacks, b.reliability.manager_fallbacks);
  EXPECT_EQ(a.reliability.forced_fallbacks, b.reliability.forced_fallbacks);
  EXPECT_EQ(a.reliability.violated_periods, b.reliability.violated_periods);
  EXPECT_EQ(a.reliability.guard_backoffs, b.reliability.guard_backoffs);
  EXPECT_EQ(a.reliability.server_crashes, b.reliability.server_crashes);
  EXPECT_EQ(a.reliability.failed_over_requests,
            b.reliability.failed_over_requests);
  ASSERT_EQ(a.periods.size(), b.periods.size());
  for (std::size_t p = 0; p < a.periods.size(); ++p) {
    EXPECT_EQ(a.periods[p].start_s, b.periods[p].start_s);
    EXPECT_EQ(a.periods[p].end_s, b.periods[p].end_s);
    EXPECT_EQ(a.periods[p].cache_accesses, b.periods[p].cache_accesses);
    EXPECT_EQ(a.periods[p].disk_accesses, b.periods[p].disk_accesses);
    EXPECT_EQ(a.periods[p].mean_idle_s, b.periods[p].mean_idle_s);
    EXPECT_EQ(a.periods[p].memory_units, b.periods[p].memory_units);
    EXPECT_EQ(a.periods[p].timeout_s, b.periods[p].timeout_s);
    EXPECT_EQ(a.periods[p].busy_s, b.periods[p].busy_s);
    EXPECT_EQ(a.periods[p].delayed_requests, b.periods[p].delayed_requests);
    EXPECT_EQ(a.periods[p].shed_events, b.periods[p].shed_events);
    EXPECT_EQ(a.periods[p].degraded, b.periods[p].degraded);
  }
}

}  // namespace jpm::sim
