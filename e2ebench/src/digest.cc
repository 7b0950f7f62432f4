#include "digest.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace e2e {

void Digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Digest::add_f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add_u64(bits);
}

void Digest::add_str(std::string_view s) {
  add_u64(s.size());
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
}

std::uint64_t digest_run(const jpm::sim::RunMetrics& m) {
  Digest d;
  d.add_str(m.policy_name);
  d.add_f64(m.duration_s);
  d.add_f64(m.mem_energy.static_j);
  d.add_f64(m.mem_energy.dynamic_j);
  d.add_f64(m.disk_energy.standby_base_j);
  d.add_f64(m.disk_energy.static_j);
  d.add_f64(m.disk_energy.transition_j);
  d.add_f64(m.disk_energy.dynamic_j);
  d.add_u64(m.cache_accesses);
  d.add_u64(m.disk_accesses);
  d.add_u64(m.disk_writes);
  d.add_u64(m.readahead_fetches);
  d.add_u64(m.disk_shutdowns);
  d.add_u64(m.spin_ups);
  d.add_f64(m.disk_busy_s);
  d.add_u64(m.spindle_count);
  d.add_f64(m.total_latency_s);
  d.add_u64(m.long_latency_count);
  const auto& r = m.reliability;
  d.add_u64(r.spinup_retries);
  d.add_f64(r.retry_delay_s);
  d.add_u64(r.degraded_spindles);
  d.add_f64(r.degraded_time_s);
  d.add_u64(r.rerouted_requests);
  d.add_u64(r.manager_fallbacks);
  d.add_u64(r.forced_fallbacks);
  d.add_u64(r.violated_periods);
  d.add_u64(r.guard_backoffs);
  d.add_u64(r.server_crashes);
  d.add_u64(r.failed_over_requests);
  d.add_u64(m.periods.size());
  for (const auto& p : m.periods) {
    d.add_f64(p.start_s);
    d.add_f64(p.end_s);
    d.add_u64(p.cache_accesses);
    d.add_u64(p.disk_accesses);
    d.add_f64(p.mean_idle_s);
    d.add_u64(p.memory_units);
    d.add_f64(p.timeout_s);
    d.add_f64(p.busy_s);
    d.add_u64(p.delayed_requests);
    d.add_u64(p.shed_events);
    d.add_u64(p.degraded ? 1 : 0);
  }
  return d.value();
}

std::uint64_t digest_all(const std::vector<std::uint64_t>& digests) {
  Digest d;
  d.add_u64(digests.size());
  for (const std::uint64_t v : digests) d.add_u64(v);
  return d.value();
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string check_run(const jpm::sim::RunMetrics& m, double warm_up_s,
                      std::uint64_t trailing_events) {
  std::ostringstream why;
  const double energies[] = {m.mem_energy.static_j, m.mem_energy.dynamic_j,
                             m.disk_energy.standby_base_j, m.disk_energy.static_j,
                             m.disk_energy.transition_j, m.disk_energy.dynamic_j,
                             m.disk_busy_s, m.total_latency_s};
  for (const double e : energies) {
    if (!std::isfinite(e) || e < 0.0) {
      why << m.policy_name << ": negative or non-finite energy/time figure " << e;
      return why.str();
    }
  }
  if (m.disk_accesses > m.cache_accesses) {
    why << m.policy_name << ": " << m.disk_accesses << " disk accesses exceed "
        << m.cache_accesses << " cache accesses";
    return why.str();
  }
  std::uint64_t period_accesses = 0, period_disk = 0;
  for (const auto& p : m.periods) {
    if (p.start_s >= warm_up_s) {
      period_accesses += p.cache_accesses;
      period_disk += p.disk_accesses;
    }
  }
  if (period_accesses > m.cache_accesses || period_disk > m.disk_accesses ||
      m.cache_accesses - period_accesses > trailing_events ||
      m.disk_accesses - period_disk > m.cache_accesses - period_accesses) {
    why << m.policy_name << ": measured periods sum to " << period_accesses
        << " cache / " << period_disk << " disk accesses, the run reports "
        << m.cache_accesses << " / " << m.disk_accesses << " (" << trailing_events
        << " events at or after the declared duration)";
    return why.str();
  }
  return "";
}

}  // namespace e2e
