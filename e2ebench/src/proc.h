// Host-side process measurements (Linux): CPU time, resident memory.
#pragma once

#include <chrono>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// User + system CPU of the whole process (every thread), in seconds.
double process_cpu_s();
// Peak resident set of the process so far, in MB (2^20 bytes).
double peak_rss_mb();
// Current resident set, in MB.
double current_rss_mb();
// Returns freed heap memory to the OS so a following RSS reading starts
// from what is live.
void trim_heap();

}  // namespace e2e
