// Builds a workload::Trace from event literals, for tests:
//   make_trace({{0.5, 100, kTraceFlagStart}, {0.502, 101}}, 64 * kKiB)
#pragma once

#include <cstdint>
#include <initializer_list>

#include "jpm/workload/trace.h"

namespace jpm::test {

inline workload::Trace make_trace(
    std::initializer_list<workload::TraceEvent> events,
    std::uint64_t page_bytes = 0, std::uint64_t total_pages = 0) {
  workload::Trace trace;
  trace.reserve(events.size());
  for (const auto& e : events) trace.push_back(e);
  trace.page_bytes = page_bytes;
  trace.total_pages = total_pages;
  return trace;
}

}  // namespace jpm::test
