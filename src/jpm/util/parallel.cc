#include "jpm/util/parallel.h"

#include <cstdlib>
#include <cstring>
#include <thread>

namespace jpm::util {

namespace detail {
constinit thread_local bool tl_in_parallel_region = false;
}  // namespace detail

unsigned default_thread_count() {
  if (const char* v = std::getenv("JPM_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end != v && n >= 1) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

SchedMode default_sched_mode() {
  if (const char* v = std::getenv("JPM_SCHED")) {
    if (std::strcmp(v, "static") == 0) return SchedMode::kStatic;
    if (std::strcmp(v, "steal") == 0) return SchedMode::kSteal;
  }
  return SchedMode::kSteal;
}

void parallel_for(std::size_t n, unsigned workers,
                  const std::function<void(std::size_t)>& body) {
  TaskPool::run(n, workers, default_sched_mode(),
                [&body](std::size_t i) { body(i); });
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  parallel_for(n, default_thread_count(), body);
}

}  // namespace jpm::util
