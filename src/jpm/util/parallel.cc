#include "jpm/util/parallel.h"

#include <cstdlib>
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

}  // namespace jpm::util
