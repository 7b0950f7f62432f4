// Lightweight precondition / invariant checking.
//
// JPM_CHECK is always on (simulation correctness beats the last few percent of
// throughput); JPM_DCHECK compiles out in NDEBUG builds and is meant for
// per-access hot paths.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace jpm {

// Thrown when a JPM_CHECK fails. Derives from logic_error: a failed check is a
// programming or configuration error, never an expected runtime condition.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "JPM_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}
}  // namespace detail

}  // namespace jpm

// Inlining overrides for per-event hot-path leaves whose call overhead and
// scheduling opacity the optimizer's heuristics get wrong, and for rare
// branches whose inlined body would crowd the hot path's registers
// (measured, not assumed — see DESIGN.md on the counter-tree descent).
#if defined(__GNUC__) || defined(__clang__)
#define JPM_FORCE_INLINE inline __attribute__((always_inline))
#define JPM_NOINLINE __attribute__((noinline))
#else
#define JPM_FORCE_INLINE inline
#define JPM_NOINLINE
#endif

#define JPM_CHECK(expr)                                              \
  do {                                                               \
    if (!(expr)) ::jpm::detail::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define JPM_CHECK_MSG(expr, msg)                                     \
  do {                                                               \
    if (!(expr)) {                                                   \
      std::ostringstream jpm_check_os;                               \
      jpm_check_os << msg;                                           \
      ::jpm::detail::check_failed(#expr, __FILE__, __LINE__,         \
                                  jpm_check_os.str());               \
    }                                                                \
  } while (0)

#ifdef NDEBUG
#define JPM_DCHECK(expr) ((void)0)
#else
#define JPM_DCHECK(expr) JPM_CHECK(expr)
#endif
