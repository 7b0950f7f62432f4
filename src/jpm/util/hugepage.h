// Transparent-huge-page hint for large hot-path allocations.
//
// Its caller is LruCache's frame-node array: 24 bytes per frame of physical
// memory (201 MB at 128 GB and 16 kB pages), reserved up front and spliced
// at random by the per-event loop. On 4 KiB pages that working set
// overflows the dTLB, so nearly every splice adds a page walk on top of its
// cache miss. Most distros ship THP in `madvise` mode, where the kernel only
// uses 2 MiB pages for ranges that ask; this helper is that ask. Purely
// advisory: results, determinism, and portability are unaffected (non-Linux
// builds compile it away), and callers may pass any heap range — the hint
// is applied to the whole-page subrange.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace jpm::util {

// Worth asking only for ranges that span multiple 2 MiB pages.
inline constexpr std::size_t kHugepageAdviseMinBytes = std::size_t{4} << 20;

inline void advise_hugepages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (p == nullptr || bytes < kHugepageAdviseMinBytes) return;
  constexpr std::uintptr_t kPage = 4096;
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (base + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t hi = (base + bytes) & ~(kPage - 1);
  if (hi > lo) {
    // Best-effort: EINVAL/ENOMEM just means no huge pages here.
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace jpm::util
