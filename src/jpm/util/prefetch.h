// Software-prefetch hint, compiled out on toolchains without the builtin.
//
// Hinting a line a few steps ahead (the tracker's next append slot, a page
// table's entry, the idle sweep's upcoming nodes) overlaps cache misses
// that otherwise serialize a hot loop. A hint never changes observable
// behavior, so callers are free to prefetch speculative addresses (e.g. a
// predicted counter-tree slot that a compaction may move).
#pragma once

namespace jpm::util {

// The empty volatile asm pins the address as a side effect. Without it,
// GCC's interprocedural pure/const pass classifies helpers whose only body
// is a prefetch as pure functions and deletes every call to them — the
// hints silently vanish from the hot loops they were measured into
// (observed with GCC 12: a prefetch-then-call function compiled to a bare
// tail jump). The asm costs nothing: the address is already in a register
// for the prefetch itself.
inline void prefetch_read(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r"(addr));
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

inline void prefetch_write(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r"(addr));
  __builtin_prefetch(addr, /*rw=*/1, /*locality=*/3);
#else
  (void)addr;
#endif
}

}  // namespace jpm::util
