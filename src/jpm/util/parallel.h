// Fork-join parallelism for the simulator's embarrassingly parallel loops
// (policy sweeps, per-server cluster pipelines, per-point trace synthesis).
//
// One schedule: each worker starts with a contiguous slice of [0, n) held in
// a per-worker atomic range (the chunk queue); the owner pops indices from
// the front, and a worker whose slice runs dry steals the back half of a
// victim's remaining range. Straggler-heavy mixes (fault-injected runs,
// skewed sweep grids) rebalance automatically.
//
// Determinism never depends on the schedule: every task writes only its own
// preallocated output slot and reductions happen in fixed index order after
// the join, so results are bit-identical at any JPM_THREADS. Only
// wall-clock differs.
//
// The body is a template parameter — no per-task std::function dispatch on
// the hot path.
//
// Knob (environment):
//   JPM_THREADS  worker count; 1 = the exact serial path, run inline on the
//                caller; unset = std::thread::hardware_concurrency().
//
// Nested parallelism: a parallel_for issued from inside a pool task runs
// inline on that worker (serial). This keeps e.g. a cluster-sweep outer loop
// from multiplying its workers by every inner per-server fan-out, and keeps
// the inner loop's slot-writing determinism trivially intact.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "jpm/util/check.h"

namespace jpm::util {

// Worker count for the parallel_for overload that does not take one:
// JPM_THREADS when set to a positive integer, else hardware concurrency
// (falling back to 1 when that is unknown).
unsigned default_thread_count();

namespace detail {

// Set while the current thread is executing tasks inside a parallel region;
// nested parallel_for calls observe it and run inline. constinit tells every
// includer that the flag needs no dynamic initialization, so it is accessed
// directly rather than through the thread_local wrapper function; on that
// wrapper path GCC 12's UBSan build reports a store to a null pointer.
extern constinit thread_local bool tl_in_parallel_region;

// Shared error slot: the first exception (in worker-observation order) wins;
// once `failed` is set, workers stop starting new tasks.
struct ErrorSlot {
  std::atomic<bool> failed{false};
  std::exception_ptr first;
  std::mutex mu;

  template <typename Fn>
  void run_guarded(Fn&& fn) {
    try {
      fn();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      if (!first) first = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  }
};

// One worker's chunk queue: a half-open index range packed into a single
// atomic word (begin in the high 32 bits, end in the low 32). The owner
// pops from the front, thieves carve off the back half; both go through a
// CAS on the same word, so every index is claimed exactly once. Ranges only
// ever shrink, which rules out ABA.
struct alignas(64) WorkerRange {
  std::atomic<std::uint64_t> range{0};

  static constexpr std::uint64_t pack(std::uint32_t begin, std::uint32_t end) {
    return (static_cast<std::uint64_t>(begin) << 32) | end;
  }
  static constexpr std::uint32_t begin_of(std::uint64_t r) {
    return static_cast<std::uint32_t>(r >> 32);
  }
  static constexpr std::uint32_t end_of(std::uint64_t r) {
    return static_cast<std::uint32_t>(r);
  }

  // Claims the front index of the local range; false when empty.
  bool pop_front(std::uint32_t* out) {
    std::uint64_t r = range.load(std::memory_order_acquire);
    while (begin_of(r) < end_of(r)) {
      const std::uint64_t next = pack(begin_of(r) + 1, end_of(r));
      if (range.compare_exchange_weak(r, next, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        *out = begin_of(r);
        return true;
      }
    }
    return false;
  }

  // Steals the back half of the victim's remaining range; false when there
  // is nothing (or only the index the owner is about to take) to steal.
  bool steal_back(std::uint32_t* steal_begin, std::uint32_t* steal_end) {
    std::uint64_t r = range.load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t b = begin_of(r), e = end_of(r);
      if (e - b < 2) return false;  // leave the owner its current index
      const std::uint32_t mid = b + (e - b + 1) / 2;
      if (range.compare_exchange_weak(r, pack(b, mid),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        *steal_begin = mid;
        *steal_end = e;
        return true;
      }
    }
  }
};

// The stealing loop behind parallel_for, for 2 <= workers <= n: spawns
// workers - 1 threads (the caller is worker 0), runs body(i) for every i in
// [0, n) exactly once, and joins before returning.
template <typename Body>
void run_stealing(std::size_t n, unsigned workers, Body& body) {
  JPM_CHECK_MSG(n <= 0xffffffffull,
                "parallel_for supports at most 2^32 - 1 tasks");
  const auto n32 = static_cast<std::uint32_t>(n);

  // Initial even split of [0, n) into per-worker contiguous slices.
  std::vector<WorkerRange> ranges(workers);
  for (unsigned w = 0; w < workers; ++w) {
    const auto b = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(n32) * w) / workers);
    const auto e = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(n32) * (w + 1)) / workers);
    ranges[w].range.store(WorkerRange::pack(b, e), std::memory_order_relaxed);
  }
  std::atomic<std::size_t> remaining{n};
  ErrorSlot errors;

  const auto run_worker = [&](unsigned self) {
    tl_in_parallel_region = true;
    const auto execute = [&](std::uint32_t i) {
      // A failed task still counts as done: a failed region stops
      // scheduling, and the join below must not wait for tasks nobody will
      // run.
      errors.run_guarded([&] { body(static_cast<std::size_t>(i)); });
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    };
    std::uint32_t i = 0;
    while (!errors.failed.load(std::memory_order_relaxed)) {
      // Drain the local queue first.
      if (ranges[self].pop_front(&i)) {
        execute(i);
        continue;
      }
      // Local queue dry: steal the back half of the fullest victim.
      unsigned victim = workers;
      std::uint32_t best = 1;  // require at least 2 remaining to steal
      for (unsigned step = 1; step < workers; ++step) {
        const unsigned v = (self + step) % workers;
        const std::uint64_t r = ranges[v].range.load(std::memory_order_acquire);
        const std::uint32_t len =
            WorkerRange::end_of(r) - WorkerRange::begin_of(r);
        if (len > best) {
          best = len;
          victim = v;
        }
      }
      std::uint32_t sb = 0, se = 0;
      if (victim < workers && ranges[victim].steal_back(&sb, &se)) {
        ranges[self].range.store(WorkerRange::pack(sb, se),
                                 std::memory_order_release);
        continue;
      }
      // Nothing stealable. Tasks may still be in flight on other workers
      // (whose final splits could become stealable); yield until the
      // region drains rather than exiting early.
      if (remaining.load(std::memory_order_acquire) == 0) break;
      std::this_thread::yield();
    }
    tl_in_parallel_region = false;
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(run_worker, w);
  run_worker(0);  // the caller is worker 0
  for (auto& t : pool) t.join();
  if (errors.first) std::rethrow_exception(errors.first);
}

}  // namespace detail

// Runs body(i) for every i in [0, n) across `workers` threads and returns
// once every task finished. If tasks throw, the first exception (in
// worker-observation order) is rethrown on the caller after all workers
// have stopped; tasks not yet started are skipped. With workers <= 1,
// n <= 1, or from inside another parallel region, the loop runs inline on
// the calling thread, in index order (the serial path).
template <typename Body>
void parallel_for(std::size_t n, unsigned workers, Body&& body) {
  const std::size_t spread =
      std::min<std::size_t>(workers == 0 ? 1 : workers, n);
  if (spread <= 1 || detail::tl_in_parallel_region) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  detail::run_stealing(n, static_cast<unsigned>(spread), body);
}

// Same, with workers = default_thread_count().
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
  parallel_for(n, default_thread_count(), std::forward<Body>(body));
}

}  // namespace jpm::util
