// Bounded lock-free MPSC event ring (jpm::stream).
//
// The daemon-side ingress queue: any number of producer threads publish
// StreamEvents with try_push, exactly one consumer thread drains them with
// try_pop / pop_chunk. The implementation is the classic bounded
// sequence-number queue (Vyukov) restricted to a single consumer:
//
//   * Capacity is a power of two; slot index = ticket & (capacity - 1).
//   * Each slot carries a sequence counter in a doubled ticket space
//     (2*ticket = free, 2*ticket + 1 = published, disjoint states for every
//     capacity including 1). A producer claims a ticket with a CAS on
//     `tail_`, writes the event, then *publishes* it by storing the odd
//     sequence with release order; the consumer's acquire load of the
//     sequence is the only synchronization an event needs. No locks, no
//     unbounded spinning: a full ring fails the push immediately and the
//     caller applies its overload policy.
//   * Slots are cache-line padded so two producers publishing neighboring
//     tickets never write the same line; head_, tail_, and the closed flag
//     live on their own lines for the same reason.
//
// try_push never blocks and never spuriously fails when space is available;
// try_pop never blocks and consumes events in ticket (publication) order,
// which for a single producer is its push order (per-producer FIFO holds in
// general). close() is the producer-side EOF: consumers observe
// closed() && a drained ring as end-of-stream.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "jpm/workload/trace.h"

namespace jpm::stream {

// One live cache access entering the daemon: the trace's own event record.
using StreamEvent = workload::TraceEvent;

class EventRing {
 public:
  // Capacity must be a power of two in [1, 2^30].
  explicit EventRing(std::size_t capacity);
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  // Producer side (any thread). Returns false when the ring is full; the
  // event is not enqueued and the caller decides (block, shed, degrade).
  bool try_push(const StreamEvent& event);

  // Consumer side (exactly one thread). Returns false when no published
  // event is available.
  bool try_pop(StreamEvent* out);
  // Pops up to `max` events into `out`; returns the count (possibly 0).
  std::size_t pop_chunk(StreamEvent* out, std::size_t max);

  // Producer-side EOF marker. Idempotent; events already published remain
  // poppable (drain before treating the stream as finished).
  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }
  // End-of-stream: closed and every published event consumed. Consumer-side
  // check (a racing producer may still be mid-push before close()).
  bool drained() const { return closed() && size_approx() == 0; }

  std::size_t capacity() const { return capacity_; }
  // Published-but-unconsumed count; exact when producers are quiescent,
  // otherwise a point-in-time approximation (clamped to [0, capacity]).
  std::size_t size_approx() const;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> sequence;
    StreamEvent event;
  };

  const std::size_t capacity_;
  const std::uint64_t mask_;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // next producer ticket
  alignas(64) std::atomic<std::uint64_t> head_{0};  // next consumer ticket
  alignas(64) std::atomic<bool> closed_{false};
};

// True iff n is a power of two (and nonzero).
constexpr bool is_power_of_two(std::uint64_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

}  // namespace jpm::stream
