#include "jpm/stream/ring.h"

#include "jpm/util/check.h"

namespace jpm::stream {

namespace {
// Checked before the slots are allocated from it.
std::size_t checked_capacity(std::size_t capacity) {
  JPM_CHECK_MSG(is_power_of_two(capacity) && capacity <= (1u << 30),
                "ring capacity must be a power of two in [1, 2^30]");
  return capacity;
}
}  // namespace

EventRing::EventRing(std::size_t capacity)
    : capacity_(checked_capacity(capacity)),
      mask_(capacity - 1),
      slots_(new Slot[capacity]) {
  for (std::size_t i = 0; i < capacity_; ++i) {
    slots_[i].sequence.store(2 * i, std::memory_order_relaxed);
  }
}

// Slot sequence encoding: 2*ticket = free for the producer holding `ticket`,
// 2*ticket + 1 = published by that producer and awaiting the consumer. The
// parity split keeps the two states disjoint for every capacity — the
// classic `seq = ticket + 1` publish value collides with the *next*
// producer ticket's free state when capacity == 1.

bool EventRing::try_push(const StreamEvent& event) {
  std::uint64_t ticket = tail_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = slots_[ticket & mask_];
    const std::uint64_t seq = slot.sequence.load(std::memory_order_acquire);
    const std::int64_t dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(2 * ticket);
    if (dif == 0) {
      // The slot is free for this ticket; claim it. A failed CAS means
      // another producer took the ticket — reload and retry with theirs.
      if (tail_.compare_exchange_weak(ticket, ticket + 1,
                                      std::memory_order_relaxed)) {
        slot.event = event;
        slot.sequence.store(2 * ticket + 1, std::memory_order_release);
        return true;
      }
    } else if (dif < 0) {
      // The slot still holds the event of `ticket - capacity`: ring full.
      return false;
    } else {
      // Another producer is ahead; chase the current tail.
      ticket = tail_.load(std::memory_order_relaxed);
    }
  }
}

bool EventRing::try_pop(StreamEvent* out) {
  const std::uint64_t ticket = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  const std::uint64_t seq = slot.sequence.load(std::memory_order_acquire);
  const std::int64_t dif = static_cast<std::int64_t>(seq) -
                           static_cast<std::int64_t>(2 * ticket + 1);
  if (dif < 0) return false;  // next event not published yet
  // Single consumer: nobody else touches head_, a plain ordered store
  // suffices (relaxed — producers never read head_).
  *out = slot.event;
  head_.store(ticket + 1, std::memory_order_relaxed);
  // Recycle the slot for the producer `capacity` tickets ahead.
  slot.sequence.store(2 * (ticket + capacity_), std::memory_order_release);
  return true;
}

std::size_t EventRing::pop_chunk(StreamEvent* out, std::size_t max) {
  std::size_t n = 0;
  while (n < max && try_pop(out + n)) ++n;
  return n;
}

std::size_t EventRing::size_approx() const {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  if (tail <= head) return 0;
  const std::uint64_t n = tail - head;
  return n > capacity_ ? capacity_ : static_cast<std::size_t>(n);
}

}  // namespace jpm::stream
