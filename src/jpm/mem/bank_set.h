// Per-bank memory power management for the PD (timeout power-down) and DS
// (timeout disable) baseline policies.
//
// Both policies run a 2-competitive timeout per bank: after
// `powerdown_timeout_s` (PD) or `disable_timeout_s` (DS) of bank idleness the
// bank drops to its low-power mode. PD retains data (no behavioural effect,
// only energy); DS loses the bank's contents, so the engine must invalidate
// the bank's cached pages at the moment the disable fires — take_due_disables
// surfaces those moments exactly, in time order.
//
// Energy is integrated lazily per bank (on touch and at finalize), so a touch
// is O(1) for every policy and allocates nothing.
//
// DS deadlines live in an intrusive recency list over the live (not
// disabled) banks. The timeout is one constant and touch times never
// decrease, so the least recently touched live bank is always the next to
// disable: a touch moves its bank to the tail, a disable pops the head, and
// next_disable_s() is the head's deadline. Ties fire in list order. The
// constructor lists the banks in right-first preorder of the implicit binary
// tree over bank ids (children of b are 2b+1 and 2b+2; for 16 banks
// 0 2 6 14 13 5 12 11 1 4 10 9 3 8 7 15), and later touches append in touch
// order. That reproduces the order in which the timer heap this list
// replaced popped equal deadlines, so every run's disable sequence, and the
// cache contents that depend on it, are unchanged. The two orders can differ
// in two cases, which no checked-in scenario reaches:
//   (a) fewer touches than banks before the first disable sweep (a DS run
//       at a few events per second), when the heap's layout was not yet the
//       one its pop order above assumes; and
//   (b) touches on different banks at one instant (readahead, write-allocate,
//       or an event at t = 0 from a file or stream), which the list fires in
//       touch order and the heap fired in an order set by its layout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "jpm/mem/rdram_model.h"
#include "jpm/util/check.h"

namespace jpm::mem {

enum class BankPolicy {
  kNapOnly,    // always-on: banks sit in nap forever
  kPowerDown,  // drop to power-down after powerdown_timeout_s
  kDisable,    // disable (lose data) after disable_timeout_s
};

struct BankDisable {
  std::uint32_t bank;
  double time_s;  // when the disable fired
};

class BankSet {
 public:
  BankSet(std::uint32_t bank_count, const RdramParams& params,
          BankPolicy policy, double start_time_s = 0.0);

  // Marks an access to the bank at time t (t must be nondecreasing across
  // calls). Re-enables a disabled bank.
  void touch(std::uint32_t bank, double t) {
    JPM_CHECK(bank < bank_count());
    integrate(bank, t);
    banks_[bank].last_access = t;
    if (policy_ == BankPolicy::kDisable) {
      if (bank != tail_) {
        if (banks_[bank].prev != kOff) unlink(bank);
        append(bank);
      }
      // The head may be this bank, or have been it before the relink.
      next_disable_s_ = banks_[head_].last_access + timeout_s_;
    }
  }

  // When the next disable fires: +inf unless the policy is kDisable and some
  // bank is live.
  double next_disable_s() const { return next_disable_s_; }

  // Fills `out` (cleared first) with the disables that fired at or before t,
  // in nondecreasing time order. The caller invalidates the corresponding
  // cache contents.
  void take_due_disables(double t, std::vector<BankDisable>* out);

  // Integrates all banks' energy up to t (end of run or period boundary).
  void finalize(double t);

  // Static energy accumulated so far (through the last touch/finalize).
  double static_energy_j() const { return static_energy_j_; }
  std::uint32_t bank_count() const {
    return static_cast<std::uint32_t>(banks_.size());
  }
  bool is_disabled(std::uint32_t bank) const {
    JPM_CHECK(bank < bank_count());
    return banks_[bank].prev == kOff;
  }
  std::uint64_t disable_count() const { return disable_count_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFF;  // no neighbour
  static constexpr std::uint32_t kOff = 0xFFFFFFFE;  // prev of a disabled bank

  struct Bank {
    double last_access;    // last touch (or start)
    double integrated_to;  // energy accounted through this time
    std::uint32_t prev = kNil;  // recency-list links, kDisable only
    std::uint32_t next = kNil;
  };

  void integrate(std::uint32_t bank, double t) {
    Bank& b = banks_[bank];
    const double from = b.integrated_to;
    if (t <= from) return;
    const double cutoff = b.last_access + timeout_s_;
    const double nap_dt = std::clamp(cutoff - from, 0.0, t - from);
    const double low_dt = (t - from) - nap_dt;
    static_energy_j_ += bank_nap_w_ * nap_dt + low_w_ * low_dt;
    b.integrated_to = t;
  }

  void unlink(std::uint32_t bank) {
    const std::uint32_t prev = banks_[bank].prev;
    const std::uint32_t next = banks_[bank].next;
    (prev == kNil ? head_ : banks_[prev].next) = next;
    (next == kNil ? tail_ : banks_[next].prev) = prev;
  }

  void append(std::uint32_t bank) {
    banks_[bank].prev = tail_;
    banks_[bank].next = kNil;
    (tail_ == kNil ? head_ : banks_[tail_].next) = bank;
    tail_ = bank;
  }

  BankPolicy policy_;
  double bank_nap_w_;
  double low_w_ = 0.0;      // after the timeout: nap, power-down or 0 (off)
  double timeout_s_ = 0.0;  // +inf for kNapOnly
  std::vector<Bank> banks_;
  std::uint32_t head_ = kNil;  // next to disable
  std::uint32_t tail_ = kNil;  // most recently touched
  double next_disable_s_ = std::numeric_limits<double>::infinity();
  double static_energy_j_ = 0.0;
  std::uint64_t disable_count_ = 0;
};

}  // namespace jpm::mem
