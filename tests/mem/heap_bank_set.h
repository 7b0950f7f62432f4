// The timer-heap BankSet that the per-bank recency list replaced: one
// std::priority_queue entry per DS access, stale entries skipped by
// generation. Kept here only as the differential reference for
// jpm::mem::BankSet (bank_set_test.cc): the two must fire the same
// (bank, time) sequence and sum bit-identical static energy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "jpm/mem/bank_set.h"
#include "jpm/util/check.h"

namespace jpm::mem {

class HeapBankSet {
 public:
  HeapBankSet(std::uint32_t bank_count, const RdramParams& params,
              BankPolicy policy, double start_time_s = 0.0)
      : params_(params),
        policy_(policy),
        bank_nap_w_(params.nap_power_w(params.bank_bytes)),
        bank_pd_w_(params.powerdown_power_w(params.bank_bytes)),
        last_access_(bank_count, start_time_s),
        integrated_to_(bank_count, start_time_s),
        generation_(bank_count, 0),
        disabled_(bank_count, false) {
    JPM_CHECK(bank_count > 0);
    if (policy_ == BankPolicy::kDisable) {
      for (std::uint32_t b = 0; b < bank_count; ++b) {
        timers_.push(Timer{start_time_s + params_.disable_timeout_s, b, 0});
      }
    }
  }

  void touch(std::uint32_t bank, double t) {
    JPM_CHECK(bank < bank_count());
    integrate(bank, t);
    disabled_[bank] = false;
    last_access_[bank] = t;
    const std::uint64_t gen = ++generation_[bank];
    if (policy_ == BankPolicy::kDisable) {
      timers_.push(Timer{t + params_.disable_timeout_s, bank, gen});
    }
  }

  void take_due_disables(double t, std::vector<BankDisable>* out) {
    out->clear();
    while (!timers_.empty() && timers_.top().fire_at <= t) {
      const Timer timer = timers_.top();
      timers_.pop();
      if (timer.generation != generation_[timer.bank]) continue;  // re-touched
      if (disabled_[timer.bank]) continue;
      integrate(timer.bank, timer.fire_at);
      disabled_[timer.bank] = true;
      ++disable_count_;
      out->push_back(BankDisable{timer.bank, timer.fire_at});
    }
  }

  void finalize(double t) {
    for (std::uint32_t b = 0; b < bank_count(); ++b) integrate(b, t);
  }

  double static_energy_j() const { return static_energy_j_; }
  std::uint32_t bank_count() const {
    return static_cast<std::uint32_t>(last_access_.size());
  }
  bool is_disabled(std::uint32_t bank) const {
    JPM_CHECK(bank < bank_count());
    return disabled_[bank];
  }
  std::uint64_t disable_count() const { return disable_count_; }

 private:
  struct Timer {
    double fire_at;
    std::uint32_t bank;
    std::uint64_t generation;
    bool operator>(const Timer& o) const { return fire_at > o.fire_at; }
  };

  void integrate(std::uint32_t bank, double t) {
    const double from = integrated_to_[bank];
    if (t <= from) return;

    double timeout;
    double low_w;
    switch (policy_) {
      case BankPolicy::kNapOnly:
        timeout = std::numeric_limits<double>::infinity();
        low_w = bank_nap_w_;
        break;
      case BankPolicy::kPowerDown:
        timeout = params_.powerdown_timeout_s;
        low_w = bank_pd_w_;
        break;
      case BankPolicy::kDisable:
        timeout = params_.disable_timeout_s;
        low_w = 0.0;  // disabled banks consume nothing
        break;
      default:
        JPM_CHECK_MSG(false, "unknown bank policy");
        return;
    }

    const double cutoff = last_access_[bank] + timeout;
    const double nap_dt = std::clamp(cutoff - from, 0.0, t - from);
    const double low_dt = (t - from) - nap_dt;
    static_energy_j_ += bank_nap_w_ * nap_dt + low_w * low_dt;
    integrated_to_[bank] = t;
  }

  RdramParams params_;
  BankPolicy policy_;
  double bank_nap_w_;
  double bank_pd_w_;
  std::vector<double> last_access_;
  std::vector<double> integrated_to_;
  std::vector<std::uint64_t> generation_;
  std::vector<bool> disabled_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  double static_energy_j_ = 0.0;
  std::uint64_t disable_count_ = 0;
};

}  // namespace jpm::mem
