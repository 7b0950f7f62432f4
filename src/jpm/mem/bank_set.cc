#include "jpm/mem/bank_set.h"

namespace jpm::mem {

BankSet::BankSet(std::uint32_t bank_count, const RdramParams& params,
                 BankPolicy policy, double start_time_s)
    : policy_(policy),
      bank_nap_w_(params.nap_power_w(params.bank_bytes)),
      banks_(bank_count, Bank{start_time_s, start_time_s}) {
  JPM_CHECK(bank_count > 0);
  switch (policy_) {
    case BankPolicy::kNapOnly:
      timeout_s_ = std::numeric_limits<double>::infinity();
      low_w_ = bank_nap_w_;
      break;
    case BankPolicy::kPowerDown:
      timeout_s_ = params.powerdown_timeout_s;
      low_w_ = params.powerdown_power_w(params.bank_bytes);
      break;
    case BankPolicy::kDisable:
      timeout_s_ = params.disable_timeout_s;
      low_w_ = 0.0;  // disabled banks consume nothing
      break;
    default:
      JPM_CHECK_MSG(false, "unknown bank policy");
  }
  if (policy_ != BankPolicy::kDisable) return;

  // Every bank shares the first deadline. List them in right-first preorder
  // of the implicit binary tree over bank ids, the order in which a binary
  // heap filled by ascending pushes pops equal keys (see the header).
  std::vector<std::uint32_t> pending{0};
  while (!pending.empty()) {
    const std::uint32_t bank = pending.back();
    pending.pop_back();
    append(bank);
    // Children of `bank`; the right one is pushed last, so it is listed
    // (with its whole subtree) before the left one.
    const std::uint64_t left = 2 * std::uint64_t{bank} + 1;
    for (std::uint64_t child = left; child <= left + 1; ++child) {
      if (child < bank_count) {
        pending.push_back(static_cast<std::uint32_t>(child));
      }
    }
  }
  next_disable_s_ = start_time_s + timeout_s_;
}

void BankSet::take_due_disables(double t, std::vector<BankDisable>* out) {
  out->clear();
  while (next_disable_s_ <= t) {
    const std::uint32_t bank = head_;
    const double fire_at = next_disable_s_;
    unlink(bank);
    banks_[bank].prev = kOff;
    integrate(bank, fire_at);
    ++disable_count_;
    out->push_back(BankDisable{bank, fire_at});
    next_disable_s_ = head_ == kNil
                          ? std::numeric_limits<double>::infinity()
                          : banks_[head_].last_access + timeout_s_;
  }
}

void BankSet::finalize(double t) {
  for (std::uint32_t b = 0; b < bank_count(); ++b) integrate(b, t);
}

}  // namespace jpm::mem
