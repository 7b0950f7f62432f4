#include "jpm/mem/bank_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "heap_bank_set.h"
#include "jpm/util/check.h"
#include "jpm/util/rng.h"

namespace jpm::mem {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

RdramParams test_params() {
  RdramParams p;
  p.bank_bytes = 16 * kMiB;  // 10.5 mW nap
  return p;
}

TEST(BankSetTest, NapOnlyIntegratesConstantPower) {
  const auto p = test_params();
  BankSet banks(4, p, BankPolicy::kNapOnly);
  banks.finalize(100.0);
  EXPECT_NEAR(banks.static_energy_j(),
              4 * p.nap_power_w(p.bank_bytes) * 100.0, 1e-9);
}

TEST(BankSetTest, PowerDownDropsAfterTimeout) {
  auto p = test_params();
  p.powerdown_timeout_s = 10.0;  // exaggerated for visibility
  BankSet banks(1, p, BankPolicy::kPowerDown);
  banks.finalize(100.0);
  const double nap_w = p.nap_power_w(p.bank_bytes);
  const double expected = nap_w * 10.0 + 0.3 * nap_w * 90.0;
  EXPECT_NEAR(banks.static_energy_j(), expected, 1e-9);
}

TEST(BankSetTest, TouchRestartsPowerDownTimer) {
  auto p = test_params();
  p.powerdown_timeout_s = 10.0;
  BankSet banks(1, p, BankPolicy::kPowerDown);
  banks.touch(0, 50.0);  // was: nap 10, pd 40; now restarts
  banks.finalize(100.0);
  const double nap_w = p.nap_power_w(p.bank_bytes);
  // [0,10] nap, [10,50] pd, [50,60] nap, [60,100] pd.
  const double expected = nap_w * 20.0 + 0.3 * nap_w * 80.0;
  EXPECT_NEAR(banks.static_energy_j(), expected, 1e-9);
}

TEST(BankSetTest, DisableFiresAfterTimeout) {
  auto p = test_params();
  p.disable_timeout_s = 30.0;
  BankSet banks(2, p, BankPolicy::kDisable);
  banks.touch(0, 5.0);
  std::vector<BankDisable> fired;
  banks.take_due_disables(40.0, &fired);
  // Bank 1 (never touched) fires at 30; bank 0 fires at 35.
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].bank, 1u);
  EXPECT_NEAR(fired[0].time_s, 30.0, 1e-12);
  EXPECT_EQ(fired[1].bank, 0u);
  EXPECT_NEAR(fired[1].time_s, 35.0, 1e-12);
  EXPECT_TRUE(banks.is_disabled(0));
  EXPECT_TRUE(banks.is_disabled(1));
  EXPECT_EQ(banks.disable_count(), 2u);
}

TEST(BankSetTest, TouchCancelsPendingDisable) {
  auto p = test_params();
  p.disable_timeout_s = 30.0;
  BankSet banks(1, p, BankPolicy::kDisable);
  banks.touch(0, 20.0);
  banks.touch(0, 45.0);
  std::vector<BankDisable> fired;
  banks.take_due_disables(50.0, &fired);
  EXPECT_TRUE(fired.empty());
  banks.take_due_disables(80.0, &fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_NEAR(fired[0].time_s, 75.0, 1e-12);
}

TEST(BankSetTest, DisabledBankConsumesNothing) {
  auto p = test_params();
  p.disable_timeout_s = 10.0;
  BankSet banks(1, p, BankPolicy::kDisable);
  std::vector<BankDisable> fired;
  banks.take_due_disables(10.0, &fired);
  banks.finalize(1000.0);
  const double nap_w = p.nap_power_w(p.bank_bytes);
  EXPECT_NEAR(banks.static_energy_j(), nap_w * 10.0, 1e-9);
}

TEST(BankSetTest, ReenabledBankResumesNap) {
  auto p = test_params();
  p.disable_timeout_s = 10.0;
  BankSet banks(1, p, BankPolicy::kDisable);
  std::vector<BankDisable> fired;
  banks.take_due_disables(10.0, &fired);
  ASSERT_TRUE(banks.is_disabled(0));
  banks.touch(0, 100.0);  // reactivation
  EXPECT_FALSE(banks.is_disabled(0));
  banks.finalize(105.0);
  const double nap_w = p.nap_power_w(p.bank_bytes);
  // nap [0,10], off [10,100], nap [100,105].
  EXPECT_NEAR(banks.static_energy_j(), nap_w * 15.0, 1e-9);
}

TEST(BankSetTest, LazyIntegrationMatchesEagerFinalize) {
  // Touching in several steps must integrate the same energy as one finalize.
  auto p = test_params();
  p.powerdown_timeout_s = 5.0;
  BankSet lazy(3, p, BankPolicy::kPowerDown);
  lazy.touch(1, 7.0);
  lazy.touch(1, 8.0);
  lazy.touch(2, 30.0);
  lazy.finalize(60.0);

  const double nap_w = p.nap_power_w(p.bank_bytes);
  const double pd_w = 0.3 * nap_w;
  // Bank 0: nap 5, pd 55. Bank 1: nap 5 + pd 2 + nap 1 + nap 5 + pd 47.
  // Bank 2: nap 5 + pd 25 + nap 5 + pd 25.
  const double b0 = nap_w * 5 + pd_w * 55;
  const double b1 = nap_w * 5 + pd_w * 2 + nap_w * 1 + nap_w * 5 + pd_w * 47;
  const double b2 = nap_w * 5 + pd_w * 25 + nap_w * 5 + pd_w * 25;
  EXPECT_NEAR(lazy.static_energy_j(), b0 + b1 + b2, 1e-9);
}

TEST(BankSetTest, NoDisablesFromNonDisablePolicies) {
  for (const auto policy : {BankPolicy::kNapOnly, BankPolicy::kPowerDown}) {
    BankSet banks(2, test_params(), policy);
    banks.touch(1, 3.0);
    EXPECT_EQ(banks.next_disable_s(), kInf);
    std::vector<BankDisable> fired{{0, 1.0}};
    banks.take_due_disables(1e9, &fired);
    EXPECT_TRUE(fired.empty());
  }
}

TEST(BankSetTest, RejectsOutOfRangeBank) {
  BankSet banks(2, test_params(), BankPolicy::kNapOnly);
  EXPECT_THROW(banks.touch(2, 1.0), CheckError);
  EXPECT_THROW(banks.is_disabled(5), CheckError);
}

TEST(BankSetTest, RejectsZeroBanks) {
  EXPECT_THROW(BankSet(0, test_params(), BankPolicy::kNapOnly), CheckError);
}

TEST(BankSetTest, NextDisableIsTheLeastRecentlyTouchedDeadline) {
  auto p = test_params();
  p.disable_timeout_s = 30.0;
  BankSet banks(3, p, BankPolicy::kDisable, 2.0);
  EXPECT_EQ(banks.next_disable_s(), 32.0);
  banks.touch(0, 5.0);
  banks.touch(1, 6.0);
  banks.touch(2, 7.0);
  EXPECT_EQ(banks.next_disable_s(), 35.0);
  banks.touch(0, 8.0);  // bank 1 is now the least recently touched
  EXPECT_EQ(banks.next_disable_s(), 36.0);
  std::vector<BankDisable> fired;
  banks.take_due_disables(37.0, &fired);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].bank, 1u);
  EXPECT_EQ(fired[1].bank, 2u);
  EXPECT_EQ(banks.next_disable_s(), 38.0);
  banks.take_due_disables(38.0, &fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(banks.next_disable_s(), kInf);  // every bank disabled
  banks.touch(2, 50.0);
  EXPECT_FALSE(banks.is_disabled(2));
  EXPECT_EQ(banks.next_disable_s(), 80.0);
}

// Equal deadlines fire in the order the replaced timer heap popped them:
// never-touched banks in right-first preorder of the binary tree over bank
// ids, and banks touched at one instant in touch order.
TEST(BankSetTest, NeverTouchedBanksFireInRightFirstPreorder) {
  auto p = test_params();
  p.disable_timeout_s = 10.0;
  BankSet banks(16, p, BankPolicy::kDisable);
  std::vector<BankDisable> fired;
  banks.take_due_disables(10.0, &fired);
  std::vector<std::uint32_t> order;
  for (const auto& d : fired) {
    EXPECT_EQ(d.time_s, 10.0);
    order.push_back(d.bank);
  }
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 2, 6, 14, 13, 5, 12, 11, 1,
                                                4, 10, 9, 3, 8, 7, 15}));
}

TEST(BankSetTest, BanksTouchedAtOneInstantFireInTouchOrder) {
  auto p = test_params();
  p.disable_timeout_s = 10.0;
  BankSet banks(4, p, BankPolicy::kDisable);
  for (const std::uint32_t b : {3u, 1u, 2u, 0u}) banks.touch(b, 5.0);
  std::vector<BankDisable> fired;
  banks.take_due_disables(15.0, &fired);
  std::vector<std::uint32_t> order;
  for (const auto& d : fired) order.push_back(d.bank);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{3, 1, 2, 0}));
}

// The recency list against the timer heap it replaced, over random touch,
// sweep and mid-run finalize sequences: the same fired (bank, time)
// sequence, the same disabled set, and bit-identical static energy after
// every call. Touch times strictly increase, and at least bank_count touches
// land before the first deadline; outside those conditions equal deadlines
// may fire in a different order (see bank_set.h).
TEST(BankSetTest, MatchesTimerHeapOracle) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  auto p = test_params();
  p.powerdown_timeout_s = 0.5;
  p.disable_timeout_s = 40.0;
  std::uint64_t seed = 1;
  for (const auto policy : {BankPolicy::kNapOnly, BankPolicy::kPowerDown,
                            BankPolicy::kDisable}) {
    for (const std::uint32_t n : {1u, 2u, 3u, 16u, 100u, 8192u}) {
      SCOPED_TRACE(::testing::Message()
                   << "policy " << static_cast<int>(policy) << ", " << n
                   << " banks, seed " << seed);
      Rng rng(seed++);
      BankSet list(n, p, policy, 1.0);
      HeapBankSet heap(n, p, policy, 1.0);
      std::vector<BankDisable> got;
      std::vector<BankDisable> want;
      // A hot set keeps some banks live while the rest go idle for long
      // enough to disable and come back.
      const std::uint64_t hot = std::max<std::uint64_t>(1, n / 8);
      double t = 1.0;
      const std::uint64_t steps = 3 * std::uint64_t{n} + 3000;
      for (std::uint64_t i = 0; i < steps; ++i) {
        if (i < n) {
          t += rng.uniform(0.01, 1.0) * (p.disable_timeout_s / 2) / n;
        } else {
          const double u = rng.uniform();
          t += 1e-3 + (u < 0.02 ? rng.uniform(0.0, 2.5 * p.disable_timeout_s)
                                : rng.exponential(0.3));
        }
        if (rng.chance(0.3)) {
          list.take_due_disables(t, &got);
          heap.take_due_disables(t, &want);
          ASSERT_EQ(got.size(), want.size()) << "sweep at t=" << t;
          for (std::size_t k = 0; k < got.size(); ++k) {
            ASSERT_EQ(got[k].bank, want[k].bank) << "fire " << k;
            ASSERT_EQ(bits(got[k].time_s), bits(want[k].time_s));
          }
        }
        if (rng.chance(0.01)) {
          list.finalize(t);
          heap.finalize(t);
        }
        const auto bank = static_cast<std::uint32_t>(
            rng.chance(0.7) ? rng.uniform_index(hot)
                                : rng.uniform_index(n));
        list.touch(bank, t);
        heap.touch(bank, t);
        ASSERT_EQ(bits(list.static_energy_j()), bits(heap.static_energy_j()))
            << "touch " << i;
      }
      list.finalize(t + 1.0);
      heap.finalize(t + 1.0);
      EXPECT_EQ(bits(list.static_energy_j()), bits(heap.static_energy_j()));
      EXPECT_EQ(list.disable_count(), heap.disable_count());
      for (std::uint32_t b = 0; b < n; ++b) {
        ASSERT_EQ(list.is_disabled(b), heap.is_disabled(b)) << "bank " << b;
      }
      if (policy == BankPolicy::kDisable) {
        EXPECT_GT(list.disable_count(), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace jpm::mem
