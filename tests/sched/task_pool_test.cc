// The work-stealing scheduler's own contract, tested with explicit worker
// counts (parallel_test.cc covers the env-driven parallel_for surface):
// every index runs exactly once, exceptions propagate and stop scheduling, a
// straggler's initial range is rebalanced onto other workers, and nested
// parallel_for calls run inline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "jpm/util/parallel.h"

namespace jpm::util {
namespace {

// ---- WorkerRange: the packed atomic chunk queue ----------------------------

TEST(WorkerRangeTest, PackRoundTripsBeginAndEnd) {
  const std::uint64_t r = detail::WorkerRange::pack(17, 4200000000u);
  EXPECT_EQ(detail::WorkerRange::begin_of(r), 17u);
  EXPECT_EQ(detail::WorkerRange::end_of(r), 4200000000u);
}

TEST(WorkerRangeTest, OwnerPopsFromTheFrontThiefTakesTheBackHalf) {
  detail::WorkerRange r;
  r.range.store(detail::WorkerRange::pack(0, 10));

  std::uint32_t i = 0;
  ASSERT_TRUE(r.pop_front(&i));
  EXPECT_EQ(i, 0u);

  // Remaining [1, 10): 9 indices, mid = 1 + (9 + 1) / 2 = 6.
  std::uint32_t sb = 0, se = 0;
  ASSERT_TRUE(r.steal_back(&sb, &se));
  EXPECT_EQ(sb, 6u);
  EXPECT_EQ(se, 10u);

  // The owner keeps the front [1, 6) in order.
  for (std::uint32_t want = 1; want < 6; ++want) {
    ASSERT_TRUE(r.pop_front(&i));
    EXPECT_EQ(i, want);
  }
  EXPECT_FALSE(r.pop_front(&i));
}

TEST(WorkerRangeTest, RefusesToStealTheOwnersLastIndex) {
  detail::WorkerRange r;
  r.range.store(detail::WorkerRange::pack(3, 4));
  std::uint32_t sb = 0, se = 0;
  EXPECT_FALSE(r.steal_back(&sb, &se));
  std::uint32_t i = 0;
  ASSERT_TRUE(r.pop_front(&i));
  EXPECT_EQ(i, 3u);
  EXPECT_FALSE(r.pop_front(&i));
  EXPECT_FALSE(r.steal_back(&sb, &se));
}

// ---- exactly-once coverage --------------------------------------------------

void expect_exactly_once(std::size_t n, unsigned workers) {
  std::vector<std::atomic<int>> counts(n);
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);
  parallel_for(n, workers, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPoolTest, StealCoversEveryIndexExactlyOnce) {
  expect_exactly_once(1000, 8);
  expect_exactly_once(257, 7);  // uneven initial split
  expect_exactly_once(2, 2);
}

TEST(TaskPoolTest, MoreWorkersThanTasksStillCoversAll) {
  // Chunk exhaustion: spread clamps to n, several workers start with empty
  // or single-index slices and must neither double-execute nor hang.
  expect_exactly_once(3, 16);
  expect_exactly_once(5, 4);
}

TEST(TaskPoolTest, RepeatedSmallRegionsStress) {
  // Many short-lived regions back to back: spawn/join and the steal CAS
  // paths race-hunted under TSan.
  for (int iter = 0; iter < 200; ++iter) {
    expect_exactly_once(33, 5);
  }
}

TEST(TaskPoolTest, ZeroTasksNeverInvokeTheBody) {
  bool called = false;
  parallel_for(0, 8, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(TaskPoolTest, SingleTaskRunsInlineOnTheCaller) {
  std::thread::id id;
  parallel_for(1, 8, [&](std::size_t) { id = std::this_thread::get_id(); });
  EXPECT_EQ(id, std::this_thread::get_id());
}

// ---- exception propagation --------------------------------------------------

TEST(TaskPoolTest, StealPropagatesTheWorkerException) {
  try {
    parallel_for(100, 4, [](std::size_t i) {
      if (i == 7) throw std::runtime_error("boom at 7");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 7");
  }
}

TEST(TaskPoolTest, StealStopsSchedulingAfterAFailure) {
  // The caller (worker 0) owns index 0 and throws immediately; the other
  // workers' tasks each burn a little CPU, so they cannot drain the whole
  // region before observing the failed flag. The join must still terminate
  // even though tasks were skipped (the failing task counts as done).
  std::atomic<std::size_t> executed{0};
  const std::size_t n = 20000;
  EXPECT_THROW(parallel_for(n, 4,
                            [&](std::size_t i) {
                              if (i == 0) throw std::runtime_error("early");
                              std::atomic<int> spin{0};
                              while (spin.fetch_add(
                                         1, std::memory_order_relaxed) < 50) {
                              }
                              executed.fetch_add(1,
                                                 std::memory_order_relaxed);
                            }),
               std::runtime_error);
  EXPECT_LT(executed.load(), n);
}

// ---- rebalancing and nesting ------------------------------------------------

TEST(TaskPoolTest, StragglersInitialRangeIsStolenByIdleWorkers) {
  // Worker 0 (the caller) sleeps on its first index; its remaining initial
  // slice [1, 16) must be finished by thieves while it sleeps.
  const std::size_t n = 64;
  const unsigned workers = 4;
  std::vector<std::thread::id> ran_on(n);
  parallel_for(n, workers, [&](std::size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ran_on[i] = std::this_thread::get_id();
  });
  bool any_stolen = false;
  for (std::size_t i = 1; i < n / workers; ++i) {
    any_stolen |= ran_on[i] != ran_on[0];
  }
  EXPECT_TRUE(any_stolen)
      << "no thief took over the straggler's initial range";
}

TEST(TaskPoolTest, NestedParallelForRunsInlineOnTheWorker) {
  // A parallel_for issued from inside a pool task must run serially on that
  // worker: the inner loop appends to an unsynchronized per-outer vector and
  // the recorded order/thread prove no second level of fan-out happened.
  const std::size_t outer_n = 3, inner_n = 5;
  std::vector<std::vector<std::size_t>> order(outer_n);
  std::vector<std::thread::id> outer_id(outer_n);
  std::vector<std::vector<std::thread::id>> inner_id(outer_n);
  ASSERT_FALSE(detail::tl_in_parallel_region);
  parallel_for(outer_n, 3, [&](std::size_t o) {
    outer_id[o] = std::this_thread::get_id();
    parallel_for(inner_n, 8, [&, o](std::size_t i) {
      order[o].push_back(i);
      inner_id[o].push_back(std::this_thread::get_id());
    });
  });
  EXPECT_FALSE(detail::tl_in_parallel_region);
  for (std::size_t o = 0; o < outer_n; ++o) {
    ASSERT_EQ(order[o].size(), inner_n);
    for (std::size_t i = 0; i < inner_n; ++i) {
      EXPECT_EQ(order[o][i], i);  // serial, in order
      EXPECT_EQ(inner_id[o][i], outer_id[o]);  // on the outer task's thread
    }
  }
}

}  // namespace
}  // namespace jpm::util
