// SharedModels: one workload model per key across a sweep's jobs, built
// once, handed out model-major and freed after its last job. The stress
// test is written to run under the thread sanitizer.
#include "jpm/workload/shared_models.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "jpm/util/check.h"

namespace jpm::workload {
namespace {

SynthesizerConfig tiny(std::uint64_t seed, double byte_rate = 1e6) {
  SynthesizerConfig c;
  c.dataset_bytes = mib(16);
  c.byte_rate = byte_rate;
  c.duration_s = 10.0;
  c.page_bytes = 64 * kKiB;
  c.file_scale = 4.0;
  c.seed = seed;
  return c;
}

TEST(SharedModelsTest, GroupsJobsByKeyModelMajor) {
  // Jobs alternate between two keys; a third key appears once, last.
  const SharedModels models({tiny(1, 1e6), tiny(2, 1e6), tiny(1, 2e6),
                             tiny(2, 2e6), tiny(1, 4e6), tiny(3)});
  EXPECT_EQ(models.model_count(), 3u);
  EXPECT_EQ(models.order(), (std::vector<std::size_t>{0, 2, 4, 1, 3, 5}));
}

TEST(SharedModelsTest, NonKeyKnobsShareKeyKnobsSplit) {
  auto base = tiny(1);
  auto rate = base;
  rate.byte_rate = 9e6;
  rate.duration_s = 99.0;
  rate.page_bytes = 4 * kKiB;
  rate.rate_modulation = 0.0;
  rate.modulation_period_s = 10.0;
  rate.intra_request_spacing_s = 0.1;
  rate.temporal_locality = 0.4;
  rate.locality_window = 3;
  rate.write_fraction = 0.5;
  SharedModels same({base, rate});
  EXPECT_EQ(same.model_count(), 1u);
  const auto a = same.acquire(0);
  EXPECT_EQ(same.acquire(1), a);

  for (int field = 0; field < 4; ++field) {
    auto other = base;
    if (field == 0) other.dataset_bytes = mib(32);
    if (field == 1) other.file_scale = 8.0;
    if (field == 2) other.popularity = 0.3;
    if (field == 3) other.seed = 2;
    SharedModels split({base, other});
    EXPECT_EQ(split.model_count(), 2u) << "key field " << field;
    EXPECT_NE(split.acquire(0), split.acquire(1)) << "key field " << field;
  }
}

TEST(SharedModelsTest, LastAcquireReleasesTheSlot) {
  SharedModels models({tiny(1), tiny(1, 2e6), tiny(1, 3e6)});
  std::weak_ptr<const WorkloadModel> watch;
  {
    const auto first = models.acquire(0);
    watch = first;
    const auto second = models.acquire(1);
    EXPECT_EQ(second, first);
  }
  EXPECT_FALSE(watch.expired());  // job 2 still to come: the slot holds it
  {
    const auto last = models.acquire(2);
    EXPECT_EQ(last, watch.lock());
  }
  EXPECT_TRUE(watch.expired());  // freed with its last job's reference
  EXPECT_THROW(models.acquire(2), CheckError);  // no silent rebuild
}

TEST(SharedModelsTest, FailedBuildLeavesTheSlotForTheNextJob) {
  // Job 0 carries a bad non-key knob, so building from its config throws
  // the validation error; job 1 shares the key and builds instead.
  auto bad = tiny(1);
  bad.byte_rate = -1.0;
  SharedModels models({bad, tiny(1)});
  try {
    models.acquire(0);
    FAIL() << "expected the config's validation error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("byte_rate"), std::string::npos);
  }
  EXPECT_NE(models.acquire(1), nullptr);
}

TEST(SharedModelsTest, ConcurrentAcquiresBuildOnceAndFreeAtLastRelease) {
  constexpr std::size_t kKeys = 6;
  constexpr std::size_t kJobsPerKey = 24;
  constexpr unsigned kThreads = 8;
  std::vector<SynthesizerConfig> jobs;
  for (std::size_t j = 0; j < kJobsPerKey; ++j) {
    for (std::size_t key = 0; key < kKeys; ++key) {
      jobs.push_back(tiny(key + 1, 1e6 * static_cast<double>(j + 1)));
    }
  }
  std::atomic<int> builds[kKeys] = {};
  std::weak_ptr<const WorkloadModel> built[kKeys];
  SharedModels models(jobs, [&](const SynthesizerConfig& c) {
    const auto model = build_model(c);
    ++builds[c.seed - 1];
    built[c.seed - 1] = model;  // written once per key, under its slot lock
    return model;
  });

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> released[kKeys] = {};
  std::atomic<int> wrong_model{0};
  std::atomic<int> freed_early{0};
  std::atomic<int> not_freed{0};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kThreads; ++w) {
    threads.emplace_back([&] {
      for (std::size_t k; (k = next.fetch_add(1)) < jobs.size();) {
        const std::size_t job = models.order()[k];
        const std::size_t key = jobs[job].seed - 1;
        {
          const auto model = models.acquire(job);
          if (!(model->key() == WorkloadKey::of(jobs[job]))) ++wrong_model;
          if (built[key].lock() != model) ++freed_early;
        }
        if (released[key].fetch_add(1) + 1 == kJobsPerKey &&
            !built[key].expired()) {
          ++not_freed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(builds[key].load(), 1) << "key " << key;
    EXPECT_TRUE(built[key].expired()) << "key " << key;
  }
  EXPECT_EQ(wrong_model.load(), 0);
  EXPECT_EQ(freed_early.load(), 0);
  EXPECT_EQ(not_freed.load(), 0);
}

}  // namespace
}  // namespace jpm::workload
