// Tier-1 golden check: every pinned scenario file reproduces its golden
// (stdout, progress lines, report and periods-CSV digests) byte for byte at
// JPM_THREADS=4, and three scenarios that cover the joint manager, write
// traffic and multi-speed disks do so across JPM_THREADS 1/8 x JPM_SCHED
// static/steal. The full threads x scheduler matrix over every file is
// golden_matrix_test, labelled golden-matrix and kept out of tier-1.
#include "golden.h"

namespace jpm::golden {
namespace {

class GoldenScenarioTest : public testing::TestWithParam<std::string> {};

TEST_P(GoldenScenarioTest, MatchesGoldenAtFourThreads) {
  const EnvVar threads("JPM_THREADS", "4");
  const EnvVar sched("JPM_SCHED", nullptr);
  expect_matches_golden(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GoldenScenarioTest, testing::ValuesIn(pinned_scenarios()),
    [](const testing::TestParamInfo<std::string>& info) { return info.param; });

// Every scenario file has a golden: its output, or the error `jpm run`
// rejects it with.
TEST(GoldenTest, EveryScenarioFileIsPinned) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(kScenarioDir)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().stem().string());
    }
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, pinned_scenarios());
}

// The joint manager, write traffic and multi-speed disks reproduce their
// goldens at JPM_THREADS 1 and 8 under both schedulers. (The name dates
// from when this check also swept the engine's batch size; there is one
// per-event loop now, so threads and scheduler are the axes left.)
TEST(GoldenBatchTest, ScenariosAreByteIdenticalAcrossBatchThreadsAndSched) {
  for (const char* scenario : {"ablation_joint", "ext_writes", "ext_drpm"}) {
    for (const char* threads : {"1", "8"}) {
      for (const char* sched : {"static", "steal"}) {
        SCOPED_TRACE(testing::Message() << scenario << " JPM_THREADS="
                                        << threads << " JPM_SCHED=" << sched);
        const EnvVar threads_var("JPM_THREADS", threads);
        const EnvVar sched_var("JPM_SCHED", sched);
        expect_matches_golden(scenario);
      }
    }
  }
}

}  // namespace
}  // namespace jpm::golden
