// The full golden matrix: every pinned scenario file at JPM_THREADS 1 and 4.
// Not tier-1 (it runs the heaviest sweeps serially); run it with
// `ctest -L golden-matrix`.
#include "golden.h"

namespace jpm::golden {
namespace {

class GoldenMatrixTest : public testing::TestWithParam<std::string> {};

TEST_P(GoldenMatrixTest, MatchesGoldenAcrossThreadsAndSchedulers) {
  for (const char* threads : {"1", "4"}) {
    SCOPED_TRACE(testing::Message() << "JPM_THREADS=" << threads);
    const EnvVar t("JPM_THREADS", threads);
    expect_matches_golden(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GoldenMatrixTest, testing::ValuesIn(pinned_scenarios()),
    [](const testing::TestParamInfo<std::string>& info) { return info.param; });

}  // namespace
}  // namespace jpm::golden
