// OrderedProgress: progress lines from concurrently completing jobs reach
// the sink in job order, never completion order — unit tests on the buffer
// itself plus the run_sweep regression that the full progress stream is
// byte-identical between the serial path and a work-stealing fan-out.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "jpm/sim/runner.h"
#include "jpm/util/check.h"

namespace jpm::sim {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

TEST(OrderedProgressTest, BuffersUntilTheContiguousPrefixIsReady) {
  std::vector<std::string> seen;
  OrderedProgress p(4, [&](const std::string& l) { seen.push_back(l); });

  p.emit(2, "c");
  EXPECT_TRUE(seen.empty());  // job 0 and 1 still outstanding
  p.emit(0, "a");
  EXPECT_EQ(seen, (std::vector<std::string>{"a"}));
  p.emit(1, "b");
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b", "c"}));
  p.emit(3, "d");
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(OrderedProgressTest, InOrderEmitsFlushImmediately) {
  std::vector<std::string> seen;
  OrderedProgress p(3, [&](const std::string& l) { seen.push_back(l); });
  p.emit(0, "a");
  p.emit(1, "b");
  p.emit(2, "c");
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(OrderedProgressTest, ReverseCompletionFlushesAllAtTheEnd) {
  std::vector<std::string> seen;
  OrderedProgress p(5, [&](const std::string& l) { seen.push_back(l); });
  for (std::size_t job = 4; job > 0; --job) {
    p.emit(job, std::string(1, static_cast<char>('a' + job)));
    EXPECT_TRUE(seen.empty());
  }
  p.emit(0, "a");
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b", "c", "d", "e"}));
}

TEST(OrderedProgressTest, DoubleEmitIsAContractViolation) {
  OrderedProgress p(2, [](const std::string&) {});
  p.emit(0, "a");
  EXPECT_THROW(p.emit(0, "again"), CheckError);
}

// ---- run_sweep regression ---------------------------------------------------

workload::SynthesizerConfig progress_workload(std::uint64_t seed) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(64);
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = 600.0;
  w.page_bytes = 64 * kKiB;
  w.seed = seed;
  return w;
}

std::vector<std::string> sweep_progress_lines(const char* threads) {
  ScopedEnv t("JPM_THREADS", threads);
  EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = 64 * kKiB;
  e.joint.period_s = 300.0;
  e.warm_up_s = 300.0;
  const std::vector<SweepWorkload> points = {
      {"A", progress_workload(5), {}, {}}, {"B", progress_workload(6), {}, {}}};
  const std::vector<PolicySpec> roster = {always_on_policy(), joint_policy()};
  std::vector<std::string> lines;
  run_sweep(points, roster, e,
            [&](const std::string& line) { lines.push_back(line); });
  return lines;
}

TEST(OrderedProgressTest, SweepProgressIsInPointOrderNotCompletionOrder) {
  // The serial path defines the expected stream: point-major, each point's
  // baseline first. A stolen 8-worker fan-out completes jobs in some other
  // order but must print the very same sequence.
  const auto serial = sweep_progress_lines("1");
  ASSERT_EQ(serial.size(), 4u);
  EXPECT_EQ(serial[0].rfind("[A] ", 0), 0u) << serial[0];
  EXPECT_EQ(serial[1].rfind("[A] ", 0), 0u) << serial[1];
  EXPECT_EQ(serial[2].rfind("[B] ", 0), 0u) << serial[2];
  EXPECT_EQ(serial[3].rfind("[B] ", 0), 0u) << serial[3];

  EXPECT_EQ(sweep_progress_lines("8"), serial);
}

}  // namespace
}  // namespace jpm::sim
