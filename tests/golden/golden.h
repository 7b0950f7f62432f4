// Scenario goldens: the checked-in fast-mode output of every scenario file
// (tests/golden/data, written by tests/golden/regen.py from `jpm run`) and
// the in-process runner the golden tests compare against it. See
// tests/golden/README.md for the file layout and how to regenerate.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "jpm/spec/run.h"
#include "jpm/spec/spec.h"
#include "jpm/telemetry/export.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/util/hash.h"

namespace jpm::golden {

inline const std::string kDataDir = JPM_GOLDEN_DATA_DIR;
inline const std::string kScenarioDir = JPM_SCENARIOS_DIR;

// Sets (or, with nullptr, unsets) an environment variable for one scope.
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVar() {
    if (had_old_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvVar(const EnvVar&) = delete;
  EnvVar& operator=(const EnvVar&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_old_ = false;
};

inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Scenario names with a golden, sorted.
inline std::vector<std::string> pinned_scenarios() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(kDataDir)) {
    const auto ext = entry.path().extension();
    if (ext == ".stdout" || ext == ".error") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

// What `jpm run --telemetry` produces for one scenario file, captured in
// process: stdout, the stderr progress lines (with the CLI's two-space
// indent), and the report and periods CSV it would export.
struct Capture {
  std::string stdout_text;
  std::string progress;
  std::string report;
  std::string periods_csv;
};

inline Capture run_captured(const spec::Scenario& sc) {
  telemetry::clear_traces();
  telemetry::start({});
  Capture out;
  spec::RunOptions options;
  options.progress = [&out](const std::string& line) {
    out.progress += "  " + line + "\n";
  };
  std::ostringstream captured;
  std::streambuf* old = std::cout.rdbuf(captured.rdbuf());
  try {
    spec::run_scenario(sc, options);
  } catch (...) {
    std::cout.rdbuf(old);
    telemetry::stop();
    throw;
  }
  std::cout.rdbuf(old);
  out.stdout_text = captured.str();
  out.report = telemetry::report_json();
  out.periods_csv = telemetry::periods_csv();
  telemetry::stop();
  telemetry::clear_scenario();
  telemetry::clear_traces();
  return out;
}

// Checks one scenario against its golden under the current environment
// (the caller sets JPM_THREADS / JPM_SCHED). Fast mode is always on.
inline void expect_matches_golden(const std::string& name) {
  const EnvVar fast("JPM_BENCH_FAST", "1");
  const std::string path = kScenarioDir + "/" + name + ".json";
  const std::string golden = kDataDir + "/" + name;

  if (const auto error = read_file(golden + ".error")) {
    try {
      spec::load_for_run(path);
      ADD_FAILURE() << name << ": expected `jpm run` to reject the file";
    } catch (const spec::SpecError& e) {
      EXPECT_EQ("error: " + std::string(e.what()) + "\n", *error);
    }
    return;
  }

  const auto want_stdout = read_file(golden + ".stdout");
  const auto want_progress = read_file(golden + ".progress");
  const auto digests = read_file(golden + ".digests");
  ASSERT_TRUE(want_stdout && want_progress && digests)
      << name << ": incomplete golden in " << kDataDir;

  const Capture got = run_captured(spec::load_for_run(path));
  EXPECT_EQ(got.stdout_text, *want_stdout) << name << ": stdout moved";
  EXPECT_EQ(got.progress, *want_progress) << name << ": progress moved";

  std::istringstream lines(*digests);
  std::string key, value;
  int checked = 0;
  while (lines >> key >> value) {
    if (value == "skipped") continue;
    const std::string& text = key == "report" ? got.report : got.periods_csv;
    ASSERT_TRUE(key == "report" || key == "periods") << key;
    EXPECT_EQ(util::hex16(util::fnv1a64(text)), value)
        << name << ": " << key << " digest moved";
    ++checked;
  }
  EXPECT_GE(checked, 1) << name << ": no digests in " << golden << ".digests";
}

}  // namespace jpm::golden
