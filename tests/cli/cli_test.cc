// Subprocess tests for the `jpm` CLI's exit paths: every failure mode must
// exit non-zero with a path-named message on stderr (never an uncaught
// exception), and the happy paths must exit 0. The binary under test comes
// in via JPM_CLI_PATH; the checked-in scenarios via JPM_SCENARIOS_DIR.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

const std::string kCli = JPM_CLI_PATH;
const std::string kScenarios = JPM_SCENARIOS_DIR;

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CmdResult run_cmd(const std::string& command) {
  CmdResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string demo_scenario() { return kScenarios + "/serve_demo.json"; }

std::string write_temp(const std::string& name, const std::string& contents) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(CliTest, NoArgumentsPrintsUsageAndExitsNonZero) {
  const auto r = run_cmd(kCli);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(CliTest, UnknownCommandExitsNonZero) {
  const auto r = run_cmd(kCli + " frobnicate");
  EXPECT_NE(r.exit_code, 0);
}

TEST(CliTest, MissingScenarioFileNamesThePath) {
  const auto r = run_cmd(kCli + " validate /nonexistent/missing.json");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("/nonexistent/missing.json"), std::string::npos)
      << r.output;
}

TEST(CliTest, RunWithMissingFileExitsOneNotUncaught) {
  const auto r = run_cmd(kCli + " run /nonexistent/missing.json");
  EXPECT_EQ(r.exit_code, 1);  // an uncaught exception would abort (134)
  EXPECT_NE(r.output.find("/nonexistent/missing.json"), std::string::npos)
      << r.output;
}

TEST(CliTest, MalformedScenarioNamesPathAndExitsOne) {
  const auto path = write_temp("cli_test_bad.json", "{\"version\": 1,");
  const auto r = run_cmd(kCli + " validate " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find(path), std::string::npos) << r.output;
}

TEST(CliTest, BadStreamSectionNamesTheJsonPath) {
  // An out-of-range stream knob must be rejected at validate time with the
  // $.stream path in the message.
  std::ifstream in(demo_scenario());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  const std::string needle = "\"ring_capacity\": 4096";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"ring_capacity\": 3");
  const auto path = write_temp("cli_test_bad_stream.json", text);
  const auto r = run_cmd(kCli + " validate " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("$.stream"), std::string::npos) << r.output;
}

TEST(CliTest, ValidateAndHashAcceptTheDemoScenario) {
  const auto v = run_cmd(kCli + " validate " + demo_scenario());
  EXPECT_EQ(v.exit_code, 0) << v.output;
  EXPECT_NE(v.output.find("ok "), std::string::npos);
  const auto h = run_cmd(kCli + " hash " + demo_scenario());
  EXPECT_EQ(h.exit_code, 0);
  EXPECT_EQ(h.output.size(), 17u);  // 16 hex digits + newline
}

TEST(CliTest, PrintReproducesTheCheckedInScenario) {
  const auto r = run_cmd(kCli + " print " + demo_scenario());
  EXPECT_EQ(r.exit_code, 0);
  std::ifstream in(demo_scenario());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(r.output, ss.str());
}

TEST(CliTest, ServeUnknownPolicyListsTheRoster) {
  const auto r =
      run_cmd(kCli + " serve " + demo_scenario() + " --policy=bogus </dev/null");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("no policy named"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("Always-on"), std::string::npos) << r.output;
}

TEST(CliTest, ServeUnknownFormatExitsNonZero) {
  const auto r =
      run_cmd(kCli + " serve " + demo_scenario() + " --format=csv </dev/null");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(CliTest, ServeEmptyStdinFlushesACompleteReport) {
  const auto r = run_cmd(kCli + " serve " + demo_scenario() + " </dev/null");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"kind\": \"serve_report\""), std::string::npos);
  EXPECT_NE(r.output.find("\"interrupted\": false"), std::string::npos);
}

TEST(CliTest, ServeConsumesPipedJsonlEvents) {
  const auto r = run_cmd(
      "printf '{\"t\": 1, \"page\": 0}\\n{\"t\": 2, \"page\": 1}\\n' | " +
      kCli + " serve " + demo_scenario());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"events_processed\": 2"), std::string::npos)
      << r.output;
}

TEST(CliTest, ServeDecodeErrorExitsOneButStillReports) {
  const auto r = run_cmd("printf 'not json\\n' | " + kCli + " serve " +
                         demo_scenario() + " --format=jsonl");
  EXPECT_EQ(r.exit_code, 1);
  // The report is flushed before the error exit, with the position inside.
  EXPECT_NE(r.output.find("\"kind\": \"serve_report\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("line 1"), std::string::npos) << r.output;
}

TEST(CliTest, SynthCountEmitsExactlyNEvents) {
  const auto r =
      run_cmd(kCli + " synth " + demo_scenario() + " --count=5");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::size_t lines = 0;
  for (char c : r.output) lines += c == '\n';
  EXPECT_EQ(lines, 5u);
}

TEST(CliTest, SynthRejectsAutoFormat) {
  const auto r =
      run_cmd(kCli + " synth " + demo_scenario() + " --format=auto");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(CliTest, SynthPipesIntoServeEndToEnd) {
  const auto r = run_cmd(kCli + " synth " + demo_scenario() +
                         " --count=2000 --format=binary | " + kCli +
                         " serve " + demo_scenario() + " --policy=Joint");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"policy\": \"Joint\""), std::string::npos);
  EXPECT_NE(r.output.find("\"wire_format\": \"binary\""), std::string::npos);
  EXPECT_NE(r.output.find("\"events_processed\": 2000"), std::string::npos)
      << r.output;
}

// ---- jpm trace (the JPMC chunked store) ------------------------------------

TEST(CliTest, TraceWithoutSubcommandExitsTwo) {
  EXPECT_EQ(run_cmd(kCli + " trace").exit_code, 2);
  EXPECT_EQ(run_cmd(kCli + " trace frobnicate").exit_code, 2);
}

TEST(CliTest, TraceSynthInfoCatRoundTrip) {
  const std::string file = ::testing::TempDir() + "cli_trace.jpmc";
  const auto synth = run_cmd("JPM_BENCH_FAST=1 " + kCli + " trace synth " +
                             demo_scenario() + " " + file);
  ASSERT_EQ(synth.exit_code, 0) << synth.output;
  EXPECT_NE(synth.output.find("events"), std::string::npos);

  const auto info = run_cmd(kCli + " trace info " + file + " --verify");
  EXPECT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("format:       JPMC v1"), std::string::npos);
  EXPECT_NE(info.output.find("content_hash:"), std::string::npos);
  EXPECT_NE(info.output.find("verify:       ok"), std::string::npos);

  const auto cat = run_cmd(kCli + " trace cat " + file + " --limit=2");
  EXPECT_EQ(cat.exit_code, 0) << cat.output;
  EXPECT_NE(cat.output.find("time_s,page,request_start,is_write"),
            std::string::npos);

  const auto jsonl =
      run_cmd(kCli + " trace cat " + file + " --format=jsonl --limit=1");
  EXPECT_EQ(jsonl.exit_code, 0) << jsonl.output;
  EXPECT_NE(jsonl.output.find("{\"t\":"), std::string::npos);
  std::remove(file.c_str());
}

TEST(CliTest, TracePackConvertsCsvCaptures) {
  const auto csv = write_temp("cli_trace.csv",
                              "time_s,page,request_start\n"
                              "0.5,100,1\n0.502,101,0\n1.25,7,1\n");
  const std::string packed = ::testing::TempDir() + "cli_packed.jpmc";
  const auto pack = run_cmd(kCli + " trace pack " + csv + " " + packed);
  EXPECT_EQ(pack.exit_code, 0) << pack.output;
  const auto info = run_cmd(kCli + " trace info " + packed);
  EXPECT_NE(info.output.find("events:       3"), std::string::npos)
      << info.output;
  EXPECT_NE(info.output.find("total_pages:  102"), std::string::npos)
      << info.output;  // max page + 1, derived from the events
  std::remove(packed.c_str());
}

TEST(CliTest, TraceInfoRejectsNonJpmcFilesByName) {
  const auto path = write_temp("cli_not_a_trace.jpmc",
                               std::string(100, 'x'));  // a full header's worth
  const auto r = run_cmd(kCli + " trace info " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("bad magic"), std::string::npos) << r.output;

  const auto tiny = write_temp("cli_tiny.jpmc", "hi");
  const auto rt = run_cmd(kCli + " trace info " + tiny);
  EXPECT_EQ(rt.exit_code, 1);
  EXPECT_NE(rt.output.find("header truncated"), std::string::npos)
      << rt.output;
}

TEST(CliTest, TraceInfoTruncatedFileNamesTheDefect) {
  const std::string file = ::testing::TempDir() + "cli_trunc.jpmc";
  const auto synth = run_cmd("JPM_BENCH_FAST=1 " + kCli + " trace synth " +
                             demo_scenario() + " " + file);
  ASSERT_EQ(synth.exit_code, 0) << synth.output;
  ASSERT_EQ(run_cmd("truncate -s -40 " + file).exit_code, 0);
  const auto r = run_cmd(kCli + " trace info " + file);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find(file), std::string::npos) << r.output;
  std::remove(file.c_str());
}

// The headline contract end-to-end through the shipped binary: a scenario
// replayed from JPMC files prints byte-identical tables to the synthesizing
// run, and its telemetry report carries the trace provenance.
TEST(CliTest, RunFromTraceFilesMatchesInMemoryStdout) {
  const std::string file = ::testing::TempDir() + "cli_run_trace.jpmc";
  ASSERT_EQ(run_cmd("JPM_BENCH_FAST=1 " + kCli + " trace synth " +
                    demo_scenario() + " " + file)
                .exit_code,
            0);

  // Rewrite the scenario's workload point to replay the file.
  std::ifstream in(demo_scenario());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  const std::string needle = "\"workload\": {";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "\"trace\": {\"path\": \"" + file + "\"},\n      ");
  const auto traced = write_temp("cli_run_traced.json", text);

  // Both runs export telemetry to the same base so the stdout log lines
  // match; the report left on disk is the file-backed run's.
  const std::string base = ::testing::TempDir() + "cli_run_trace";
  const auto mem = run_cmd("JPM_BENCH_FAST=1 " + kCli + " run " +
                           demo_scenario() + " --telemetry=" + base);
  const auto file_backed = run_cmd("JPM_BENCH_FAST=1 " + kCli + " run " +
                                   traced + " --telemetry=" + base);
  EXPECT_EQ(mem.exit_code, 0) << mem.output;
  EXPECT_EQ(file_backed.exit_code, 0) << file_backed.output;
  EXPECT_EQ(file_backed.output, mem.output);

  std::ifstream report(base + ".report.json");
  std::stringstream rs;
  rs << report.rdbuf();
  EXPECT_NE(rs.str().find("\"trace_path\": \"" + file + "\""),
            std::string::npos);
  EXPECT_NE(rs.str().find("\"trace_hash\": \""), std::string::npos);
  std::remove(file.c_str());
}

// A source location in a user-facing error means an internal check fired
// where a named input error belongs.
bool carries_source_location(const std::string& output) {
  return output.find("JPM_CHECK") != std::string::npos ||
         output.find(".cc:") != std::string::npos ||
         output.find(".h:") != std::string::npos;
}

TEST(CliTest, RunRejectsHarnessOnlyScenariosByName) {
  // These files configure bench harnesses and carry no always-on baseline:
  // `jpm validate` accepts them, `jpm run` names the harness instead.
  for (const std::string name : {"ext_pblru", "fig5_pareto", "fig9_timeline",
                                 "micro", "models", "timeout_policies"}) {
    SCOPED_TRACE(name);
    const std::string path = kScenarios + "/" + name + ".json";
    EXPECT_EQ(run_cmd(kCli + " validate " + path).exit_code, 0);
    const auto r = run_cmd(kCli + " run " + path);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(r.output.rfind("error: $.roster: a non-cluster sweep needs "
                             "exactly one always-on baseline",
                             0),
              0u)
        << r.output;
    EXPECT_NE(r.output.find("bench_" + name), std::string::npos) << r.output;
    EXPECT_FALSE(carries_source_location(r.output)) << r.output;
  }
}

TEST(CliTest, RunRejectsTracePagesPastTheDeclaredSize) {
  // The file itself is well formed (pack and info --verify accept it), but
  // page 500 lies outside the 100 pages its header declares.
  const auto csv = write_temp("cli_out_of_range.csv",
                              "time_s,page,request_start\n"
                              "0.5,5,1\n1.0,500,1\n1.5,7,1\n");
  const std::string packed = ::testing::TempDir() + "cli_out_of_range.jpmc";
  const auto pack =
      run_cmd(kCli + " trace pack " + csv + " " + packed +
              " --total-pages=100 --page-bytes=262144 --duration=3600");
  ASSERT_EQ(pack.exit_code, 0) << pack.output;
  EXPECT_EQ(run_cmd(kCli + " trace info " + packed + " --verify").exit_code, 0);

  std::ifstream in(demo_scenario());
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  const std::string needle = "\"workload\": {";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "\"trace\": {\"path\": \"" + packed + "\"},\n      ");
  const auto traced = write_temp("cli_out_of_range.json", text);

  const auto r = run_cmd(kCli + " run " + traced);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error: run: event page 500 is outside the data "
                          "set: the source declares 100 pages"),
            std::string::npos)
      << r.output;
  EXPECT_FALSE(carries_source_location(r.output)) << r.output;
  std::remove(packed.c_str());
}

TEST(CliTest, ServeRejectsPagesPastTheDataSet) {
  const auto r = run_cmd(
      "printf '{\"t\": 1, \"page\": 0}\\n"
      "{\"t\": 2, \"page\": 999999999}\\n' | " +
      kCli + " serve " + demo_scenario());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error: serve: event page 999999999 is outside the "
                          "data set: the source declares "),
            std::string::npos)
      << r.output;
  EXPECT_FALSE(carries_source_location(r.output)) << r.output;
}

TEST(CliTest, TracePackRejectsRemovedJpmtFormatByName) {
  // The legacy JPMT binary format: magic, u32 version, u64 record count.
  std::string jpmt = "JPMT";
  jpmt += std::string("\x02\x00\x00\x00", 4);
  jpmt += std::string("\x01\x00\x00\x00\x00\x00\x00\x00", 8);
  jpmt += std::string(24, '\0');
  const auto path = write_temp("cli_legacy.jpmt", jpmt);
  const auto r = run_cmd(kCli + " trace pack " + path + " " +
                         ::testing::TempDir() + "cli_legacy.jpmc");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(path + ": unrecognized trace format"),
            std::string::npos)
      << r.output;
}

}  // namespace
