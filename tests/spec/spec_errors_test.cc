// Error contract of jpm::spec: every rejection names the JSON path of the
// offending value, so a typo in a 200-line scenario file points at the exact
// key instead of "parse failed".
#include <gtest/gtest.h>

#include <string>

#include "jpm/sim/policies.h"
#include "jpm/spec/spec.h"
#include "jpm/util/json.h"

namespace jpm::spec {
namespace {

using util::json::Value;

Value parse(const std::string& text) {
  Value v;
  std::string error;
  EXPECT_TRUE(util::json::parse(text, &v, &error)) << error;
  return v;
}

// Runs `fn`, requires a SpecError, and returns its message for substring
// checks (EXPECT_THROW would lose the message).
template <typename Fn>
std::string error_of(Fn fn) {
  try {
    fn();
  } catch (const SpecError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected SpecError";
  return {};
}

TEST(SpecErrorTest, UnknownKeyNamesFullPath) {
  const std::string msg = error_of([] {
    disk_from_json(parse(R"({"idle_watts": 7.5})"), "$.engine.joint.disk");
  });
  EXPECT_EQ(msg, "$.engine.joint.disk.idle_watts: unknown key");
}

TEST(SpecErrorTest, UnknownKeyInNestedObject) {
  const std::string msg = error_of([] {
    engine_from_json(parse(R"({"joint": {"mem": {"bank_byte": 1}}})"), "$");
  });
  EXPECT_EQ(msg, "$.joint.mem.bank_byte: unknown key");
}

TEST(SpecErrorTest, WrongTypeNamesExpectedAndActual) {
  EXPECT_EQ(error_of([] {
              disk_from_json(parse(R"({"idle_w": "high"})"), "$.disk");
            }),
            "$.disk.idle_w: expected number, got string");
  EXPECT_EQ(error_of([] {
              engine_from_json(parse(R"({"prefill_cache": 1})"), "$");
            }),
            "$.prefill_cache: expected boolean, got number");
  EXPECT_EQ(error_of([] { disk_from_json(parse("[]"), "$.disk"); }),
            "$.disk: expected object, got array");
}

TEST(SpecErrorTest, IntegerFieldsRejectFractionsAndNegatives) {
  EXPECT_EQ(error_of([] {
              workload_from_json(parse(R"({"seed": 1.5})"), "$.w");
            }),
            "$.w.seed: expected a nonnegative integer, got 1.5");
  EXPECT_EQ(error_of([] {
              workload_from_json(parse(R"({"dataset_bytes": -1})"), "$.w");
            }),
            "$.w.dataset_bytes: expected a nonnegative integer, got -1");
}

TEST(SpecErrorTest, BadEnumListsEveryValidName) {
  EXPECT_EQ(error_of([] {
              policy_from_json(parse(R"({"disk": "sometimes_on"})"), "$.p");
            }),
            "$.p.disk: unknown value \"sometimes_on\" (expected one of "
            "two_competitive, adaptive, predictive, always_on, joint)");
  EXPECT_EQ(error_of([] {
              policy_from_json(parse(R"({"mem": "off"})"), "$.p");
            }),
            "$.p.mem: unknown value \"off\" (expected one of "
            "fixed, power_down, disable, nap_all, joint)");
}

TEST(SpecErrorTest, UnsupportedVersionRejected) {
  EXPECT_EQ(error_of([] { parse_scenario(R"({"version": 2})"); }),
            "$.version: unsupported scenario version (expected 1)");
}

TEST(SpecErrorTest, MalformedJsonReportsDocumentRoot) {
  const std::string msg = error_of([] { parse_scenario("{\"name\": "); });
  EXPECT_EQ(msg.rfind("$: malformed JSON", 0), 0u) << msg;
}

TEST(SpecErrorTest, RosterPresetErrors) {
  EXPECT_EQ(error_of([] { roster_from_json(parse("{}"), "$.roster"); }),
            "$.roster: missing required key \"preset\"");
  EXPECT_EQ(error_of([] {
              roster_from_json(parse(R"({"preset": "kitchen_sink"})"),
                               "$.roster");
            }),
            "$.roster.preset: unknown value \"kitchen_sink\" "
            "(expected one of paper)");
  EXPECT_EQ(error_of([] {
              roster_from_json(parse(R"({"preset": "paper",
                                         "fm_gib": [8, 2.5]})"),
                               "$.roster");
            }),
            "$.roster.fm_gib[1]: expected a positive integer (GiB)");
}

TEST(SpecErrorTest, WorkloadPointErrors) {
  EXPECT_EQ(error_of([] {
              workloads_from_json(parse(R"([{"workload": {}}])"),
                                  "$.workloads");
            }),
            "$.workloads[0]: missing required key \"label\"");
  EXPECT_EQ(error_of([] {
              workloads_from_json(parse(R"({"base": {}})"), "$.workloads");
            }),
            "$.workloads: missing required key \"points\"");
  EXPECT_EQ(error_of([] {
              workloads_from_json(
                  parse(R"({"points": [{"label": "a", "sed": 3}]})"),
                  "$.workloads");
            }),
            "$.workloads.points[0].sed: unknown key");
}

TEST(SpecErrorTest, GridShapeErrorsNameThePath) {
  EXPECT_EQ(error_of([] {
              workloads_from_json(parse(R"({"grid": {}})"), "$.workloads");
            }),
            "$.workloads.grid: grid needs at least one axis");
  EXPECT_EQ(error_of([] {
              workloads_from_json(parse(R"({"grid": {"seed": []}})"),
                                  "$.workloads");
            }),
            "$.workloads.grid.seed: axis needs at least one value");
  EXPECT_EQ(error_of([] {
              workloads_from_json(parse(R"({"grid": {"seed": 3}})"),
                                  "$.workloads");
            }),
            "$.workloads.grid.seed: expected array, got number");
  EXPECT_EQ(error_of([] {
              workloads_from_json(parse(R"({"grid": {"seed": [1, true]}})"),
                                  "$.workloads");
            }),
            "$.workloads.grid.seed[1]: expected number, got boolean");
}

TEST(SpecErrorTest, GridAxisValuesGoThroughTheWorkloadBinder) {
  // Unknown axis names and per-value range checks fail exactly like the
  // same key would in a workload object, path and all.
  EXPECT_EQ(error_of([] {
              workloads_from_json(parse(R"({"grid": {"sed": [3]}})"),
                                  "$.workloads");
            }),
            "$.workloads.grid.sed: unknown key");
  EXPECT_EQ(error_of([] {
              workloads_from_json(parse(R"({"grid": {"seed": [1.5]}})"),
                                  "$.workloads");
            }),
            "$.workloads.grid.seed: expected a nonnegative integer, got 1.5");
}

TEST(SpecErrorTest, GridAndPointsAreMutuallyExclusive) {
  EXPECT_EQ(error_of([] {
              workloads_from_json(
                  parse(R"({"points": [{"label": "a"}],
                            "grid": {"seed": [1]}})"),
                  "$.workloads");
            }),
            "$.workloads: \"points\" and \"grid\" are mutually exclusive");
}

TEST(SpecErrorTest, GridExpansionIsCapped) {
  WorkloadGrid grid;
  grid.axes.emplace_back("seed", std::vector<double>(400, 1.0));
  grid.axes.emplace_back("byte_rate", std::vector<double>(300, 1e6));
  EXPECT_EQ(error_of([&] { expand_grid(grid, "$.workloads"); }),
            "$.workloads.grid: grid expands past the 100000-point cap");
}

TEST(SpecErrorTest, TraceSourceErrorsNameThePath) {
  EXPECT_EQ(error_of([] {
              workloads_from_json(
                  parse(R"([{"label": "a", "workload": {},
                             "trace": {"path": ""}}])"),
                  "$.workloads");
            }),
            "$.workloads[0].trace.path: trace path must not be empty");
  EXPECT_EQ(error_of([] {
              workloads_from_json(
                  parse(R"([{"label": "a", "workload": {},
                             "trace": {}}])"),
                  "$.workloads");
            }),
            "$.workloads[0].trace.path: trace path must not be empty");
  EXPECT_EQ(error_of([] {
              workloads_from_json(
                  parse(R"([{"label": "a", "workload": {},
                             "trace": {"file": "x.jpmc"}}])"),
                  "$.workloads");
            }),
            "$.workloads[0].trace.file: unknown key");
}

// ---- semantic validation ---------------------------------------------------
// A default-constructed Scenario is valid; each test breaks exactly one rule
// and checks the reported path.

Scenario valid_scenario() {
  Scenario sc;
  sc.name = "errors";
  sc.workloads.push_back({"w", workload::SynthesizerConfig{}, "", {}});
  sc.roster = {sim::always_on_policy(), sim::joint_policy()};
  return sc;
}

TEST(SpecValidateTest, ValidScenarioPasses) {
  EXPECT_NO_THROW(validate_scenario(valid_scenario()));
}

TEST(SpecValidateTest, HalfJointRosterEntryNamesTheEntry) {
  Scenario sc = valid_scenario();
  sc.roster[1].mem = sim::MemPolicyKind::kNapAll;  // joint disk, plain memory
  EXPECT_EQ(error_of([&] { validate_scenario(sc); }),
            "$.roster[1]: joint disk and joint memory policies must be used "
            "together");
}

TEST(SpecValidateTest, FixedMemorySizeBounds) {
  Scenario sc = valid_scenario();
  sc.roster[0] = sim::fixed_policy(sim::DiskPolicyKind::kTwoCompetitive,
                                   gib(8));
  sc.roster[0].fixed_bytes = 0;
  EXPECT_EQ(error_of([&] { validate_scenario(sc); }),
            "$.roster[0].fixed_bytes: fixed memory size must be positive");

  sc.roster[0].fixed_bytes = sc.engine.joint.physical_bytes + 1;
  EXPECT_EQ(error_of([&] { validate_scenario(sc); }),
            "$.roster[0].fixed_bytes: fixed memory size exceeds "
            "physical_bytes");
}

TEST(SpecValidateTest, GeometryErrorsNameEngineKeys) {
  Scenario sc = valid_scenario();
  sc.engine.joint.physical_bytes += 1;  // no longer a whole number of units
  EXPECT_EQ(error_of([&] { validate_scenario(sc); }),
            "$.engine.joint.physical_bytes: physical memory must be a whole "
            "number of units");

  sc = valid_scenario();
  sc.engine.disk_count = 0;
  EXPECT_EQ(error_of([&] { validate_scenario(sc); }),
            "$.engine.disk_count: at least one disk is required");

  sc = valid_scenario();
  sc.workloads[0].workload.page_bytes = 3 * kKiB;  // unit % page != 0
  EXPECT_EQ(error_of([&] { validate_scenario(sc); }),
            "$.workloads[0].workload.page_bytes: engine unit_bytes must be a "
            "whole number of pages");
}

TEST(SpecValidateTest, ComponentValidateMessagesKeepTheirPath) {
  Scenario sc = valid_scenario();
  sc.workloads[0].workload.duration_s = 0.0;
  const std::string msg = error_of([&] { validate_scenario(sc); });
  EXPECT_EQ(msg.rfind("$.workloads[0].workload: ", 0), 0u) << msg;

  sc = valid_scenario();
  sc.engine.joint.disk.idle_w = 0.5;  // below standby_w: invalid power model
  const std::string disk_msg = error_of([&] { validate_scenario(sc); });
  EXPECT_EQ(disk_msg.rfind("$.engine.joint.disk: ", 0), 0u) << disk_msg;
}

TEST(SpecValidateTest, MultiSpeedRequiresSingleDisk) {
  Scenario sc = valid_scenario();
  sc.roster[0] = sim::drpm_fixed_policy(gib(8));
  sc.engine.disk_count = 2;
  EXPECT_EQ(error_of([&] { validate_scenario(sc); }),
            "$.roster[0].multi_speed: multi-speed arrays are not modeled");
}

TEST(SpecErrorTest, LoadScenarioFilePrefixesThePath) {
  const std::string msg = error_of([] {
    load_scenario_file("/nonexistent/jpm_spec_test.json");
  });
  EXPECT_EQ(msg, "/nonexistent/jpm_spec_test.json: cannot open scenario file");
}

}  // namespace
}  // namespace jpm::spec
