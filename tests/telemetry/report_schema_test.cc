// Tier-1 smoke test for the telemetry pipeline end to end: runs a real
// bench harness as a subprocess with --telemetry, then validates the
// emitted report against the checked-in schema using a small subset-JSON-
// Schema validator built on the in-repo parser (no third-party deps).
//
// Build wiring (tests/CMakeLists.txt) provides:
//   JPM_SMOKE_BENCH_PATH  — $<TARGET_FILE:bench_models>
//   JPM_SCHEMA_PATH       — tests/telemetry/telemetry_report.schema.json
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "jpm/sim/runner.h"
#include "jpm/telemetry/export.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/util/json.h"

namespace jpm::telemetry {
namespace {

using util::json::Value;

// ---- subset JSON Schema validator -----------------------------------------
// Supports exactly the keywords the checked-in schema uses: type (string or
// array of type names), required, properties, additionalProperties (schema
// for unlisted members), items, enum, minimum. Unknown keywords are ignored,
// as JSON Schema prescribes.

bool type_matches(const std::string& name, const Value& v) {
  if (name == "object") return v.is_object();
  if (name == "array") return v.is_array();
  if (name == "string") return v.is_string();
  if (name == "number") return v.is_number();
  if (name == "boolean") return v.is_bool();
  if (name == "null") return v.is_null();
  return false;
}

void validate(const Value& schema, const Value& v, const std::string& path,
              std::vector<std::string>* errors) {
  const auto& s = schema.as_object();

  if (const Value* type = s.find("type")) {
    bool ok = false;
    if (type->is_string()) {
      ok = type_matches(type->as_string(), v);
    } else {
      for (const auto& t : type->as_array()) {
        ok = ok || type_matches(t.as_string(), v);
      }
    }
    if (!ok) {
      errors->push_back(path + ": type mismatch");
      return;  // further keywords assume the right shape
    }
  }

  if (const Value* allowed = s.find("enum")) {
    bool ok = false;
    for (const auto& candidate : allowed->as_array()) {
      if (candidate.is_string() && v.is_string() &&
          candidate.as_string() == v.as_string()) {
        ok = true;
      }
      if (candidate.is_number() && v.is_number() &&
          candidate.as_number() == v.as_number()) {
        ok = true;
      }
    }
    if (!ok) errors->push_back(path + ": value not in enum");
  }

  if (const Value* minimum = s.find("minimum")) {
    if (v.is_number() && v.as_number() < minimum->as_number()) {
      errors->push_back(path + ": below minimum");
    }
  }

  if (const Value* required = s.find("required"); required && v.is_object()) {
    for (const auto& key : required->as_array()) {
      if (!v.as_object().contains(key.as_string())) {
        errors->push_back(path + ": missing required member \"" +
                          key.as_string() + "\"");
      }
    }
  }

  const Value* properties = s.find("properties");
  const Value* additional = s.find("additionalProperties");
  if (v.is_object() && (properties != nullptr || additional != nullptr)) {
    for (const auto& [key, member] : v.as_object().entries()) {
      const Value* sub =
          properties ? properties->as_object().find(key) : nullptr;
      if (sub == nullptr) sub = additional;
      if (sub != nullptr) {
        validate(*sub, member, path + "." + key, errors);
      }
    }
  }

  if (const Value* items = s.find("items"); items && v.is_array()) {
    for (std::size_t i = 0; i < v.as_array().size(); ++i) {
      validate(*items, v.as_array()[i], path + "[" + std::to_string(i) + "]",
               errors);
    }
  }
}

std::vector<std::string> validate_report(const std::string& report_text) {
  Value schema, report;
  std::string error;
  std::ifstream f(JPM_SCHEMA_PATH);
  std::ostringstream schema_text;
  schema_text << f.rdbuf();
  EXPECT_TRUE(f.good()) << "cannot read schema " << JPM_SCHEMA_PATH;
  EXPECT_TRUE(util::json::parse(schema_text.str(), &schema, &error)) << error;
  EXPECT_TRUE(util::json::parse(report_text, &report, &error)) << error;
  std::vector<std::string> errors;
  validate(schema, report, "$", &errors);
  return errors;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  EXPECT_TRUE(f.good()) << "cannot read " << path;
  return out.str();
}

// The validator itself must not be vacuous: hand it documents that break
// each keyword it claims to implement.
TEST(ReportSchemaValidatorTest, CatchesViolations) {
  EXPECT_FALSE(validate_report("[]").empty());            // type
  EXPECT_FALSE(validate_report("{}").empty());            // required
  EXPECT_FALSE(validate_report(R"({"version": 0, "generator": "jpm-telemetry",
      "categories": 1, "ring_capacity": 1, "runs": [],
      "orphan_events": []})")
                   .empty());                             // minimum
  EXPECT_FALSE(validate_report(R"({"version": 1, "generator": "other",
      "categories": 1, "ring_capacity": 1, "runs": [],
      "orphan_events": []})")
                   .empty());                             // enum
  EXPECT_FALSE(validate_report(R"({"version": 1, "generator": "jpm-telemetry",
      "categories": 1, "ring_capacity": 1, "runs": ["not a run"],
      "orphan_events": []})")
                   .empty());                             // items
}

// An in-process sweep exercises every report section (counters, gauges,
// histograms, tables, events) against the schema.
TEST(ReportSchemaTest, PopulatedInProcessReportValidates) {
  workload::SynthesizerConfig w;
  w.dataset_bytes = mib(128);
  w.byte_rate = 20e6;
  w.popularity = 0.1;
  w.duration_s = 1200.0;
  w.page_bytes = 64 * kKiB;
  w.file_scale = 16.0;
  w.seed = 7;

  sim::EngineConfig e;
  e.joint.physical_bytes = gib(1);
  e.joint.unit_bytes = 16 * kMiB;
  e.joint.page_bytes = 64 * kKiB;
  e.joint.period_s = 300.0;
  e.prefill_cache = true;
  e.warm_up_s = 300.0;

  start({});
  sim::run_sweep({sim::SweepWorkload{"128MB", w, {}, {}}},
                 {sim::joint_policy(), sim::always_on_policy()}, e);
  const std::string report = report_json();
  stop();

  const auto errors = validate_report(report);
  EXPECT_TRUE(errors.empty()) << errors.front() << " (+" << errors.size() - 1
                              << " more)";
}

// Scenario provenance: when a resolved scenario has been published, the
// report embeds it verbatim plus its content hash; when cleared, both fields
// disappear. Either shape must validate against the schema.
TEST(ReportSchemaTest, ScenarioProvenanceAppearsInReport) {
  const std::string scenario =
      R"({"version": 1, "name": "prov", "description": "",
          "workloads": [], "roster": [], "engine": {},
          "output": {"header": "", "tables": []}})";
  set_scenario(scenario, "00000000deadbeef");
  start({});
  sim::run_sweep({sim::SweepWorkload{"64MB", [] {
                     workload::SynthesizerConfig w;
                     w.dataset_bytes = mib(64);
                     w.byte_rate = 20e6;
                     w.duration_s = 300.0;
                     w.page_bytes = 64 * kKiB;
                     return w;
                   }(), {}, {}}},
                 {sim::always_on_policy()}, [] {
                   sim::EngineConfig e;
                   e.joint.physical_bytes = gib(1);
                   e.joint.unit_bytes = 16 * kMiB;
                   e.joint.page_bytes = 64 * kKiB;
                   return e;
                 }());
  const std::string with_provenance = report_json();
  clear_scenario();
  const std::string without_provenance = report_json();
  stop();

  EXPECT_TRUE(validate_report(with_provenance).empty());
  EXPECT_TRUE(validate_report(without_provenance).empty());

  Value report;
  std::string error;
  ASSERT_TRUE(util::json::parse(with_provenance, &report, &error)) << error;
  const Value* embedded = report.as_object().find("scenario");
  ASSERT_NE(embedded, nullptr);
  EXPECT_EQ(embedded->as_object().find("name")->as_string(), "prov");
  const Value* hash = report.as_object().find("scenario_hash");
  ASSERT_NE(hash, nullptr);
  EXPECT_EQ(hash->as_string(), "00000000deadbeef");

  ASSERT_TRUE(
      util::json::parse(without_provenance, &report, &error)) << error;
  EXPECT_EQ(report.as_object().find("scenario"), nullptr);
  EXPECT_EQ(report.as_object().find("scenario_hash"), nullptr);
}

// Trace provenance: file-backed sweeps register every replayed JPMC file and
// its content hash; the report joins them with ";" in sweep-point order.
// Either shape (with or without the fields) must validate.
TEST(ReportSchemaTest, TraceProvenanceAppearsInReport) {
  start({});
  add_trace("a.jpmc", "00000000000000aa");
  add_trace("b.jpmc", "00000000000000bb");
  const std::string with_traces = report_json();
  clear_traces();
  const std::string without_traces = report_json();
  stop();

  EXPECT_TRUE(validate_report(with_traces).empty());
  EXPECT_TRUE(validate_report(without_traces).empty());

  Value report;
  std::string error;
  ASSERT_TRUE(util::json::parse(with_traces, &report, &error)) << error;
  const Value* path = report.as_object().find("trace_path");
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->as_string(), "a.jpmc;b.jpmc");
  const Value* hash = report.as_object().find("trace_hash");
  ASSERT_NE(hash, nullptr);
  EXPECT_EQ(hash->as_string(), "00000000000000aa;00000000000000bb");

  ASSERT_TRUE(util::json::parse(without_traces, &report, &error)) << error;
  EXPECT_EQ(report.as_object().find("trace_path"), nullptr);
  EXPECT_EQ(report.as_object().find("trace_hash"), nullptr);
}

// The zero-to-artifact path a user actually takes: run a bench harness with
// --telemetry and validate what lands on disk. Also checks the "telemetry
// never touches stdout" contract by diffing against a telemetry-off run.
TEST(ReportSchemaTest, BenchHarnessSubprocessReportValidates) {
  const std::string bench = JPM_SMOKE_BENCH_PATH;
  const std::string base = testing::TempDir() + "jpm_schema_smoke";
  const std::string with_out = base + ".stdout";
  const std::string without_out = base + ".stdout_off";

  const std::string run_with = "JPM_BENCH_FAST=1 '" + bench +
                               "' '--telemetry=" + base + "' > '" + with_out +
                               "' 2>/dev/null";
  const std::string run_without = "JPM_BENCH_FAST=1 '" + bench + "' > '" +
                                  without_out + "' 2>/dev/null";
  ASSERT_EQ(std::system(run_with.c_str()), 0) << run_with;
  ASSERT_EQ(std::system(run_without.c_str()), 0) << run_without;

  const std::string report_text = read_file(base + ".report.json");
  const auto errors = validate_report(report_text);
  EXPECT_TRUE(errors.empty()) << errors.front() << " (+" << errors.size() - 1
                              << " more)";

  // The harness loads its scenario through bench::load_scenario, so the
  // report must carry the resolved scenario and its content hash.
  {
    Value report;
    std::string parse_error;
    ASSERT_TRUE(util::json::parse(report_text, &report, &parse_error))
        << parse_error;
    const Value* scenario = report.as_object().find("scenario");
    ASSERT_NE(scenario, nullptr) << "report lacks scenario provenance";
    EXPECT_EQ(scenario->as_object().find("name")->as_string(), "models");
    const Value* hash = report.as_object().find("scenario_hash");
    ASSERT_NE(hash, nullptr);
    EXPECT_EQ(hash->as_string().size(), 16u);
  }

  // trace.json must parse; periods.csv exists (possibly empty for harnesses
  // that run no simulation).
  Value trace;
  std::string error;
  EXPECT_TRUE(
      util::json::parse(read_file(base + ".trace.json"), &trace, &error))
      << error;
  std::ifstream csv(base + ".periods.csv");
  EXPECT_TRUE(csv.good());

  EXPECT_EQ(read_file(with_out), read_file(without_out));

  for (const char* suffix : {".report.json", ".trace.json", ".periods.csv"}) {
    std::remove((base + suffix).c_str());
  }
  std::remove(with_out.c_str());
  std::remove(without_out.c_str());
}

}  // namespace
}  // namespace jpm::telemetry
