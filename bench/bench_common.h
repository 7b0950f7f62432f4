// Shared configuration for the paper-reproduction harnesses.
//
// Every bench binary prints the rows/series of one table or figure from
// "Joint Power Management of Memory and Disk Under Performance Constraints"
// (Cai, Pettis, Lu — TCAD'06; extension of the DATE'05 paper). The default
// scale matches the paper (128 GB physical memory, 16 MB banks, 10-minute
// periods); the trace granularity (256 kB pages, 16x SPECWeb99 file sizes)
// bounds trace length so a full 16-policy sweep runs in seconds per point.
//
// Environment knobs, honored by every bench binary:
//   JPM_BENCH_FAST=1  quarters the simulated duration for smoke runs.
//   JPM_THREADS=N     worker threads for the sweep fan-out (run_sweep
//                     synthesizes each point's trace once and replays it
//                     across N workers; 1 = the exact serial path, default =
//                     hardware concurrency). Tables on stdout are
//                     byte-identical for every N; only wall-clock changes.
//   --telemetry=<base> (or JPM_TELEMETRY=<base>) starts a telemetry session
//                     and writes <base>.report.json, <base>.trace.json, and
//                     <base>.periods.csv at exit. JPM_TELEMETRY_CATEGORIES
//                     narrows the runtime categories ("engine,disk,...").
//                     Telemetry never touches stdout: tables stay
//                     byte-identical whether it is on or off.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "jpm/sim/runner.h"
#include "jpm/spec/run.h"
#include "jpm/spec/spec.h"
#include "jpm/telemetry/export.h"
#include "jpm/telemetry/telemetry.h"
#include "jpm/util/parallel.h"
#include "jpm/util/table.h"

namespace jpm::bench {

inline bool fast_mode() { return spec::fast_mode(); }

// Loads the harness's checked-in scenario (scenarios/<name>.json, or
// $JPM_SCENARIO_DIR/<name>.json), validates it, applies the fast-mode
// schedule when JPM_BENCH_FAST=1, and publishes it to telemetry provenance.
// The migrated harnesses draw workloads/roster/engine/cluster from the
// returned Scenario instead of hand-assembling configs. Unlike
// spec::load_for_run it accepts rosters without an always-on baseline:
// several harnesses read only the engine or workload sections.
inline spec::Scenario load_scenario(const std::string& name) {
  spec::Scenario sc = spec::load_scenario_file(spec::scenario_path(name));
  spec::validate_scenario(sc);
  if (fast_mode()) spec::apply_fast_mode(sc);
  spec::publish_provenance(sc);
  return sc;
}

// One stderr line recording the knobs in effect, so saved bench logs say how
// they were produced; stdout (the tables) stays byte-identical across knob
// settings.
inline void print_run_banner() {
  std::cerr << "jpm-bench: threads=" << util::default_thread_count()
            << (fast_mode() ? ", fast mode (JPM_BENCH_FAST=1)" : "") << "\n";
}

// Harness entry point: prints the banner and, when --telemetry=<base> or
// JPM_TELEMETRY=<base> is given, starts a telemetry session whose artifacts
// are exported at normal process exit. Everything goes to stderr / files;
// stdout tables are unaffected. Unknown arguments are ignored so harnesses
// stay forgiving about how they are invoked.
inline void init(int argc, char** argv) {
  print_run_banner();
  std::string base;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--telemetry=", 12) == 0) base = a + 12;
  }
  if (base.empty()) {
    if (const char* env = std::getenv("JPM_TELEMETRY")) base = env;
  }
  if (base.empty()) return;

  telemetry::Options options;
  if (const char* cats = std::getenv("JPM_TELEMETRY_CATEGORIES")) {
    options.categories = telemetry::category_mask_from_string(cats);
  }
  telemetry::start(options);
  std::cerr << "jpm-bench: telemetry -> " << base
            << ".{report.json,trace.json,periods.csv}\n";
  static std::string exit_base;  // owned past main() for the atexit hook
  exit_base = base;
  std::atexit([] {
    std::string error;
    if (!telemetry::export_files(exit_base, &error)) {
      std::cerr << "jpm-bench: telemetry export failed: " << error << "\n";
    }
    telemetry::stop();
  });
}

// Formatting delegates to the spec layer so the tables a migrated harness
// prints match `jpm run` on the same scenario byte for byte.
inline std::string pct(double fraction) { return spec::pct(fraction); }
inline std::string ms(double seconds) { return spec::ms(seconds); }
inline std::string num(double v, int precision = 2) {
  return spec::num(v, precision);
}

inline void progress_line(const std::string& line) {
  std::cerr << "  " << line << "\n";
}

}  // namespace jpm::bench
