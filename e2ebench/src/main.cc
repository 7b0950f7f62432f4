// e2ebench: one run of one benchmark workload.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --scenarios <dir> --out <dir> [--expect <digest>] [--first-rep <k>]
//
// --trace 0 repeats the untraced workload until --seconds have passed (at
// least kMinReps times), each repetition on fresh inputs derived from the
// seed, and reports the end-to-end metrics as medians over the repetitions.
// --trace 1 runs repetition 0 untraced twice, then traced, and reports the
// per-layer metrics; all three must agree on the simulated statistics bit
// for bit. Either way the last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"
#include "digest.h"
#include "proc.h"
#include "stats.h"

#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

constexpr std::size_t kMinReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string scenarios;
  std::string out;
  std::string expect;  // hex digest for this seed, when the benchmark pins one
  std::uint64_t first_rep = 0;  // inputs of the first repetition
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] - '0';
    } else if (key == "--scenarios") {
      a->scenarios = v;
    } else if (key == "--out") {
      a->out = v;
    } else if (key == "--expect") {
      a->expect = v;
    } else if (key == "--first-rep") {
      a->first_rep = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         a->trace >= 0 && !a->scenarios.empty() && !a->out.empty();
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

// Folds one repetition's units into op counts. `bad[u]` marks units that
// failed a comparison made outside the repetition.
void count_ops(const e2e::Rep& rep, const std::vector<bool>& bad, Outcome& out) {
  const std::uint64_t units = rep.unit_failed.size();
  std::uint64_t failed_units = 0;
  for (std::size_t u = 0; u < units; ++u) {
    if (rep.unit_failed[u] || bad[u]) ++failed_units;
  }
  const std::uint64_t attempted = units * rep.ops_per_unit;
  std::uint64_t failed = failed_units * rep.ops_per_unit;
  if (failed_units < units) failed += rep.extra_failed_ops;
  out.attempted += attempted;
  out.failed += std::min(failed, attempted);
  out.problems.insert(out.problems.end(), rep.problems.begin(), rep.problems.end());
}

// Marks every unit failed when the repetition's combined digest differs
// from the pinned one for this seed.
void check_expected(const e2e::Rep& rep, const std::string& expect, std::vector<bool>& bad,
                    Outcome& out) {
  const std::string got = e2e::hex16(e2e::digest_all(rep.digests));
  std::printf("digest: %s", got.c_str());
  if (expect.empty()) {
    std::printf(" (no pinned digest for this seed)\n");
    return;
  }
  std::printf(" (expected %s: %s)\n", expect.c_str(), got == expect ? "match" : "MISMATCH");
  if (got != expect) {
    bad.assign(bad.size(), true);
    out.problems.push_back("digest " + got + " differs from the pinned " + expect);
  }
}

struct Reported {
  std::string name;
  std::string unit;
  double value;
};

void print_result(const Outcome& out, const std::vector<Reported>& metrics) {
  bool finite = true;
  for (const auto& m : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = finite && out.failed == 0 && out.problems.empty() && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(out.attempted, 1)),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_problems(const Outcome& out) {
  const std::size_t shown = std::min<std::size_t>(out.problems.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) std::printf("problem: %s\n", out.problems[i].c_str());
  if (out.problems.size() > shown) {
    std::printf("problem: ... and %zu more\n", out.problems.size() - shown);
  }
}

void print_failed_frac(const Outcome& out, const char* op_name) {
  std::printf("%-28s %-14.6g %-10s %llu of %llu %s\n", "failed_frac",
              out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                                : 0.0,
              "ratio", static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted), op_name);
}

int run_untraced(const Args& args, e2e::Workload& w) {
  std::vector<e2e::Rep> reps;
  const auto start = e2e::Clock::now();
  do {
    reps.push_back(w.run_untraced(args.first_rep + reps.size()));
  } while (reps.size() < kMinReps || e2e::seconds_since(start) < args.seconds);
  const double elapsed = e2e::seconds_since(start);

  Outcome out;
  std::vector<double> wall, setup, cpu, rate;
  for (std::size_t k = 0; k < reps.size(); ++k) {
    const e2e::Rep& rep = reps[k];
    std::vector<bool> bad(rep.unit_failed.size(), false);
    if (k == 0) check_expected(rep, args.expect, bad, out);
    count_ops(rep, bad, out);
    wall.push_back(rep.wall_s);
    setup.push_back(rep.setup_s);
    cpu.push_back(rep.cpu_s);
    rate.push_back(rep.wall_s > 0.0 ? rep.events / rep.wall_s : 0.0);
  }

  const std::vector<Reported> metrics = {
      {"wall_s", "s", e2e::median(wall)},
      {"sim_events_per_s", "events/s", e2e::median(rate)},
      {"setup_s", "s", e2e::median(setup)},
      {"cpu_s", "s", e2e::median(cpu)},
      {"peak_rss_mb", "MB", e2e::peak_rss_mb()},
  };
  std::printf("runs: %zu repetitions on fresh inputs in %.3f s (%.0f simulated events in the "
              "first)\n",
              reps.size(), elapsed, reps.front().events);
  const auto series = [&](const char* name, const std::vector<double>& v) {
    std::printf("  %-8s", name);
    for (const double x : v) std::printf(" %.4f", x);
    std::printf("\n");
  };
  series("wall_s", wall);
  series("setup_s", setup);
  series("cpu_s", cpu);
  std::printf("%-28s %-14s %-10s %s\n", "metric", "median", "unit", "samples");
  for (const auto& m : metrics) {
    std::printf("%-28s %-14.6g %-10s %zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.name == "peak_rss_mb" ? std::size_t{1} : reps.size());
  }
  print_failed_frac(out, w.op_name());
  print_problems(out);
  print_result(out, metrics);
  return 0;
}

int run_traced(const Args& args, e2e::Workload& w) {
  // Repetition 0 runs twice: the first warms the process (allocator, page
  // cache) so the one the traced run is compared with is timed in the same
  // state, and the two must agree bit for bit.
  const e2e::Rep warm = w.run_untraced(0);
  const e2e::Rep rep = w.run_untraced(0);
  Outcome out;
  std::vector<bool> bad(rep.unit_failed.size(), false);
  check_expected(rep, args.expect, bad, out);
  for (std::size_t u = 0; u < bad.size(); ++u) {
    if (u >= warm.digests.size() || warm.digests[u] != rep.digests[u]) {
      bad[u] = true;
      out.problems.push_back("unit " + std::to_string(u) + " differs between two untraced runs");
    }
  }

  e2e::TracedResult tr = w.run_traced(0);
  std::size_t mismatched = 0;
  for (std::size_t u = 0; u < bad.size(); ++u) {
    const bool same = u < tr.compare_digests.size() &&
                      tr.compare_digests[u] == rep.compare_digests[u];
    const bool traced_failed = u < tr.unit_failed.size() && tr.unit_failed[u];
    if (!same) ++mismatched;
    if (!same || traced_failed) bad[u] = true;
  }
  if (mismatched > 0) {
    out.problems.push_back(std::to_string(mismatched) +
                           " units of the traced run differ from the untraced run");
  }
  out.problems.insert(out.problems.end(), tr.problems.begin(), tr.problems.end());
  count_ops(rep, bad, out);
  std::printf("traced run: %zu of %zu units reproduce the untraced statistics bit for bit\n",
              bad.size() - mismatched, bad.size());

  const double overhead = rep.wall_s > 0.0 ? tr.wall_s / rep.wall_s - 1.0 : 0.0;
  char note[96];
  std::snprintf(note, sizeof note, "traced %.4f s vs untraced %.4f s", tr.wall_s, rep.wall_s);
  e2e::set_metric(tr.metrics, "trace.overhead_frac", overhead, note);

  const std::string base = args.out + "/" + args.workload + "-seed" + std::to_string(args.seed);
  const std::string table = e2e::self_time_table(tr.spans);
  std::FILE* f = std::fopen((base + ".selftime.txt").c_str(), "w");
  const bool table_ok = f != nullptr && std::fputs(table.c_str(), f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) out.problems.push_back("cannot write " + base + ".selftime.txt");
  if (!table_ok || !e2e::write_chrome_trace(base + ".trace.json", tr.spans)) {
    out.problems.push_back("cannot write the span files under " + args.out);
  }
  std::printf("spans: %zu recorded; %s.trace.json, %s.selftime.txt\n", tr.spans.size(),
              base.c_str(), base.c_str());
  std::printf("%s", table.c_str());

  std::printf("%-28s %-14s %-10s %s\n", "per-layer metric", "value", "unit", "base");
  std::vector<Reported> metrics;
  for (const auto& m : tr.metrics) {
    std::printf("%-28s %-14.6g %-10s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
    metrics.push_back({m.name, m.unit, m.value});
  }
  print_failed_frac(out, w.op_name());
  print_problems(out);
  print_result(out, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <popularity_16k|dataset_256k|fleet_1000|"
                 "serve_writes> --seed <n> --seconds <s> --trace <0|1> --scenarios <dir> "
                 "--out <dir> [--expect <digest>] [--first-rep <k>]\n");
    return 2;
  }
  e2e::Context ctx;
  ctx.scenario_path = args.scenarios + "/" + args.workload + ".json";
  ctx.seed = args.seed;
  try {
    const auto w = e2e::make_workload(args.workload, ctx);
    if (!w) {
      std::fprintf(stderr, "e2ebench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    // The library's own fan-outs (run_sweep, run_cluster_sweep) read this.
    setenv("JPM_THREADS", std::to_string(w->threads()).c_str(), 1);
    unsetenv("JPM_SCHED");
    std::printf("e2ebench: workload=%s seed=%llu trace=%d seconds=%g\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace, args.seconds);
    std::printf("build: compiler=%s build_type=%s threads=%s\n", E2E_COMPILER, E2E_BUILD_TYPE,
                w->thread_note().c_str());
    std::fflush(stdout);
    return args.trace == 1 ? run_traced(args, *w) : run_untraced(args, *w);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
