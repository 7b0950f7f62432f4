// Policy face-off: run the paper's full 16-method roster on one workload and
// print the complete ledger, sorted by total energy. The default workload,
// engine, and roster are declared in scenarios/policy_faceoff.json; argv
// overrides the workload knobs.
//
//   ./examples/policy_faceoff [dataset_gib] [rate_mb_s] [popularity]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "jpm/sim/runner.h"
#include "jpm/spec/run.h"
#include "jpm/spec/spec.h"
#include "jpm/util/parallel.h"
#include "jpm/util/table.h"

using namespace jpm;

int main(int argc, char** argv) {
  std::fprintf(stderr, "threads=%u (set JPM_THREADS to override)\n",
               util::default_thread_count());
  const spec::Scenario sc =
      spec::load_for_run(spec::scenario_path("policy_faceoff"));
  auto workload = sc.workloads.front().workload;

  const std::uint64_t dataset_gib =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10)
               : workload.dataset_bytes / kGiB;
  const double rate_mb = argc > 2 ? std::atof(argv[2]) : workload.byte_rate / 1e6;
  const double popularity = argc > 3 ? std::atof(argv[3]) : workload.popularity;
  workload.dataset_bytes = gib(dataset_gib);
  workload.byte_rate = rate_mb * 1e6;
  workload.popularity = popularity;

  std::printf("16-method face-off: %llu GiB data set, %.0f MB/s, popularity "
              "%.2f (simulating...)\n",
              static_cast<unsigned long long>(dataset_gib), rate_mb,
              popularity);

  const auto points =
      sim::run_sweep({sim::SweepWorkload{"workload", workload, {}, {}}},
                     sc.roster, sc.engine,
                     [](const std::string& line) {
                       std::fprintf(stderr, "  %s\n", line.c_str());
                     });

  auto outcomes = points[0].outcomes;
  std::sort(outcomes.begin(), outcomes.end(),
            [](const sim::RunOutcome& a, const sim::RunOutcome& b) {
              return a.metrics.total_j() < b.metrics.total_j();
            });

  Table t({"rank", "method", "total %", "memory %", "disk %", "utilization",
           "mean latency", "long-latency/s"});
  int rank = 1;
  for (const auto& o : outcomes) {
    char buf[32];
    t.row().cell(std::to_string(rank++)).cell(o.spec.name);
    std::snprintf(buf, sizeof buf, "%.1f%%", o.normalized.total * 100);
    t.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f%%", o.normalized.memory * 100);
    t.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f%%", o.normalized.disk * 100);
    t.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f%%", o.metrics.utilization() * 100);
    t.cell(buf);
    std::snprintf(buf, sizeof buf, "%.2f ms",
                  o.metrics.mean_latency_s() * 1e3);
    t.cell(buf);
    std::snprintf(buf, sizeof buf, "%.2f", o.metrics.long_latency_per_s());
    t.cell(buf);
  }
  std::printf("\n");
  t.print(std::cout);
  return 0;
}
