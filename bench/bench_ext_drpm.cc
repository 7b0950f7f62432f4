// Extension (paper Section II-A / VI): DRPM-style multi-speed disk versus
// the spin-down disk, both with fixed memory and under joint memory
// management. The paper argues spin-down policies suffer when idle intervals
// are short (frequent accesses) because of the spin-up cliff; DRPM trades a
// power floor for the absence of that cliff. The rate sweep, the five-method
// roster, and the engine come from scenarios/ext_drpm.json.
//
// Expected shape: at low rates (long idleness) the spin-down disk wins on
// energy; as the rate grows and idle intervals shrink below the break-even
// time, the multi-speed disk closes the gap and dominates the latency
// columns throughout.
#include "bench_common.h"

using namespace jpm;

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const auto sc = bench::load_scenario("ext_drpm");

  std::cout << spec::expand_header(sc) << "\n";
  Table t({"rate", "method", "total energy %", "disk energy (kJ)",
           "mean latency ms", "long-latency req/s", "shifts/spin-downs"});
  for (const auto& point : sc.workloads) {
    const auto points = sim::run_sweep({point}, sc.roster, sc.engine,
                                       bench::progress_line);
    for (const auto& o : points[0].outcomes) {
      t.row()
          .cell(point.label)
          .cell(o.spec.name)
          .cell(bench::pct(o.normalized.total))
          .cell(bench::num(o.metrics.disk_energy.total_j() / 1e3, 1))
          .cell(bench::ms(o.metrics.mean_latency_s()))
          .cell(bench::num(o.metrics.long_latency_per_s()))
          .cell(o.metrics.disk_shutdowns);
    }
  }
  std::cout << t.to_string();
  return 0;
}
