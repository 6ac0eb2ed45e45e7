// Reproduces Figure 4: computation time vs l (SAL-4 / OCC-4). Timing
// sweeps run sequentially (no batch parallelism, so solves never contend
// for cores) through the registry, with the KL estimate off.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/text_table.h"
#include "core/algorithm.h"

namespace ldv {
namespace {

void RunFamily(const char* name, const Table& source, const bench::BenchConfig& config) {
  std::vector<Table> family = bench::Family(source, 4, config);
  std::vector<const Anonymizer*> algos = bench::TimingAlgorithms();
  TextTable table({"l", "Hilbert(s)", "TP(s)", "TP+(s)"});
  for (std::uint32_t l = 2; l <= 10; ++l) {
    std::vector<double> sums(algos.size(), 0.0);
    std::size_t feasible = 0;
    for (const Table& t : family) {
      std::vector<double> seconds(algos.size());
      bool all_feasible = true;
      for (std::size_t a = 0; a < algos.size(); ++a) {
        AnonymizationOutcome outcome = algos[a]->Run(t, l, bench::NoKlOptions());
        all_feasible = all_feasible && outcome.feasible;
        seconds[a] = outcome.seconds;
      }
      if (!all_feasible) continue;
      ++feasible;
      for (std::size_t a = 0; a < algos.size(); ++a) sums[a] += seconds[a];
    }
    if (feasible == 0) continue;
    table.AddRow({FormatDouble(l, 0), FormatDouble(sums[0] / feasible, 4),
                  FormatDouble(sums[1] / feasible, 4), FormatDouble(sums[2] / feasible, 4)});
  }
  std::printf("Figure 4 (%s-4): computation time vs l\n%s\n", name, table.ToString().c_str());
}

}  // namespace
}  // namespace ldv

int main(int argc, char** argv) {
  ldv::bench::BenchConfig config = ldv::bench::ParseConfig(argc, argv);
  ldv::bench::PrintHeader("Figure 4: computation time vs l", config);
  ldv::bench::Datasets data = ldv::bench::LoadDatasets(config);
  ldv::RunFamily("SAL", data.sal, config);
  ldv::RunFamily("OCC", data.occ, config);
  return 0;
}
