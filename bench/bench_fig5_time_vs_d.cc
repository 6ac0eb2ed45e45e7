// Reproduces Figure 5: computation time vs d (l = 4), log-scale in the
// paper; we print the raw seconds. Sequential registry runs with the KL
// estimate off, like Figure 4.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/text_table.h"
#include "core/algorithm.h"

namespace ldv {
namespace {

void RunFamily(const char* name, const Table& source, const bench::BenchConfig& config) {
  const std::uint32_t l = 4;
  std::vector<const Anonymizer*> algos = bench::TimingAlgorithms();
  TextTable table({"d", "Hilbert(s)", "TP(s)", "TP+(s)"});
  for (std::size_t d = 1; d <= 7; ++d) {
    std::vector<double> sums(algos.size(), 0.0);
    std::size_t feasible = 0;
    for (const Table& t : bench::Family(source, d, config)) {
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
    table.AddRow({FormatDouble(static_cast<double>(d), 0), FormatDouble(sums[0] / feasible, 4),
                  FormatDouble(sums[1] / feasible, 4), FormatDouble(sums[2] / feasible, 4)});
  }
  std::printf("Figure 5 (%s-d, l = 4): computation time vs d\n%s\n", name,
              table.ToString().c_str());
}

}  // namespace
}  // namespace ldv

int main(int argc, char** argv) {
  ldv::bench::BenchConfig config = ldv::bench::ParseConfig(argc, argv);
  ldv::bench::PrintHeader("Figure 5: computation time vs d (l = 4)", config);
  ldv::bench::Datasets data = ldv::bench::LoadDatasets(config);
  ldv::RunFamily("SAL", data.sal, config);
  ldv::RunFamily("OCC", data.occ, config);
  return 0;
}
