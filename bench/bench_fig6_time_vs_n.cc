// Reproduces Figure 6: computation time vs dataset cardinality n (l = 6) on
// samples of SAL-4 / OCC-4. Sequential registry runs with the KL estimate
// off, like Figures 4 and 5.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "core/algorithm.h"

namespace ldv {
namespace {

void RunFamily(const char* name, const Table& source, const bench::BenchConfig& config) {
  const std::uint32_t l = 6;
  // The paper samples 100k..600k; at reduced scale we sweep six sample
  // sizes up to the configured n.
  std::vector<std::size_t> sizes;
  for (int i = 1; i <= 6; ++i) sizes.push_back(config.n * i / 6);

  std::vector<Table> family = bench::Family(source, 4, config);
  if (family.size() > 3) family.erase(family.begin() + 3, family.end());  // time sweep; a few projections suffice

  std::vector<const Anonymizer*> algos = bench::TimingAlgorithms();

  Rng rng(17);
  TextTable table({"n", "Hilbert(s)", "TP(s)", "TP+(s)"});
  for (std::size_t n : sizes) {
    std::vector<double> sums(algos.size(), 0.0);
    std::size_t feasible = 0;
    for (const Table& t : family) {
      Table sample = t.SampleRows(n, rng);
      std::vector<double> seconds(algos.size());
      bool all_feasible = true;
      for (std::size_t a = 0; a < algos.size(); ++a) {
        AnonymizationOutcome outcome = algos[a]->Run(sample, l, bench::NoKlOptions());
        all_feasible = all_feasible && outcome.feasible;
        seconds[a] = outcome.seconds;
      }
      if (!all_feasible) continue;
      ++feasible;
      for (std::size_t a = 0; a < algos.size(); ++a) sums[a] += seconds[a];
    }
    if (feasible == 0) continue;
    table.AddRow({std::to_string(n), FormatDouble(sums[0] / feasible, 4),
                  FormatDouble(sums[1] / feasible, 4), FormatDouble(sums[2] / feasible, 4)});
  }
  std::printf("Figure 6 (%s-4, l = 6): computation time vs n\n%s\n", name,
              table.ToString().c_str());
}

}  // namespace
}  // namespace ldv

int main(int argc, char** argv) {
  ldv::bench::BenchConfig config = ldv::bench::ParseConfig(argc, argv);
  ldv::bench::PrintHeader("Figure 6: computation time vs cardinality n (l = 6)", config);
  ldv::bench::Datasets data = ldv::bench::LoadDatasets(config);
  ldv::RunFamily("SAL", data.sal, config);
  ldv::RunFamily("OCC", data.occ, config);
  return 0;
}
