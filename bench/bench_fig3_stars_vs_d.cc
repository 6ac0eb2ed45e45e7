// Reproduces Figure 3: average number of stars vs the number d of QI
// attributes (l = 6) for Hilbert, TP and TP+, including the TP-vs-Hilbert
// crossover as d grows. Dispatches through the algorithm registry as one
// batch per projection family.

#include <cstdio>

#include "bench_util.h"
#include "common/text_table.h"
#include "core/batch.h"

namespace ldv {
namespace {

constexpr Algorithm kColumns[] = {Algorithm::kHilbert, Algorithm::kTp, Algorithm::kTpPlus};

void RunFamily(const char* name, const Table& source, const bench::BenchConfig& config) {
  const std::uint32_t l = 6;
  TextTable table({"d", "Hilbert", "TP", "TP+"});
  for (std::size_t d = 1; d <= 7; ++d) {
    std::vector<Table> family = bench::Family(source, d, config);
    std::vector<AnonymizationOutcome> results =
        bench::RunFamilyCell(family, l, kColumns);
    double sums[3] = {0, 0, 0};
    std::size_t feasible = 0;
    for (std::size_t t = 0; t * 3 < results.size(); ++t) {
      if (!results[t * 3].feasible || !results[t * 3 + 1].feasible ||
          !results[t * 3 + 2].feasible) {
        continue;
      }
      ++feasible;
      for (int a = 0; a < 3; ++a) sums[a] += static_cast<double>(results[t * 3 + a].stars);
    }
    if (feasible == 0) continue;
    table.AddRow({FormatDouble(static_cast<double>(d), 0),
                  FormatDouble(sums[0] / feasible, 0), FormatDouble(sums[1] / feasible, 0),
                  FormatDouble(sums[2] / feasible, 0)});
  }
  std::printf("Figure 3 (%s-d, l = 6): average number of stars vs d\n%s\n", name,
              table.ToString().c_str());
}

}  // namespace
}  // namespace ldv

int main(int argc, char** argv) {
  ldv::bench::BenchConfig config = ldv::bench::ParseConfig(argc, argv);
  ldv::bench::PrintHeader("Figure 3: average number of stars vs d (l = 6)", config);
  ldv::bench::Datasets data = ldv::bench::LoadDatasets(config);
  ldv::RunFamily("SAL", data.sal, config);
  ldv::RunFamily("OCC", data.occ, config);
  return 0;
}
