// Reproduces Figure 2: average number of stars vs l (SAL-4 and OCC-4) for
// Hilbert, TP and TP+. Dispatches through the algorithm registry and runs
// each (table, l, algorithm) cell as one batched job.

#include <cstdio>

#include "bench_util.h"
#include "common/text_table.h"
#include "core/batch.h"

namespace ldv {
namespace {

constexpr Algorithm kColumns[] = {Algorithm::kHilbert, Algorithm::kTp, Algorithm::kTpPlus};

void RunFamily(const char* name, const Table& source, const bench::BenchConfig& config) {
  std::vector<Table> family = bench::Family(source, 4, config);
  TextTable table({"l", "Hilbert", "TP", "TP+"});
  for (std::uint32_t l = 2; l <= 10; ++l) {
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
    table.AddRow({FormatDouble(l, 0), FormatDouble(sums[0] / feasible, 0),
                  FormatDouble(sums[1] / feasible, 0), FormatDouble(sums[2] / feasible, 0)});
  }
  std::printf("Figure 2 (%s-4): average number of stars vs l\n%s\n", name,
              table.ToString().c_str());
}

}  // namespace
}  // namespace ldv

int main(int argc, char** argv) {
  ldv::bench::BenchConfig config = ldv::bench::ParseConfig(argc, argv);
  ldv::bench::PrintHeader("Figure 2: average number of stars vs l", config);
  ldv::bench::Datasets data = ldv::bench::LoadDatasets(config);
  ldv::RunFamily("SAL", data.sal, config);
  ldv::RunFamily("OCC", data.occ, config);
  return 0;
}
