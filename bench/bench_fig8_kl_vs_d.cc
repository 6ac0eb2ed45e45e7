// Reproduces Figure 8: KL-divergence vs d (l = 6), TDS vs TP+. Same
// registry/batch shape as Figure 7, sweeping the projection dimensionality.

#include <cstdio>

#include "bench_util.h"
#include "common/text_table.h"
#include "core/batch.h"

namespace ldv {
namespace {

constexpr Algorithm kColumns[] = {Algorithm::kTds, Algorithm::kTpPlus};

void RunFamily(const char* name, const Table& source, const bench::BenchConfig& config) {
  const std::uint32_t l = 6;
  TextTable table({"d", "TDS", "TP+"});
  for (std::size_t d = 1; d <= 7; ++d) {
    std::vector<Table> family = bench::Family(source, d, config);
    if (family.size() > 3) family.erase(family.begin() + 3, family.end());
    std::vector<AnonymizationOutcome> results =
        bench::RunFamilyCell(family, l, kColumns, AnonymizerOptions{});
    double sums[2] = {0, 0};
    std::size_t feasible = 0;
    for (std::size_t t = 0; t * 2 < results.size(); ++t) {
      if (!results[t * 2].feasible || !results[t * 2 + 1].feasible) continue;
      ++feasible;
      sums[0] += results[t * 2].kl_divergence;
      sums[1] += results[t * 2 + 1].kl_divergence;
    }
    if (feasible == 0) continue;
    table.AddRow({FormatDouble(static_cast<double>(d), 0), FormatDouble(sums[0] / feasible, 3),
                  FormatDouble(sums[1] / feasible, 3)});
  }
  std::printf("Figure 8 (%s-d, l = 6): KL-divergence vs d\n%s\n", name,
              table.ToString().c_str());
}

}  // namespace
}  // namespace ldv

int main(int argc, char** argv) {
  ldv::bench::BenchConfig config = ldv::bench::ParseConfig(argc, argv);
  ldv::bench::PrintHeader("Figure 8: KL-divergence vs d (l = 6, TDS vs TP+)", config);
  ldv::bench::Datasets data = ldv::bench::LoadDatasets(config);
  ldv::RunFamily("SAL", data.sal, config);
  ldv::RunFamily("OCC", data.occ, config);
  return 0;
}
