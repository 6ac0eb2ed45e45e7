// Reproduces Figure 7: KL-divergence vs l (SAL-4 / OCC-4), TDS vs TP+.
// Both columns come from outcome.kl_divergence, which the shared registry
// post-processing computes with each methodology's Equation-2 estimator
// (single-dimensional for TDS, suppression for TP+).

#include <cstdio>

#include "bench_util.h"
#include "common/text_table.h"
#include "core/batch.h"

namespace ldv {
namespace {

constexpr Algorithm kColumns[] = {Algorithm::kTds, Algorithm::kTpPlus};

void RunFamily(const char* name, const Table& source, const bench::BenchConfig& config) {
  std::vector<Table> family = bench::Family(source, 4, config);
  if (family.size() > 3) family.erase(family.begin() + 3, family.end());  // KL evaluation is the bottleneck
  TextTable table({"l", "TDS", "TP+"});
  for (std::uint32_t l = 2; l <= 10; ++l) {
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
    table.AddRow({FormatDouble(l, 0), FormatDouble(sums[0] / feasible, 3),
                  FormatDouble(sums[1] / feasible, 3)});
  }
  std::printf("Figure 7 (%s-4): KL-divergence vs l\n%s\n", name, table.ToString().c_str());
}

}  // namespace
}  // namespace ldv

int main(int argc, char** argv) {
  ldv::bench::BenchConfig config = ldv::bench::ParseConfig(argc, argv);
  ldv::bench::PrintHeader("Figure 7: KL-divergence vs l (TDS vs TP+)", config);
  ldv::bench::Datasets data = ldv::bench::LoadDatasets(config);
  ldv::RunFamily("SAL", data.sal, config);
  ldv::RunFamily("OCC", data.occ, config);
  return 0;
}
