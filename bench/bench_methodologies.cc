// Cross-methodology utility comparison (Sections 2 and 6.2, Table 5's
// point): suppression (TP+), the multi-dimensional relaxation of TP+'s
// output (the transformation described at the start of Section 6.2),
// Mondrian multi-dimensional generalization, single-dimensional TDS, and
// Anatomy, all at the same privacy level, measured by KL-divergence
// (Equation 2). All four algorithms dispatch uniformly through the
// registry's batch driver; only the relaxation column is derived here,
// from the suppression artifact the TP+ outcome carries. Expected
// ordering: Anatomy (exact QI) < multi-dimensional < suppression, with
// TDS trailing TP+ as in Figures 7-8.

#include <cstdio>

#include "anonymity/multidim.h"
#include "bench_util.h"
#include "common/text_table.h"
#include "core/batch.h"
#include "metrics/kl_divergence.h"

namespace ldv {
namespace {

constexpr Algorithm kColumns[] = {Algorithm::kTpPlus, Algorithm::kMondrian, Algorithm::kTds,
                                  Algorithm::kAnatomy};

void RunFamily(const char* name, const Table& source, const bench::BenchConfig& config) {
  std::vector<Table> family = bench::Family(source, 4, config);
  if (family.size() > 2) family.erase(family.begin() + 2, family.end());
  TextTable table({"l", "TP+ (suppr.)", "TP+ relaxed", "Mondrian", "TDS", "Anatomy"});
  for (std::uint32_t l : {2u, 4u, 6u, 8u}) {
    std::vector<AnonymizationOutcome> results =
        bench::RunFamilyCell(family, l, kColumns, AnonymizerOptions{});
    double sums[5] = {0, 0, 0, 0, 0};
    std::size_t feasible = 0;
    for (std::size_t t = 0; t * 4 < results.size(); ++t) {
      const AnonymizationOutcome& tpp = results[t * 4];
      const AnonymizationOutcome& mondrian = results[t * 4 + 1];
      const AnonymizationOutcome& tds = results[t * 4 + 2];
      const AnonymizationOutcome& anatomy = results[t * 4 + 3];
      if (!tpp.feasible || !mondrian.feasible || !tds.feasible || !anatomy.feasible) continue;
      ++feasible;
      BoxGeneralization relaxed = RelaxSuppressionToMultiDim(family[t], *tpp.generalized);
      sums[0] += tpp.kl_divergence;
      sums[1] += KlDivergenceMultiDim(family[t], relaxed);
      sums[2] += mondrian.kl_divergence;
      sums[3] += tds.kl_divergence;
      sums[4] += anatomy.kl_divergence;
    }
    if (feasible == 0) continue;
    table.AddRow({FormatDouble(l, 0), FormatDouble(sums[0] / feasible, 3),
                  FormatDouble(sums[1] / feasible, 3), FormatDouble(sums[2] / feasible, 3),
                  FormatDouble(sums[3] / feasible, 3), FormatDouble(sums[4] / feasible, 3)});
  }
  std::printf("Methodology comparison (%s-4): KL-divergence vs l\n%s\n", name,
              table.ToString().c_str());
}

}  // namespace
}  // namespace ldv

int main(int argc, char** argv) {
  ldv::bench::BenchConfig config = ldv::bench::ParseConfig(argc, argv);
  ldv::bench::PrintHeader(
      "Sections 2 / 6.2: anonymization methodologies at equal privacy", config);
  ldv::bench::Datasets data = ldv::bench::LoadDatasets(config);
  ldv::RunFamily("SAL", data.sal, config);
  ldv::RunFamily("OCC", data.occ, config);
  std::printf(
      "Expected ordering (Section 6.2): Anatomy <= multi-dimensional <=\n"
      "suppression; relaxation never exceeds its suppression source.\n");
  return 0;
}
