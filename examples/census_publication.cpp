// Census-bureau scenario: publish an l-diverse extract of an ACS-style
// microdata table, sweeping the privacy parameter and reporting the
// utility/privacy trade-off exactly the way a data publisher would
// evaluate it (Section 6's methodology). All measurements come straight
// off the uniform AnonymizationOutcome; the l-sweep runs as one batch
// through the parallel driver.
//
//   build/examples/census_publication [n]

#include <cstdio>
#include <cstdlib>

#include "common/parallel.h"
#include "common/text_table.h"
#include "common/workspace.h"
#include "core/batch.h"
#include "data/acs_generator.h"
#include "data/acs_schema.h"

using namespace ldv;

int main(int argc, char** argv) {
  std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;
  std::printf("Generating a synthetic ACS salary extract with %zu records...\n", n);
  Table sal = GenerateSal(n, 1);

  // A publisher would release a low-dimensional projection; here
  // Age x Gender x Education x WorkClass with Income as the SA.
  Table released = sal.ProjectQi({kAge, kGender, kEducation, kWorkClass});
  std::printf("Projection: %s\n\n", released.schema().ToString().c_str());

  const Algorithm algorithms[] = {Algorithm::kTpPlus};
  const std::uint32_t ls[] = {2, 4, 6, 8, 10};
  const Table* tables[] = {&released};
  const std::vector<RunSpec> jobs = ExpandRunGrid(algorithms, ls, 1, AnonymizerOptions{});
  std::vector<AnonymizationOutcome> outcomes =
      AnonymizeBatch(jobs, tables, {}, Workspace(HardwareThreads(), nullptr));

  TextTable report({"l", "stars", "suppressed", "groups", "avg group", "KL", "seconds"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const AnonymizationOutcome& outcome = outcomes[i];
    if (!outcome.feasible) {
      std::printf("l = %u infeasible (SA too skewed)\n", jobs[i].l);
      continue;
    }
    report.AddRow({std::to_string(jobs[i].l), std::to_string(outcome.stars),
                   std::to_string(outcome.suppressed_tuples),
                   std::to_string(outcome.group_stats.group_count),
                   FormatDouble(outcome.group_stats.mean_size, 1),
                   FormatDouble(outcome.kl_divergence, 3),
                   FormatDouble(outcome.seconds, 3)});
  }
  std::printf("TP+ utility/privacy sweep:\n%s\n", report.ToString().c_str());
  std::printf(
      "Reading guide: stars and KL-divergence rise with l (stronger privacy,\n"
      "less utility); pick the largest l whose utility is still acceptable.\n"
      "(The sweep ran in parallel, so per-l seconds may include core\n"
      "contention; Figures 4-6 are the contention-free timing benches.)\n");
  return 0;
}
