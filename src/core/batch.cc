#include "core/batch.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"
#include "common/parallel.h"

namespace ldv {

std::vector<AnonymizationOutcome> AnonymizeBatch(std::span<const RunSpec> specs,
                                                 std::span<const Table* const> tables,
                                                 std::span<const TableArtifacts> artifacts,
                                                 const Workspace& run, const JobDone& on_done) {
  LDIV_CHECK(artifacts.empty() || artifacts.size() == tables.size())
      << "artifacts must parallel tables";
  for (const RunSpec& spec : specs) {
    LDIV_CHECK_LT(spec.table_index, tables.size()) << "RunSpec table_index out of range";
  }
  std::vector<AnonymizationOutcome> results(specs.size());

  // One budget governs both layers: job-level workers claim it first, and
  // only a single-worker batch leaves it to the kernels. Several workers
  // already saturate the budget, so each solves on a one-thread workspace
  // and its kernels stay sequential -- inner fan-out would only
  // oversubscribe. Outcomes are unaffected either way: every kernel is
  // byte-identical at any thread count.
  //
  // The workers are one ParallelFor region with one job per chunk. Each
  // keeps its workspace for its whole job stream, so after the first few
  // solves the scratch buffers reach steady state and later jobs run
  // allocation-free. Workspaces never cross threads, and outcomes do not
  // depend on workspace state, so determinism is preserved.
  const unsigned threads = run.threads();
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(threads, specs.size()));
  Workspace workspace(workers <= 1 ? threads : 1, run.budget());
  const auto run_job = [&](std::size_t i, std::size_t, Workspace& worker_ws) {
    const RunSpec& spec = specs[i];
    results[i] = AlgorithmRegistry::Global().Get(spec.algorithm).Run(
        *tables[spec.table_index], spec.l, spec.options, &worker_ws,
        artifacts.empty() ? nullptr : &artifacts[spec.table_index]);
    if (on_done) on_done(i, results[i]);
  };
  ParallelForThreads(workers, specs.size(), /*grain=*/1, workspace, run_job);
  return results;
}

}  // namespace ldv
