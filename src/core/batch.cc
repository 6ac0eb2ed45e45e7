#include "core/batch.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.h"

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
  const auto run_job = [&](std::size_t i, Workspace* workspace) {
    const RunSpec& spec = specs[i];
    results[i] = AlgorithmRegistry::Global()
                     .Get(spec.algorithm)
                     .Run(*tables[spec.table_index], spec.l, spec.options, workspace,
                          artifacts.empty() ? nullptr : &artifacts[spec.table_index]);
    if (on_done) on_done(i, results[i]);
  };

  // One budget governs both layers: job-level workers claim it first, and
  // only a single-worker batch leaves it to the kernels.
  const std::shared_ptr<MemoryBudget> memory = run.budget();
  const std::size_t workers = std::min<std::size_t>(run.threads(), specs.size());
  if (workers <= 1) {
    // One worker: jobs run inline, and the kernels inherit the whole
    // budget for their intra-run fan-out.
    Workspace workspace(run.threads(), memory);
    for (std::size_t i = 0; i < specs.size(); ++i) run_job(i, &workspace);
    return results;
  }

  // Multiple workers already saturate the budget, so each solves on a
  // one-thread workspace and its kernels stay sequential -- inner fan-out
  // would only oversubscribe. Outcomes are unaffected either way: every
  // kernel is byte-identical at any thread count.
  //
  // Each worker owns its Workspace for its whole job stream: after the
  // first few solves the scratch buffers reach steady state and later jobs
  // run allocation-free. Workspaces never cross threads, and outcomes do
  // not depend on workspace state, so determinism is preserved.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // the first job exception of the batch
  auto worker = [&] {
    Workspace workspace(1, memory);
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      try {
        run_job(i, &workspace);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        // Hand out no further jobs, so every worker leaves promptly.
        next.store(specs.size(), std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  // Rethrown on the calling thread, where the engine's I/O unwind boundary
  // turns an IoFailure into a typed error instead of std::terminate.
  if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace ldv
