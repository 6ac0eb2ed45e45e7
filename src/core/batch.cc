#include "core/batch.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>

#include "common/check.h"
#include "common/workspace.h"

namespace ldv {

namespace {

AnonymizationOutcome RunJob(const BatchJob& job, Workspace* workspace) {
  LDIV_CHECK(job.table != nullptr) << "BatchJob with null table";
  return AlgorithmRegistry::Global()
      .Create(job.algorithm, job.options)
      ->Run(*job.table, job.l, workspace, job.artifacts);
}

}  // namespace

std::vector<AnonymizationOutcome> AnonymizeBatch(const std::vector<BatchJob>& jobs,
                                                 const BatchOptions& options,
                                                 const Workspace* context) {
  std::vector<AnonymizationOutcome> results(jobs.size());
  if (jobs.empty()) return results;

  // One budget governs both layers: an explicit BatchOptions::threads
  // overrides the run context's thread count. Job-level workers claim the
  // budget first; only a single-worker batch leaves it to the kernels.
  const Workspace defaults;
  const Workspace& run = context != nullptr ? *context : defaults;
  const std::shared_ptr<MemoryBudget> memory = run.budget();
  const unsigned budget = options.threads != 0 ? options.threads : run.threads();
  const std::size_t workers = std::min<std::size_t>(budget, jobs.size());
  if (workers <= 1) {
    // One worker: jobs run inline, and the kernels inherit the whole
    // budget for their intra-run fan-out.
    Workspace workspace(budget, memory);
    for (std::size_t i = 0; i < jobs.size(); ++i) results[i] = RunJob(jobs[i], &workspace);
    return results;
  }

  // Touch the registry before spawning workers so no worker races the
  // one-time built-in registration.
  AlgorithmRegistry::Global();

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
  auto worker = [&] {
    Workspace workspace(1, memory);
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      results[i] = RunJob(jobs[i], &workspace);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

}  // namespace ldv
