#ifndef LDIV_CORE_BATCH_H_
#define LDIV_CORE_BATCH_H_

#include <cstdint>
#include <vector>

#include "core/algorithm.h"

namespace ldv {

/// One unit of work for the batched driver: run `algorithm` on `*table`
/// with privacy parameter `l`. The table is borrowed and must outlive the
/// AnonymizeBatch call.
struct BatchJob {
  const Table* table = nullptr;
  std::uint32_t l = 2;
  Algorithm algorithm = Algorithm::kTp;
  AnonymizerOptions options;
  /// Optional pre-resolved dataset artifacts for `*table` (borrowed, must
  /// outlive the batch). The engine resolves these once per distinct table
  /// of a sweep; null jobs derive their own inputs. Outcomes are identical
  /// either way.
  const TableArtifacts* artifacts = nullptr;
};

struct BatchOptions {
  /// Worker threads; 0 means the run context's threads() (see
  /// AnonymizeBatch). The batch and kernel layers share that budget: with
  /// more than one worker the inner kernels run sequential, with a single
  /// worker they fan out to the full budget.
  unsigned threads = 0;
};

/// Runs every job through the AlgorithmRegistry on a pool of worker
/// threads. Results are returned in job order (results[i] corresponds to
/// jobs[i]) and are identical to a sequential run regardless of the thread
/// count: every algorithm is deterministic in (table, l, options), jobs
/// never share mutable state, and workers only claim job indices, so the
/// schedule cannot leak into the outcomes.
///
/// `context` is the calling run's workspace: its threads() is the budget
/// when options.threads is 0, and its budget() is the memory budget every
/// job runs under. Null means a default workspace (the process defaults).
/// Each worker solves on a one-thread workspace of its own, so the
/// kernels of a multi-worker batch never fan out.
std::vector<AnonymizationOutcome> AnonymizeBatch(const std::vector<BatchJob>& jobs,
                                                 const BatchOptions& options = {},
                                                 const Workspace* context = nullptr);

}  // namespace ldv

#endif  // LDIV_CORE_BATCH_H_
