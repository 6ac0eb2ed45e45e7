#ifndef LDIV_CORE_BATCH_H_
#define LDIV_CORE_BATCH_H_

#include <span>
#include <vector>

#include "common/workspace.h"
#include "core/algorithm.h"
#include "core/run_spec.h"

namespace ldv {

/// Runs every spec through its registry algorithm on
/// `*tables[spec.table_index]` -- the one way a job runs. Results are
/// returned in spec order (results[i] corresponds to specs[i]) and are
/// identical to a sequential run regardless of the thread count: every
/// algorithm is deterministic in (table, l, options), jobs never share
/// mutable state, and workers only claim spec indices, so the schedule
/// cannot leak into the outcomes.
///
/// The tables are borrowed. `artifacts` is empty or parallels `tables`
/// (artifacts[i] pre-resolved from *tables[i]); each job then borrows its
/// table's GroupedTable and Hilbert order, so TP / TP+ / Hilbert skip
/// rebuilding them per job.
///
/// `run` is the calling run's context: its threads() is the budget the
/// job-level workers and the kernels share, and its budget() is the
/// memory budget every job runs under. A batch of one job, or a run of
/// one thread, solves on the calling thread and leaves the whole thread
/// budget to the kernels; otherwise each worker solves on a one-thread
/// workspace of its own, so the kernels of a multi-worker batch never fan
/// out. An exception from any job (an IoFailure, say) stops the hand-out
/// of further jobs and is rethrown here, on the calling thread, once
/// every worker has joined.
std::vector<AnonymizationOutcome> AnonymizeBatch(std::span<const RunSpec> specs,
                                                 std::span<const Table* const> tables,
                                                 std::span<const TableArtifacts> artifacts,
                                                 const Workspace& run);

}  // namespace ldv

#endif  // LDIV_CORE_BATCH_H_
