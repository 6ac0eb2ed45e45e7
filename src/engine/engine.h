#ifndef LDIV_ENGINE_ENGINE_H_
#define LDIV_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/expected.h"
#include "common/paged_column.h"
#include "common/table.h"
#include "common/workspace.h"
#include "core/artifacts.h"
#include "core/run_spec.h"
#include "engine/content_cache.h"
#include "engine/error.h"
#include "engine/job_spec.h"

namespace ldv {

/// One materialized input table plus where it came from, for reports.
/// Under --memory-budget the row data lives in `paged` (memory-mapped
/// spill files) and `table` is the borrowed resident() view over it; the
/// algorithms and report writers consume `table` either way, so outputs
/// are byte-identical across the two storage modes.
struct EngineTable {
  Table table;
  /// Keeps the spill files and mappings alive behind a borrowed `table`;
  /// null for ordinary in-RAM inputs.
  std::unique_ptr<PagedTable> paged;
  /// Provenance label, e.g. "csv:micro.csv" or "sal(n=10000, seed=1, d=3)".
  std::string source;
  /// The ContentCache key this table was materialized under (CsvKey or
  /// SyntheticKey); "" when uncacheable (unstatable CSV) or paged. Its
  /// artifacts extend it into their own keys (ContentCache::ArtifactKey).
  std::string cache_key;

  explicit EngineTable(Table t) : table(std::move(t)) {}
  explicit EngineTable(std::unique_ptr<PagedTable> p)
      : table(p->resident()), paged(std::move(p)) {}
};

/// One completed engine job: its spec and the algorithm outcome.
struct EngineJob {
  RunSpec spec;
  AnonymizationOutcome outcome;
};

/// Everything one Engine::Run produced, in deterministic job order (the
/// ExpandRunGrid order: table-major, then algorithm, then l). Tables are
/// shared with the engine's ContentCache; entries may alias across
/// JobResults.
struct JobResult {
  std::vector<std::shared_ptr<const EngineTable>> tables;
  /// Pre-resolved solver artifacts, parallel to `tables` (empty structs
  /// for tables whose jobs consume none). Shared with the ContentCache;
  /// holding them here keeps every artifact alive for the whole run even
  /// if the cache evicts it mid-flight.
  std::vector<TableArtifacts> artifacts;
  std::vector<EngineJob> jobs;
  /// The resolved thread count the run executed under (JobSpec::threads,
  /// 0 resolved to HardwareThreads()). An execution detail like
  /// wall-clock: reports include it only alongside timings, so
  /// --no-timings output stays byte-identical across thread counts.
  unsigned threads = 1;
  /// ContentCache table lookups of this run's input materialization (0/0
  /// when every table came up paged and bypassed the cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// ContentCache artifact lookups of this run's GroupedTable /
  /// Hilbert-order resolution (0/0 when no job consumes artifacts or the
  /// tables were cache-ineligible).
  std::uint64_t artifact_hits = 0;
  std::uint64_t artifact_misses = 0;
};

/// Byte-compare-friendly summary of an Execute call, the payload a daemon
/// reply carries back to the submitting client.
struct ExecuteSummary {
  std::size_t job_count = 0;
  std::size_t infeasible = 0;
  unsigned threads = 1;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t artifact_hits = 0;
  std::uint64_t artifact_misses = 0;
  /// The one-shot CLI's exit status for this run (0 ok, 2 when a
  /// single-job run was infeasible) -- `ldiv submit` exits with it so a
  /// scripted submit is a drop-in for a one-shot invocation.
  int exit_code = 0;
};

struct EngineOptions {
  /// ContentCache capacity, fixed for the engine's lifetime: input tables,
  /// GroupedTables and Hilbert row orders together. 0 keeps nothing.
  std::uint64_t cache_bytes = 512u << 20;
};

/// The reusable anonymization engine behind every front-end: one object
/// that validates JobSpecs (ResolveJobSpec), materializes inputs and
/// their solver artifacts through one cross-job ContentCache, and runs
/// the algorithms x (l, n, d) grid through AnonymizeBatch. The one-shot
/// CLI calls Run; the daemon's workers call Execute.
///
/// Runs are independent and may execute concurrently: each builds its own
/// context -- a Workspace carrying the spec's thread count and a
/// MemoryBudget of its own -- and every kernel reads both from there, so
/// no run touches another's budgets. The only state runs share is the
/// cache, which is internally locked and fills each key once however
/// many runs miss on it at the same time.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// Validates, materializes and solves `spec`; no outputs are written.
  /// Infeasible jobs are not an error (reported with feasible = false).
  /// A budgeted (memory_budget != 0) result may hold paged tables; they
  /// share ownership of the run's own budget, so the JobResult can
  /// outlive the call and later runs freely.
  Expected<JobResult, PipelineError> Run(const JobSpec& spec);

  /// Run + write every output the spec asks for (release(s), reports,
  /// dictionary sidecar, emit-input), destroying the JobResult before
  /// returning. Safe to call from several threads at once. Notice lines
  /// ("wrote value dictionaries to ...") append to `*notices` when
  /// non-null.
  Expected<ExecuteSummary, PipelineError> Execute(const JobSpec& spec,
                                                  std::string* notices = nullptr);

  const ContentCache& cache() const { return cache_; }

 private:
  /// Solve inside the I/O unwind boundary (IoFailure -> typed io error).
  Expected<JobResult, PipelineError> RunResolved(const ResolvedJobSpec& resolved);
  Expected<JobResult, PipelineError> Solve(const ResolvedJobSpec& resolved);
  Expected<bool, PipelineError> MaterializeTables(const ResolvedJobSpec& resolved,
                                                  const Workspace& run, JobResult* result);
  /// Resolves the GroupedTable / Hilbert-order artifacts each distinct
  /// table's jobs consume -- once per table, through the ContentCache
  /// when the table is cache-eligible (non-empty cache_key, not paged).
  /// Returns the total resident bytes of the artifacts now pinned by
  /// `result`, so the run can charge them to its budget.
  std::uint64_t ResolveArtifacts(std::span<const RunSpec> specs, const Workspace& run,
                                 JobResult* result);

  ContentCache cache_;
};

}  // namespace ldv

#endif  // LDIV_ENGINE_ENGINE_H_
