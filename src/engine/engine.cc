#include "engine/engine.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "common/parallel.h"
#include "common/schema_spec.h"
#include "common/workspace.h"
#include "core/batch.h"
#include "data/dataset.h"
#include "engine/report.h"
#include "hilbert/hilbert_curve.h"
#include "metrics/kl_divergence.h"
#include "tds/tds.h"

namespace ldv {

namespace {

// Paged ingestion charges its per-column staging pages to the run's
// budget and releases them at seal, leaving the whole budget to the sort
// buffers and grouping arenas. LDIV_PAGE_BYTES overrides the staging and
// spill page size (tests set it tiny to force page flushes on small
// inputs).
PagedTableBuilder::Options PagedOptionsFromBudget(std::shared_ptr<MemoryBudget> budget) {
  PagedTableBuilder::Options paged;
  if (const char* env = std::getenv("LDIV_PAGE_BYTES")) {
    char* end = nullptr;
    const unsigned long long bytes = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && bytes >= 64 && bytes % sizeof(std::uint32_t) == 0) {
      paged.page_bytes = static_cast<std::size_t>(bytes);
    }
  }
  paged.budget = std::move(budget);
  return paged;
}

// A budgeted run pages its input only when the in-RAM estimate would eat
// more than a quarter of the budget; smaller inputs load resident and
// cache normally (the bypass only ever protected paged tables' budget
// reservations from outliving their run). The pre-load estimates err
// high: 2x the CSV file size, or the synthetic grid's columnar bytes.
bool ShouldPage(const MemoryBudget* budget, std::uint64_t estimated_bytes) {
  return budget != nullptr && estimated_bytes > budget->total() / 4;
}

std::uint64_t EstimateCsvBytes(const std::string& path) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return ~std::uint64_t{0} / 8;  // unstatable: stay paged
  return 2 * static_cast<std::uint64_t>(st.st_size) + 4096;
}

std::uint64_t EstimateSyntheticBytes(const DatasetSpec& cell) {
  return static_cast<std::uint64_t>(cell.n) * (cell.d + 1) * sizeof(std::uint32_t) + 4096;
}

// The kernels pack ids into 64-bit words and CHECK that they fit. A table
// is user input, so a schema past one of those limits is a usage error
// here, before any kernel -- the Hilbert-order artifact build included --
// sees it. Limits the job cannot lift come first.
std::optional<PipelineError> CheckSchemaLimits(const JobSpec& spec, const EngineTable& input) {
  const Schema& schema = input.table.schema();
  const std::string field = spec.input.empty() ? "dataset" : "input";
  const auto runs = [&](Algorithm algorithm) {
    return std::find(spec.algorithms.begin(), spec.algorithms.end(), algorithm) !=
           spec.algorithms.end();
  };
  if ((runs(Algorithm::kHilbert) || runs(Algorithm::kTpPlus)) &&
      !HilbertCurve::Fits(schema.qi_count(), 1)) {
    return UsageError(field, input.source + ": " + std::to_string(schema.qi_count()) +
                                 " QI attributes exceed the 64 dimensions of the Hilbert order "
                                 "that Hilbert and TP+ use");
  }
  if (runs(Algorithm::kTds) && !TdsCellIdsFit(schema)) {
    return UsageError(field,
                      input.source + ": the QI domains exceed the 64-bit cell ids of TDS");
  }
  if (spec.compute_kl && !KlPointIdsFit(schema)) {
    const std::string limit =
        schema.qi_count() > 64
            ? std::to_string(schema.qi_count()) +
                  " QI attributes exceed the 64-bit star masks of the KL estimate"
            : "the QI and SA domains exceed the 64-bit point ids of the KL estimate";
    return UsageError(field, input.source + ": " + limit +
                                 "; --kl=false skips it and lifts this limit");
  }
  if (spec.compute_kl && runs(Algorithm::kTds) && !KlSingleDimKeysFit(schema)) {
    return UsageError(field, input.source +
                                 ": the QI and SA domains exceed the 64-bit cell keys of TDS's "
                                 "KL estimate; --kl=false skips it and lifts this limit");
  }
  return std::nullopt;
}

}  // namespace

Engine::Engine(EngineOptions options) : cache_(options.cache_bytes) {}

Expected<bool, PipelineError> Engine::MaterializeTables(const ResolvedJobSpec& resolved,
                                                        const Workspace& run,
                                                        JobResult* result) {
  const JobSpec& spec = resolved.spec;
  const std::shared_ptr<MemoryBudget> budget = run.budget();
  std::string error;
  // Loads through the ContentCache when the input has a content key
  // (concurrent runs missing on one key share the load), directly when
  // it has none; null with `error` set when the load fails.
  const auto load = [&](const std::string& key,
                        const std::function<std::shared_ptr<const EngineTable>()>& build)
      -> std::shared_ptr<const EngineTable> {
    if (key.empty()) return build();
    bool hit = false;
    std::shared_ptr<const EngineTable> table =
        cache_.GetOrBuild(ContentCache::Kind::kTable, key, build, &hit);
    ++(hit ? result->cache_hits : result->cache_misses);
    return table;
  };

  if (!spec.input.empty()) {
    const Schema* schema = resolved.schema.has_value() ? &*resolved.schema : nullptr;
    const std::string source =
        (resolved.format == CsvFormat::kRaw ? "csv-raw:" : "csv:") + spec.input;
    if (ShouldPage(budget.get(), EstimateCsvBytes(spec.input))) {
      // Truly paged tables bypass the cache: they hold reservations
      // against this run's budget. Budgeted inputs that fit in RAM fall
      // through to the normal cached load below.
      cache_.RecordPagedBypass();
      std::unique_ptr<PagedTable> table = LoadTableCsvPaged(
          spec.input, resolved.format, schema, PagedOptionsFromBudget(budget), &error);
      if (table == nullptr) return IoError(error);
      if (table->size() == 0) return IoError("'" + spec.input + "' holds no data rows");
      auto entry = std::make_shared<EngineTable>(std::move(table));
      entry->source = source;
      result->tables.push_back(std::move(entry));
      return true;
    }
    const std::string key = ContentCache::CsvKey(
        spec.input, resolved.format, schema != nullptr ? FormatSchemaSpec(*schema) : "");
    std::shared_ptr<const EngineTable> table =
        load(key, [&]() -> std::shared_ptr<const EngineTable> {
          std::optional<Table> loaded = LoadTableCsv(spec.input, resolved.format, schema, &error);
          if (!loaded) return nullptr;
          if (loaded->empty()) {
            error = "'" + spec.input + "' holds no data rows";
            return nullptr;
          }
          auto entry = std::make_shared<EngineTable>(std::move(*loaded));
          entry->source = source;
          entry->cache_key = key;
          return entry;
        });
    if (table == nullptr) return IoError(error);
    result->tables.push_back(std::move(table));
    return true;
  }

  // Synthetic grid: one table per (n, d) cell, n-major -- the job order
  // the report documents.
  for (std::uint64_t n : spec.ns) {
    for (std::uint64_t d : spec.ds) {
      DatasetSpec cell = spec.dataset;
      cell.n = static_cast<std::size_t>(n);
      cell.d = static_cast<std::size_t>(d);
      if (ShouldPage(budget.get(), EstimateSyntheticBytes(cell))) {
        cache_.RecordPagedBypass();
        std::unique_ptr<PagedTable> table =
            GenerateDatasetPaged(cell, PagedOptionsFromBudget(budget), &error);
        if (table == nullptr) return IoError(error);
        auto entry = std::make_shared<EngineTable>(std::move(table));
        entry->source = DatasetLabel(cell);
        result->tables.push_back(std::move(entry));
        continue;
      }
      const std::string key = ContentCache::SyntheticKey(cell);
      std::shared_ptr<const EngineTable> table =
          load(key, [&]() -> std::shared_ptr<const EngineTable> {
            std::optional<Table> generated = GenerateDataset(cell, &error);
            if (!generated) return nullptr;
            auto entry = std::make_shared<EngineTable>(std::move(*generated));
            entry->source = DatasetLabel(cell);
            entry->cache_key = key;
            return entry;
          });
      if (table == nullptr) return IoError(error);
      result->tables.push_back(std::move(table));
    }
  }
  return true;
}

std::uint64_t Engine::ResolveArtifacts(std::span<const RunSpec> specs, const Workspace& run,
                                       JobResult* result) {
  result->artifacts.assign(result->tables.size(), TableArtifacts{});
  // The builds draw their scratch from a pool of their own, freed on
  // return: pooled in `run` it would sit idle for the rest of the run,
  // since a sweep's jobs solve on per-worker workspaces.
  Workspace build_ws(run.threads(), run.budget());
  std::vector<char> need_grouped(result->tables.size(), 0);
  std::vector<char> need_order(result->tables.size(), 0);
  for (const RunSpec& spec : specs) {
    if (AlgorithmUsesGroupedArtifact(spec.algorithm)) need_grouped[spec.table_index] = 1;
    if (AlgorithmUsesHilbertOrderArtifact(spec.algorithm)) need_order[spec.table_index] = 1;
  }

  std::uint64_t resident_bytes = 0;
  for (std::size_t i = 0; i < result->tables.size(); ++i) {
    if (need_grouped[i] == 0 && need_order[i] == 0) continue;
    const EngineTable& input = *result->tables[i];
    // Cross-run caching needs a content-identity key and an in-RAM table
    // (a paged table's artifacts are rebuilt per run like the table
    // itself); ineligible tables still resolve once per run, so every job
    // of a sweep shares the build either way.
    const bool eligible = !input.cache_key.empty() && input.paged == nullptr;
    const std::string key = eligible ? ContentCache::ArtifactKey(input.cache_key, input.table) : "";
    TableArtifacts& artifacts = result->artifacts[i];

    if (need_grouped[i] != 0) {
      const std::function<std::shared_ptr<const GroupedTable>()> build = [&] {
        auto grouped = std::make_shared<GroupedTable>(input.table, &build_ws);
        // The build may have charged its arenas to THIS run's budget; an
        // artifact that may outlive the run must not carry that charge.
        // The run re-charges the resident bytes with a run-scoped
        // reservation instead.
        grouped->ReleaseBudgetCharge();
        return grouped;
      };
      bool hit = false;
      artifacts.grouped =
          eligible ? cache_.GetOrBuild(ContentCache::Kind::kGrouped, key, build, &hit) : build();
      if (eligible) ++(hit ? result->artifact_hits : result->artifact_misses);
      resident_bytes += ResidentBytes(*artifacts.grouped);
    }

    if (need_order[i] != 0) {
      const std::function<std::shared_ptr<const std::vector<RowId>>()> build = [&] {
        auto order = std::make_shared<std::vector<RowId>>();
        HilbertComputeOrder(input.table, &build_ws, order.get());
        return order;
      };
      bool hit = false;
      artifacts.hilbert_order =
          eligible ? cache_.GetOrBuild(ContentCache::Kind::kHilbertOrder, key, build, &hit)
                   : build();
      if (eligible) ++(hit ? result->artifact_hits : result->artifact_misses);
      resident_bytes += ResidentBytes(*artifacts.hilbert_order);
    }
  }
  return resident_bytes;
}

Expected<JobResult, PipelineError> Engine::Solve(const ResolvedJobSpec& resolved) {
  const JobSpec& spec = resolved.spec;
  JobResult result;
  // The run's own context: one thread count for the batch workers and the
  // in-kernel parallelism together (see src/common/parallel.h), and one
  // memory budget (null = unlimited) that ingestion, grouping and the
  // Hilbert sort size against. Nothing here is shared with other runs.
  result.threads = spec.threads != 0 ? spec.threads : HardwareThreads();
  Workspace run(result.threads, spec.memory_budget != 0
                                    ? std::make_shared<MemoryBudget>(spec.memory_budget)
                                    : nullptr);
  Expected<bool, PipelineError> materialized = MaterializeTables(resolved, run, &result);
  if (!materialized.ok()) return materialized.error();
  if (result.tables.empty()) {
    return UsageError("n", "nothing to run: the (n, d) grid produced no input tables");
  }
  for (const std::shared_ptr<const EngineTable>& input : result.tables) {
    if (std::optional<PipelineError> error = CheckSchemaLimits(spec, *input)) return *error;
  }

  AnonymizerOptions algo_options;
  algo_options.compute_kl = spec.compute_kl;
  std::vector<RunSpec> specs =
      ExpandRunGrid(spec.algorithms, spec.ls, result.tables.size(), algo_options);
  result.jobs.reserve(specs.size());

  // Resolve the GroupedTable / Hilbert order once per distinct table --
  // the sweep's jobs share them -- and charge the run's budget for the
  // bytes it now pins (cached artifacts carry no reservation of their
  // own; see GroupedTable::ReleaseBudgetCharge).
  const std::uint64_t artifact_bytes = ResolveArtifacts(specs, run, &result);
  MemoryReservation artifacts_reservation(run.budget(), artifact_bytes);

  std::vector<const Table*> tables;
  tables.reserve(result.tables.size());
  for (const std::shared_ptr<const EngineTable>& input : result.tables) {
    tables.push_back(&input->table);
  }
  // Every spec list, one job included, runs through AnonymizeBatch, which
  // splits the run's thread count between job-level workers and the
  // kernels.
  std::vector<AnonymizationOutcome> outcomes =
      AnonymizeBatch(specs, tables, result.artifacts, run);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    result.jobs.push_back({specs[i], std::move(outcomes[i])});
  }
  return result;
}

Expected<JobResult, PipelineError> Engine::RunResolved(const ResolvedJobSpec& resolved) {
  // This is the I/O unwind boundary: a spill, page, sort, or ingestion
  // syscall failure anywhere below (including inside parallel kernels)
  // throws IoFailure, RAII reclaims the spill files and budget
  // reservations on the way up, and the caller sees a typed io error --
  // never an abort.
  try {
    return Solve(resolved);
  } catch (const IoFailure& failure) {
    return IoError(failure.what());
  }
}

Expected<JobResult, PipelineError> Engine::Run(const JobSpec& spec) {
  Expected<ResolvedJobSpec, PipelineError> resolved = ResolveJobSpec(spec);
  if (!resolved.ok()) return resolved.error();
  return RunResolved(*resolved);
}

Expected<ExecuteSummary, PipelineError> Engine::Execute(const JobSpec& spec,
                                                        std::string* notices) {
  Expected<ResolvedJobSpec, PipelineError> resolved = ResolveJobSpec(spec);
  if (!resolved.ok()) return resolved.error();
  Expected<JobResult, PipelineError> result = RunResolved(*resolved);
  if (!result.ok()) return result.error();
  std::optional<PipelineError> write_error = WriteJobOutputs(resolved->spec, *result, notices);
  if (write_error.has_value()) return *write_error;

  ExecuteSummary summary;
  summary.job_count = result->jobs.size();
  for (const EngineJob& job : result->jobs) {
    if (!job.outcome.feasible) ++summary.infeasible;
  }
  summary.threads = result->threads;
  summary.cache_hits = result->cache_hits;
  summary.cache_misses = result->cache_misses;
  summary.artifact_hits = result->artifact_hits;
  summary.artifact_misses = result->artifact_misses;
  // A sweep treats infeasible cells as data; a single run fails loudly.
  summary.exit_code = (summary.job_count == 1 && summary.infeasible > 0)
                          ? ExitCodeFor(PipelineErrorCode::kInfeasible)
                          : 0;
  return summary;
}

}  // namespace ldv
