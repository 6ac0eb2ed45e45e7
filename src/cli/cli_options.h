#ifndef LDIV_CLI_CLI_OPTIONS_H_
#define LDIV_CLI_CLI_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/schema.h"
#include "core/run_spec.h"
#include "data/dataset.h"
#include "engine/job_spec.h"

namespace ldv {

class FlagSet;

/// Fully resolved options of one `ldiv` invocation: flags (and the
/// optional `--config` file, which flags override) parsed, validated and
/// expanded into typed values. Everything here is user input, so parsing
/// reports through error strings -- an `ldiv` user can never trip an
/// LDIV_CHECK from the command line.
///
/// ParseCliOptions owns only the *syntactic* layer (flag grammar, typed
/// value parsing, flag-presence conflicts); every semantic rule lives in
/// ResolveJobSpec, the single validation pass shared with the daemon,
/// which the parser runs so spec mistakes still surface as usage errors.
struct CliOptions {
  /// Algorithms to run, in job order ("--algo=tp,mondrian" or "all").
  std::vector<Algorithm> algorithms = {Algorithm::kTpPlus};
  /// Privacy parameters to run ("--l=2,4,6").
  std::vector<std::uint32_t> ls = {2};

  /// CSV input path; empty means synthetic data. Coded inputs require
  /// `schema`; raw inputs build per-column dictionaries instead.
  std::string input;
  /// Input cell encoding ("--format=coded|raw|auto"). ParseCliOptions
  /// resolves kAuto, so the pipeline only ever sees kCoded or kRaw.
  CsvFormat format = CsvFormat::kAuto;
  /// Schema of a coded CSV input (from "--schema=Age:79,...|Income:50");
  /// disengaged for raw inputs, which infer theirs from the file.
  std::optional<Schema> schema;

  /// Synthetic-input spec ("--dataset", "--seed"); `ns` and `ds` sweep its
  /// row count and QI prefix dimensionality, one table per (n, d) cell.
  DatasetSpec dataset;
  std::vector<std::uint64_t> ns = {10000};
  std::vector<std::uint64_t> ds = {3};

  /// Output stem: releases land at <out>.csv (plus <out>_sa.csv for a
  /// bucketization), metrics at <out>.json and <out>_metrics.csv.
  std::string out = "ldiv_out";
  /// Force the AnonymizeBatch path even for a single job; any grid with
  /// more than one job sweeps automatically.
  bool sweep = false;
  /// In sweep mode, also write one release per job (<out>.jobK.csv).
  bool write_releases = false;
  /// Skip the Equation-2 KL estimate (timing-focused runs).
  bool compute_kl = true;
  /// Omit wall-clock fields from reports, making output byte-deterministic.
  bool timings = true;
  /// Thread budget of the whole run ("--threads=N|auto", 0 = auto =
  /// hardware concurrency): sweeps spend it on batch workers, single jobs
  /// on in-kernel parallelism. Outputs never depend on it.
  std::uint32_t threads = 0;
  /// Memory budget in bytes ("--memory-budget=512M", 0 = unlimited): caps
  /// the explicitly accounted working memory (paged ingestion staging,
  /// page-cache frames, external-sort buffers, grouping arenas) and
  /// switches ingestion to the out-of-core paged path. Outputs are
  /// byte-identical at any budget.
  std::uint64_t memory_budget = 0;
  /// When non-empty, also write the (first) input table as CSV here.
  std::string emit_input;
  bool help = false;
};

/// Parses argv (and any `--config` file) into `*options`. Returns false
/// with a one-line message on any malformed, unknown or inconsistent
/// flag; `*options` is default-complete on success. Front-ends with
/// additional flags (the `ldiv submit` client) pass their names through
/// `extra_flags` and read the raw values back through `raw_flags`.
bool ParseCliOptions(int argc, const char* const* argv, CliOptions* options, std::string* error,
                     std::span<const std::string_view> extra_flags = {},
                     FlagSet* raw_flags = nullptr);

/// Maps parsed options onto the engine's JobSpec -- the one
/// CliOptions -> JobSpec normalization point. Purely mechanical; semantic
/// validation happens in ResolveJobSpec.
JobSpec ToJobSpec(const CliOptions& options);

/// The usage text printed by --help and on parse errors.
std::string CliUsage(std::string_view program);

}  // namespace ldv

#endif  // LDIV_CLI_CLI_OPTIONS_H_
