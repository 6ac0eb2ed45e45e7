#ifndef LDIV_ENGINE_JOB_SPEC_H_
#define LDIV_ENGINE_JOB_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.h"
#include "common/schema.h"
#include "core/run_spec.h"
#include "data/dataset.h"
#include "engine/error.h"

namespace ldv {

class FlagSet;

/// The wire-format version SerializeJobSpec emits and ParseJobSpec
/// accepts. Bump on any incompatible key change.
inline constexpr std::uint32_t kJobSpecVersion = 1;

/// One complete engine job, independent of any front-end: where the input
/// comes from (a CSV path or a synthetic algorithms x (l, n, d) grid),
/// what to run, under which thread/memory budgets, and which outputs to
/// write. It is the only description of a run: the one-shot CLI reads its
/// flags into one, `ldiv submit` serializes one onto the daemon socket,
/// and both meet in Engine::Execute, so outputs are byte-identical by
/// construction. The member initializers are the only defaults.
///
/// A JobSpec is *syntactically* well-formed data; ResolveJobSpec performs
/// the one semantic validation pass (shared by the CLI parser and the
/// daemon) and is the only place those rules live.
struct JobSpec {
  std::vector<Algorithm> algorithms = {Algorithm::kTpPlus};
  std::vector<std::uint32_t> ls = {2};

  /// CSV input path; empty means synthetic data.
  std::string input;
  CsvFormat format = CsvFormat::kAuto;
  /// Schema of a coded CSV input in ParseSchemaSpec grammar; empty = none.
  std::string schema_spec;

  /// Synthetic-input spec; `ns` x `ds` sweep its row count and QI prefix
  /// dimensionality, one table per (n, d) cell, n-major.
  DatasetSpec dataset;
  std::vector<std::uint64_t> ns = {10000};
  std::vector<std::uint64_t> ds = {3};

  /// Output stem: releases at <out>.csv (+ <out>_sa.csv), reports at
  /// <out>.json and <out>_metrics.csv.
  std::string out = "ldiv_out";
  bool write_releases = false;
  bool compute_kl = true;
  bool timings = true;
  std::uint32_t threads = 0;        ///< 0 = auto (hardware concurrency)
  std::uint64_t memory_budget = 0;  ///< bytes; 0 = unlimited (in-RAM paths)
  std::string emit_input;           ///< also write the input table here

  /// Daemon scheduling fields, ignored by the one-shot CLI: higher
  /// priority dequeues first; a non-zero deadline (milliseconds from
  /// admission) expires the job with an error if it is still queued when
  /// it elapses.
  std::uint32_t priority = 0;
  std::uint64_t deadline_ms = 0;
};

/// Renders `spec` as versioned `key = value` lines (the FlagSet config
/// grammar). ParseJobSpec(SerializeJobSpec(s)) reconstructs an equivalent
/// spec; keys holding their default value are omitted.
std::string SerializeJobSpec(const JobSpec& spec);

/// THE reader of job keys, shared by the CLI (argv plus a `--config`
/// file) and the daemon (ParseJobSpec): reads each key of `keys` once onto
/// a default JobSpec. Value grammar: `algo` a list of registry names or
/// `all`; `l`, `n`, `d` comma-separated lists; `threads` a count or
/// `auto`; `memory-budget` a byte size (K/M/G/T suffixes; empty means
/// unlimited); booleans true/false/1/0/yes/no/on/off. Presence rules,
/// which need the key set because a JobSpec cannot tell a default from a
/// value that was set: `format` only with `input`, and `dataset`, `n`,
/// `d` and `seed` never with `input`. Errors name the key in `field`.
/// Unknown keys and `version` are the caller's to check.
Expected<JobSpec, PipelineError> ReadJobSpec(const FlagSet& keys);

/// Parses SerializeJobSpec output (or any hand-written spec in the same
/// grammar): a strict pre-pass (no NUL byte, no duplicate or oversized
/// key), the unknown-key and version checks, then ReadJobSpec.
Expected<JobSpec, PipelineError> ParseJobSpec(std::string_view text);

/// A JobSpec that passed the single semantic validation pass: the CSV
/// format is resolved (never kAuto), the schema is parsed, and the
/// (n, d) grid is known to be generable. The embedded spec is normalized
/// (CSV inputs force a single-cell grid).
struct ResolvedJobSpec {
  JobSpec spec;
  /// Resolved input encoding; meaningful only when spec.input is set.
  CsvFormat format = CsvFormat::kRaw;
  /// Parsed schema of a coded CSV input; disengaged otherwise.
  std::optional<Schema> schema;
};

/// THE validation pass over a JobSpec -- every semantic rule the pipeline
/// enforces lives here and nowhere else: non-empty algorithm/l lists,
/// l >= 1, schema/format consistency (including kAuto sniffing through
/// ResolveCsvFormat), dataset grid-cell validity, the output stem, the
/// memory-budget floor, and the emit-input single-table requirement.
/// Errors carry the offending JobSpec key in `field` and render the same
/// one-line messages the CLI always printed.
Expected<ResolvedJobSpec, PipelineError> ResolveJobSpec(const JobSpec& spec);

}  // namespace ldv

#endif  // LDIV_ENGINE_JOB_SPEC_H_
