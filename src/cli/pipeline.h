#ifndef LDIV_CLI_PIPELINE_H_
#define LDIV_CLI_PIPELINE_H_

#include "cli/cli_options.h"
#include "common/expected.h"
#include "engine/engine.h"
#include "engine/error.h"

namespace ldv {

/// The CLI pipeline is a thin adapter over the engine since the ldivd
/// redesign: CliOptions normalize into a JobSpec (ToJobSpec) and run
/// through the shared Engine, so the one-shot CLI and the daemon execute
/// byte-identical code paths. The old names remain as aliases for callers
/// that grew up against the pipeline API.
using PipelineTable = EngineTable;
using PipelineJobResult = EngineJob;
using PipelineResult = JobResult;

/// The process-wide engine the CLI adapters share: one DatasetCache and
/// one ArtifactCache. The daemon constructs its own Engine instead.
Engine& GlobalEngine();

/// Runs the full pipeline described by `options`: materialize the input
/// table(s) (CSV load or synthetic generation, through the DatasetCache),
/// expand the run grid, and execute it -- inline with one Workspace for a
/// single job, through AnonymizeBatch for a grid (or when options.sweep
/// forces it). Load/generation failures return a typed PipelineError;
/// infeasible jobs are not an error (reported with feasible = false).
Expected<PipelineResult, PipelineError> RunPipeline(const CliOptions& options);

}  // namespace ldv

#endif  // LDIV_CLI_PIPELINE_H_
