#ifndef LDIV_CLI_CLI_OPTIONS_H_
#define LDIV_CLI_CLI_OPTIONS_H_

#include <string>
#include <string_view>

#include "common/expected.h"
#include "engine/error.h"
#include "engine/job_spec.h"

namespace ldv {

class FlagSet;

/// The `ldiv` front-ends that take a job on the command line.
enum class CliCommand {
  /// The one-shot run: every JobSpec key but `version`, `timings` (spelled
  /// `--no-timings`) and the daemon's `priority` and `deadline-ms`, plus
  /// `--config`.
  kRun,
  /// `ldiv submit`: kRun's flags plus `--priority`, `--deadline-ms`, and
  /// its own `--socket` and `--retry`.
  kSubmit,
};

/// Parses argv and any `--config` file (argv wins) into `*flags`, rejects
/// a flag `command` does not take, and reads the job with ReadJobSpec --
/// the daemon's reader -- then validates it with ResolveJobSpec, so spec
/// mistakes surface as usage errors. A CSV input comes back with its
/// format resolved (never kAuto). With `--help` it returns a default
/// JobSpec and `flags->Has("help")`. Everything here is user input: an
/// `ldiv` user can never trip an LDIV_CHECK from the command line.
Expected<JobSpec, PipelineError> ParseCliJob(int argc, const char* const* argv, CliCommand command,
                                             FlagSet* flags);

/// The usage text printed by --help and on parse errors.
std::string CliUsage(std::string_view program);

}  // namespace ldv

#endif  // LDIV_CLI_CLI_OPTIONS_H_
