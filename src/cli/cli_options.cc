#include "cli/cli_options.h"

#include <array>
#include <vector>

#include "common/flags.h"
#include "core/run_spec.h"

namespace ldv {

namespace {

// The one-shot flags, and the ones `submit` takes on top of them.
constexpr std::array<std::string_view, 17> kRunFlags = {
    "algo",
    "l",
    "input",
    "format",
    "schema",
    "dataset",
    "n",
    "d",
    "seed",
    "out",
    "config",
    "write-releases",
    "kl",
    "no-timings",
    "threads",
    "emit-input",
    "memory-budget",
};
constexpr std::array<std::string_view, 4> kSubmitFlags = {
    "socket",
    "priority",
    "deadline-ms",
    "retry",
};

}  // namespace

Expected<JobSpec, PipelineError> ParseCliJob(int argc, const char* const* argv, CliCommand command,
                                             FlagSet* flags) {
  std::string error;
  if (!flags->ParseArgs(argc, argv, &error)) return UsageError("", error);
  if (flags->Has("help")) return JobSpec();

  std::string config;
  flags->GetString("config", "", &config, &error);
  if (!config.empty() && !flags->ParseConfigFile(config, &error)) {
    return UsageError("config", error);
  }

  std::vector<std::string_view> known(kRunFlags.begin(), kRunFlags.end());
  if (command == CliCommand::kSubmit) {
    known.insert(known.end(), kSubmitFlags.begin(), kSubmitFlags.end());
  }
  std::vector<std::string> unknown = flags->UnknownKeys(known);
  if (!unknown.empty()) {
    return UsageError(unknown.front(), "unknown flag --" + unknown.front() + " (see --help)");
  }

  Expected<JobSpec, PipelineError> spec = ReadJobSpec(*flags);
  if (!spec.ok()) return spec;
  bool no_timings = false;
  if (!flags->GetBool("no-timings", false, &no_timings, &error)) {
    return UsageError("no-timings", error);
  }
  if (no_timings) spec->timings = false;

  Expected<ResolvedJobSpec, PipelineError> resolved = ResolveJobSpec(*spec);
  if (!resolved.ok()) return resolved.error();
  if (!spec->input.empty()) spec->format = resolved->format;
  return spec;
}

std::string CliUsage(std::string_view program) {
  std::string usage;
  usage += "usage: " + std::string(program) + " [flags]\n";
  usage += "       " + std::string(program) + " serve|submit|ctl [flags]\n";
  usage += "\n";
  usage += "End-to-end l-diversity pipeline: load or generate a microdata table, run\n";
  usage += "one registered algorithm or an algorithms x (l, n, d) grid, and\n";
  usage += "write the anonymized release plus a JSON/CSV metrics report.\n";
  usage += "\n";
  usage += "  --algo=LIST        algorithms to run: comma-separated registry names, or\n";
  usage += "                     'all' (registered: " + RegisteredAlgorithmNames(", ") +
           "). default: TP+\n";
  usage += "  --l=LIST           privacy parameters, e.g. --l=4 or --l=2,4,6. default: 2\n";
  usage += "  --input=FILE       CSV microdata, coded (integer codes + --schema) or raw\n";
  usage += "                     (string labels; per-column dictionaries are built and\n";
  usage += "                     releases decode back to labels)\n";
  usage += "  --format=F         input cell encoding: auto | coded | raw. default: auto\n";
  usage += "                     (sniffs the file; --schema implies coded)\n";
  usage += "  --schema=SPEC      e.g. Age:79,Gender:2|Income:50 (names optional); coded\n";
  usage += "                     inputs only -- the header row is validated against it\n";
  usage += "  --dataset=NAME     synthetic input when no --input: sal | occ. default: sal\n";
  usage += "  --n=LIST           synthetic rows per table, e.g. --n=10000,100000\n";
  usage += "  --d=LIST           QI prefix dimensionality 1..7, e.g. --d=3,4. default: 3\n";
  usage += "  --seed=SEED        generator seed (0 = dataset default)\n";
  usage += "  --out=STEM         output stem: STEM.csv release, STEM.json report,\n";
  usage += "                     STEM_metrics.csv; raw inputs add STEM_dict.csv\n";
  usage += "                     (attribute,code,label). default: ldiv_out\n";
  usage += "  --write-releases   multi-job runs: write one release per job (STEM.jobK.csv)\n";
  usage += "  --threads=T        thread budget of the whole run: sweeps spend it on batch\n";
  usage += "                     workers, single jobs on in-kernel parallelism. T = count\n";
  usage += "                     or 'auto' (hardware). Outputs are byte-identical at any\n";
  usage += "                     T. default: auto\n";
  usage += "  --memory-budget=B  cap accounted working memory (paged ingestion, external\n";
  usage += "                     sorts, grouping arenas), e.g. 512M or 2G (binary\n";
  usage += "                     suffixes K/M/G/T). 0 or unset = unlimited (all-in-RAM).\n";
  usage += "                     Outputs are byte-identical at any budget\n";
  usage += "  --kl=false         skip the KL-divergence estimate\n";
  usage += "  --no-timings       omit wall-clock fields (byte-deterministic reports)\n";
  usage += "  --emit-input=FILE  also write the input table as coded CSV\n";
  usage += "  --config=FILE      key = value file of the flags above (flags win)\n";
  usage += "  --help             this text\n";
  usage += "\n";
  usage += "subcommands (see README for the daemon protocol):\n";
  usage += "  serve   run the ldivd anonymization daemon on a unix socket; one\n";
  usage += "          --cache-bytes=B (default 512M) bounds its cache of input\n";
  usage += "          tables, groupings and Hilbert orders\n";
  usage += "  submit  send one job (the flags above, plus --socket/--priority/\n";
  usage += "          --deadline-ms/--retry=N, which retries busy replies with\n";
  usage += "          jittered exponential backoff) to a running daemon\n";
  usage += "  ctl     daemon control: ldiv ctl --socket=PATH stats|ping|shutdown\n";
  usage += "\n";
  usage += "exit codes: 0 ok, 1 usage error, 2 infeasible instance, 3 I/O error,\n";
  usage += "            4 daemon unavailable / backpressure / expired deadline\n";
  return usage;
}

}  // namespace ldv
