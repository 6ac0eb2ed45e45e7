#include "cli/cli_options.h"

#include <array>
#include <charconv>

#include "common/flags.h"
#include "common/memory_budget.h"
#include "common/schema_spec.h"

namespace ldv {

namespace {

constexpr std::array<std::string_view, 18> kKnownFlags = {
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
    "sweep",
    "config",
    "write-releases",
    "kl",
    "no-timings",
    "threads",
    "emit-input",
    "memory-budget",
};

}  // namespace

bool ParseCliOptions(int argc, const char* const* argv, CliOptions* options, std::string* error,
                     std::span<const std::string_view> extra_flags, FlagSet* raw_flags) {
  FlagSet local_flags;
  FlagSet& flags = raw_flags != nullptr ? *raw_flags : local_flags;
  if (!flags.ParseArgs(argc, argv, error)) return false;
  if (flags.Has("help")) {
    options->help = true;
    return true;
  }

  std::string config;
  if (!flags.GetString("config", "", &config, error)) return false;
  if (!config.empty() && !flags.ParseConfigFile(config, error)) return false;

  std::vector<std::string_view> known(kKnownFlags.begin(), kKnownFlags.end());
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());
  std::vector<std::string> unknown = flags.UnknownKeys(known);
  if (!unknown.empty()) {
    *error = "unknown flag --" + unknown.front() + " (see --help)";
    return false;
  }

  // Syntactic layer: flag grammar, typed values, and flag-PRESENCE
  // conflicts (which only the parser can see -- a JobSpec has no notion
  // of which keys were explicitly set).
  std::string algo_list;
  if (!flags.GetString("algo", "tp+", &algo_list, error)) return false;
  if (!ParseAlgorithmList(algo_list, &options->algorithms, error)) return false;

  constexpr std::array<std::uint32_t, 1> kDefaultL = {2};
  if (!flags.GetUint32List("l", kDefaultL, &options->ls, error)) return false;

  if (!flags.GetString("input", "", &options->input, error)) return false;
  std::string format_text;
  if (!flags.GetString("format", "auto", &format_text, error)) return false;
  if (!ParseCsvFormat(format_text, &options->format, error)) {
    *error = "--format: " + *error;
    return false;
  }
  if (options->input.empty() && flags.Has("format")) {
    *error = "--format only applies to --input CSV data";
    return false;
  }
  std::string schema_spec;
  if (!flags.GetString("schema", "", &schema_spec, error)) return false;
  if (options->input.empty() && !schema_spec.empty()) {
    *error = "--schema only applies to --input CSV data (synthetic datasets carry their own)";
    return false;
  }

  if (!flags.GetString("dataset", "sal", &options->dataset.name, error)) return false;
  std::uint64_t seed = 0;
  if (!flags.GetUint64("seed", 0, &seed, error)) return false;
  options->dataset.seed = seed;
  constexpr std::array<std::uint64_t, 1> kDefaultN = {10000};
  constexpr std::array<std::uint64_t, 1> kDefaultD = {3};
  if (!flags.GetUint64List("n", kDefaultN, &options->ns, error)) return false;
  if (!flags.GetUint64List("d", kDefaultD, &options->ds, error)) return false;
  if (!options->input.empty()) {
    for (std::string_view f : {"dataset", "n", "d", "seed"}) {
      if (flags.Has(f)) {
        *error = "--" + std::string(f) + " applies to synthetic data and conflicts with --input";
        return false;
      }
    }
    options->ns = {0};
    options->ds = {0};
  }

  if (!flags.GetString("out", "ldiv_out", &options->out, error)) return false;
  if (!flags.GetBool("sweep", false, &options->sweep, error)) return false;
  if (!flags.GetBool("write-releases", false, &options->write_releases, error)) return false;
  if (!flags.GetBool("kl", true, &options->compute_kl, error)) return false;
  bool no_timings = false;
  if (!flags.GetBool("no-timings", false, &no_timings, error)) return false;
  options->timings = !no_timings;
  std::string threads_text;
  if (!flags.GetString("threads", "auto", &threads_text, error)) return false;
  if (threads_text == "auto") {
    options->threads = 0;
  } else {
    const char* begin = threads_text.data();
    const char* end = begin + threads_text.size();
    auto [ptr, ec] = std::from_chars(begin, end, options->threads);
    if (ec != std::errc{} || ptr != end) {
      *error = "--threads: expected a thread count or 'auto', got '" + threads_text + "'";
      return false;
    }
  }
  std::string budget_text;
  if (!flags.GetString("memory-budget", "", &budget_text, error)) return false;
  if (!budget_text.empty()) {
    if (!ParseByteSize(budget_text, &options->memory_budget, error)) {
      *error = "--memory-budget: " + *error;
      return false;
    }
  }
  if (!flags.GetString("emit-input", "", &options->emit_input, error)) return false;

  // Semantic layer: the one validation pass shared with the daemon.
  // Passing the raw schema text (instead of a formatted round-trip) keeps
  // the user's spelling in error messages.
  JobSpec spec = ToJobSpec(*options);
  spec.schema_spec = schema_spec;
  Expected<ResolvedJobSpec, PipelineError> resolved = ResolveJobSpec(spec);
  if (!resolved.ok()) {
    *error = resolved.error().message;
    return false;
  }
  if (!options->input.empty()) {
    // Surface the resolved encoding so the pipeline (and tests) only ever
    // see kCoded or kRaw.
    options->format = resolved->format;
    options->schema = resolved->schema;
  }
  return true;
}

JobSpec ToJobSpec(const CliOptions& options) {
  JobSpec spec;
  spec.algorithms = options.algorithms;
  spec.ls = options.ls;
  spec.input = options.input;
  spec.format = options.format;
  spec.schema_spec = options.schema.has_value() ? FormatSchemaSpec(*options.schema) : "";
  spec.dataset = options.dataset;
  spec.ns = options.ns;
  spec.ds = options.ds;
  spec.out = options.out;
  spec.sweep = options.sweep;
  spec.write_releases = options.write_releases;
  spec.compute_kl = options.compute_kl;
  spec.timings = options.timings;
  spec.threads = options.threads;
  spec.memory_budget = options.memory_budget;
  spec.emit_input = options.emit_input;
  return spec;
}

std::string CliUsage(std::string_view program) {
  std::string usage;
  usage += "usage: " + std::string(program) + " [flags]\n";
  usage += "       " + std::string(program) + " serve|submit|ctl [flags]\n";
  usage += "\n";
  usage += "End-to-end l-diversity pipeline: load or generate a microdata table, run\n";
  usage += "one registered algorithm (or a sweep grid through the batch driver), and\n";
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
  usage += "  --sweep            run through the batch driver even for one job\n";
  usage += "                     (grids with >1 job sweep automatically)\n";
  usage += "  --write-releases   sweep mode: write one release per job (STEM.jobK.csv)\n";
  usage += "  --threads=T        thread budget of the whole run: sweeps spend it on batch\n";
  usage += "                     workers, single jobs on in-kernel parallelism. T = count\n";
  usage += "                     or 'auto' (hardware). Outputs are byte-identical at any\n";
  usage += "                     T. default: auto\n";
  usage += "  --memory-budget=B  cap accounted working memory (paged ingestion, page\n";
  usage += "                     cache, external sorts, grouping arenas), e.g. 512M or\n";
  usage += "                     2G (binary suffixes K/M/G/T). 0 or unset = unlimited\n";
  usage += "                     (all-in-RAM). Outputs are byte-identical at any budget\n";
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
