// CLI front-end tests: the FlagSet parser (args + config files), the
// schema spec round-trip, ParseCliJob error handling, and the one job
// reader: argv, a `--config` file and the daemon wire must read the same
// keys into the same JobSpec. Every bad input here must come back as an
// error -- command-line mistakes never reach an LDIV_CHECK abort.

#include "cli/cli_options.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/schema_spec.h"
#include "engine/job_spec.h"

namespace ldv {
namespace {

bool ParseFlags(std::vector<const char*> args, FlagSet* flags, std::string* error) {
  args.insert(args.begin(), "prog");
  return flags->ParseArgs(static_cast<int>(args.size()), args.data(), error);
}

bool ParseCli(std::vector<const char*> args, JobSpec* spec, std::string* error) {
  args.insert(args.begin(), "ldiv");
  FlagSet flags;
  Expected<JobSpec, PipelineError> parsed =
      ParseCliJob(static_cast<int>(args.size()), args.data(), CliCommand::kRun, &flags);
  if (!parsed.ok()) {
    *error = parsed.error().message;
    return false;
  }
  *spec = std::move(parsed.value());
  return true;
}

std::string WriteTempFile(const std::string& name, const std::string& content) {
  std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(FlagSet, ParsesEqualsSpaceAndBareForms) {
  FlagSet flags;
  std::string error;
  ASSERT_TRUE(ParseFlags({"--l=4", "--algo", "tp", "--write-releases"}, &flags, &error)) << error;
  std::uint32_t l = 0;
  EXPECT_TRUE(flags.GetUint32("l", 0, &l, &error));
  EXPECT_EQ(l, 4u);
  std::string algo;
  EXPECT_TRUE(flags.GetString("algo", "", &algo, &error));
  EXPECT_EQ(algo, "tp");
  bool write_releases = false;
  EXPECT_TRUE(flags.GetBool("write-releases", false, &write_releases, &error));
  EXPECT_TRUE(write_releases);
}

TEST(FlagSet, AbsentFlagsKeepDefaults) {
  FlagSet flags;
  std::string error;
  ASSERT_TRUE(ParseFlags({}, &flags, &error));
  std::uint32_t value = 0;
  EXPECT_TRUE(flags.GetUint32("missing", 7, &value, &error));
  EXPECT_EQ(value, 7u);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagSet, LaterOccurrenceWins) {
  FlagSet flags;
  std::string error;
  ASSERT_TRUE(ParseFlags({"--l=2", "--l=6"}, &flags, &error));
  std::uint32_t l = 0;
  EXPECT_TRUE(flags.GetUint32("l", 0, &l, &error));
  EXPECT_EQ(l, 6u);
}

TEST(FlagSet, RejectsNonFlagTokensAndBadValues) {
  FlagSet flags;
  std::string error;
  EXPECT_FALSE(ParseFlags({"stray"}, &flags, &error));
  EXPECT_NE(error.find("stray"), std::string::npos);

  FlagSet bad;
  ASSERT_TRUE(ParseFlags({"--l=abc", "--write-releases=maybe"}, &bad, &error));
  std::uint32_t l = 0;
  EXPECT_FALSE(bad.GetUint32("l", 0, &l, &error));
  EXPECT_NE(error.find("--l"), std::string::npos);
  bool write_releases = false;
  EXPECT_FALSE(bad.GetBool("write-releases", false, &write_releases, &error));
}

TEST(FlagSet, ParsesLists) {
  FlagSet flags;
  std::string error;
  ASSERT_TRUE(ParseFlags({"--l=2,4,6"}, &flags, &error));
  std::vector<std::uint32_t> ls;
  EXPECT_TRUE(flags.GetUint32List("l", {}, &ls, &error));
  EXPECT_EQ(ls, (std::vector<std::uint32_t>{2, 4, 6}));

  FlagSet bad;
  ASSERT_TRUE(ParseFlags({"--l=2,,6"}, &bad, &error));
  EXPECT_FALSE(bad.GetUint32List("l", {}, &ls, &error));
}

TEST(FlagSet, ConfigFileFillsOnlyAbsentKeys) {
  std::string path = WriteTempFile("flagset.conf",
                                   "# comment\n"
                                   "l = 4\n"
                                   "algo = mondrian\n"
                                   "\n");
  FlagSet flags;
  std::string error;
  ASSERT_TRUE(ParseFlags({"--algo=tp"}, &flags, &error));
  ASSERT_TRUE(flags.ParseConfigFile(path, &error)) << error;
  std::string algo;
  EXPECT_TRUE(flags.GetString("algo", "", &algo, &error));
  EXPECT_EQ(algo, "tp") << "command-line flags must override the config file";
  std::uint32_t l = 0;
  EXPECT_TRUE(flags.GetUint32("l", 0, &l, &error));
  EXPECT_EQ(l, 4u);
  std::remove(path.c_str());
}

TEST(FlagSet, ConfigFileErrorsAreReported) {
  FlagSet flags;
  std::string error;
  EXPECT_FALSE(flags.ParseConfigFile(testing::TempDir() + "does_not_exist.conf", &error));

  std::string path = WriteTempFile("broken.conf", "just a line without equals\n");
  EXPECT_FALSE(flags.ParseConfigFile(path, &error));
  EXPECT_NE(error.find(":1:"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(FlagSet, UnknownKeysAreListedOnce) {
  FlagSet flags;
  std::string error;
  ASSERT_TRUE(ParseFlags({"--typo=1", "--l=2", "--typo=2"}, &flags, &error));
  constexpr std::string_view kKnown[] = {"l"};
  EXPECT_EQ(flags.UnknownKeys(kKnown), std::vector<std::string>{"typo"});
}

TEST(SchemaSpec, ParsesNamedAndUnnamedForms) {
  std::string error;
  std::optional<Schema> named = ParseSchemaSpec("Age:79,Gender:2|Income:50", &error);
  ASSERT_TRUE(named.has_value()) << error;
  EXPECT_EQ(named->qi_count(), 2u);
  EXPECT_EQ(named->qi(0).name, "Age");
  EXPECT_EQ(named->qi(0).domain_size, 79u);
  EXPECT_EQ(named->sensitive().name, "Income");
  EXPECT_EQ(named->sa_domain_size(), 50u);

  std::optional<Schema> bare = ParseSchemaSpec("79,2,50", &error);
  ASSERT_TRUE(bare.has_value()) << error;
  EXPECT_EQ(bare->qi_count(), 2u);
  EXPECT_EQ(bare->qi(1).name, "Q2");
  EXPECT_EQ(bare->sensitive().name, "S");
  EXPECT_EQ(bare->sa_domain_size(), 50u);
}

TEST(SchemaSpec, FormatRoundTrips) {
  std::string error;
  std::optional<Schema> schema = ParseSchemaSpec("Age:79,Gender:2|Income:50", &error);
  ASSERT_TRUE(schema.has_value());
  std::string spec = FormatSchemaSpec(*schema);
  EXPECT_EQ(spec, "Age:79,Gender:2|Income:50");
  std::optional<Schema> reparsed = ParseSchemaSpec(spec, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_TRUE(*schema == *reparsed);
}

TEST(SchemaSpec, RejectsMalformedSpecsWithMessages) {
  std::string error;
  EXPECT_FALSE(ParseSchemaSpec("", &error).has_value());
  EXPECT_FALSE(ParseSchemaSpec("79", &error).has_value());
  EXPECT_NE(error.find("sensitive"), std::string::npos) << error;
  EXPECT_FALSE(ParseSchemaSpec("Age:0|Income:50", &error).has_value());
  EXPECT_NE(error.find("Age"), std::string::npos) << error;
  EXPECT_FALSE(ParseSchemaSpec("Age:banana|Income:50", &error).has_value());
  EXPECT_FALSE(ParseSchemaSpec("79,2|", &error).has_value());
  EXPECT_FALSE(ParseSchemaSpec("79|50|2", &error).has_value());
  EXPECT_FALSE(ParseSchemaSpec("79|50,2", &error).has_value());
  EXPECT_FALSE(ParseSchemaSpec(",79|50", &error).has_value());
}

// Codes are 32-bit: the largest domain whose codes fit is 2^32 - 1, and a
// larger one is refused up front instead of wrapping a box bound to 0.
TEST(SchemaSpec, DomainsStayWithinThirtyTwoBitCodes) {
  std::string error;
  std::optional<Schema> widest = ParseSchemaSpec("A:4294967295,B:3|S:4294967295", &error);
  ASSERT_TRUE(widest.has_value()) << error;
  EXPECT_EQ(widest->qi(0).domain_size, 4294967295u);
  EXPECT_EQ(widest->sa_domain_size(), 4294967295u);

  EXPECT_FALSE(ParseSchemaSpec("A:4294967296,B:3|S:2", &error).has_value());
  EXPECT_NE(error.find("'A'"), std::string::npos) << error;
  EXPECT_NE(error.find("4294967296"), std::string::npos) << error;
  EXPECT_FALSE(ParseSchemaSpec("A:3|S:4294967296", &error).has_value());
  EXPECT_NE(error.find("'S'"), std::string::npos) << error;

  JobSpec spec;
  EXPECT_FALSE(ParseCli({"--algo=mondrian", "--input=x.csv", "--schema=A:4294967296,B:3|S:2"},
                        &spec, &error));
  EXPECT_NE(error.find("32-bit codes"), std::string::npos) << error;
}

TEST(CliJob, DefaultsAndSingleRun) {
  JobSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCli({"--algo=tp", "--l=4", "--n=500"}, &spec, &error)) << error;
  EXPECT_EQ(spec.algorithms, std::vector<Algorithm>{Algorithm::kTp});
  EXPECT_EQ(spec.ls, std::vector<std::uint32_t>{4});
  EXPECT_EQ(spec.ns, std::vector<std::uint64_t>{500});
  EXPECT_EQ(spec.ds, std::vector<std::uint64_t>{3});
  EXPECT_EQ(spec.dataset.name, "sal");
  EXPECT_TRUE(spec.compute_kl);
}

TEST(CliJob, AllExpandsToEveryRegisteredAlgorithm) {
  JobSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCli({"--algo=all"}, &spec, &error)) << error;
  EXPECT_EQ(spec.algorithms.size(), kAlgorithmCount);
  EXPECT_EQ(spec.algorithms.front(), Algorithm::kTp);
  EXPECT_EQ(spec.algorithms.back(), Algorithm::kTds);
}

TEST(CliJob, UnknownAlgorithmIsACleanError) {
  JobSpec spec;
  std::string error;
  EXPECT_FALSE(ParseCli({"--algo=tp++"}, &spec, &error));
  EXPECT_NE(error.find("tp++"), std::string::npos);
  EXPECT_NE(error.find("TP"), std::string::npos) << "error should list registered names";
}

TEST(CliJob, BadSchemaAndMissingSaAreCleanErrors) {
  JobSpec spec;
  std::string error;
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--schema=Age:0|S:5"}, &spec, &error));
  EXPECT_NE(error.find("Age"), std::string::npos);
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--schema=79"}, &spec, &error));
  EXPECT_NE(error.find("sensitive"), std::string::npos) << error;
  // A coded-looking file without --schema is a usage error, not a silent
  // raw ingestion of digit strings.
  std::string coded = WriteTempFile("cli_coded_noschema.csv", "A,B\n1,0\n");
  std::string input_flag = "--input=" + coded;
  EXPECT_FALSE(ParseCli({input_flag.c_str()}, &spec, &error));
  EXPECT_NE(error.find("--schema"), std::string::npos) << error;
  std::remove(coded.c_str());
}

TEST(CliJob, FormatFlagRules) {
  JobSpec spec;
  std::string error;
  // --format only applies to CSV input.
  EXPECT_FALSE(ParseCli({"--format=raw"}, &spec, &error));
  EXPECT_NE(error.find("--input"), std::string::npos) << error;
  // Unknown format names are usage errors.
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--format=parquet"}, &spec, &error));
  EXPECT_NE(error.find("parquet"), std::string::npos) << error;
  // raw + --schema conflict: the dictionaries define the domains.
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--format=raw", "--schema=3|2"}, &spec, &error));
  EXPECT_NE(error.find("raw"), std::string::npos) << error;
  // coded requires --schema.
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--format=coded"}, &spec, &error));
  EXPECT_NE(error.find("--schema"), std::string::npos) << error;
  // --schema implies a coded load under the default auto format.
  spec = JobSpec();
  ASSERT_TRUE(ParseCli({"--input=x.csv", "--schema=Age:3|S:2"}, &spec, &error)) << error;
  EXPECT_EQ(spec.format, CsvFormat::kCoded);
  EXPECT_FALSE(spec.schema_spec.empty());
  // An explicit raw load never needs the file at parse time.
  spec = JobSpec();
  ASSERT_TRUE(ParseCli({"--input=x.csv", "--format=raw"}, &spec, &error)) << error;
  EXPECT_EQ(spec.format, CsvFormat::kRaw);
  EXPECT_TRUE(spec.schema_spec.empty());
}

TEST(CliJob, ThreadsAcceptsCountsAndAuto) {
  JobSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCli({"--n=500"}, &spec, &error)) << error;
  EXPECT_EQ(spec.threads, 0u);  // default: auto
  ASSERT_TRUE(ParseCli({"--n=500", "--threads=auto"}, &spec, &error)) << error;
  EXPECT_EQ(spec.threads, 0u);
  ASSERT_TRUE(ParseCli({"--n=500", "--threads=6"}, &spec, &error)) << error;
  EXPECT_EQ(spec.threads, 6u);
  EXPECT_FALSE(ParseCli({"--n=500", "--threads=many"}, &spec, &error));
  EXPECT_NE(error.find("--threads"), std::string::npos) << error;
  EXPECT_FALSE(ParseCli({"--n=500", "--threads=4x"}, &spec, &error));
}

TEST(CliJob, DatasetSpecMistakesAreUsageErrors) {
  // Grid-cell validation happens at parse time so these exit 1 (usage),
  // not 3 (pipeline failure).
  JobSpec spec;
  std::string error;
  EXPECT_FALSE(ParseCli({"--dataset=census"}, &spec, &error));
  EXPECT_NE(error.find("census"), std::string::npos);
  EXPECT_FALSE(ParseCli({"--d=9"}, &spec, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_FALSE(ParseCli({"--n=0"}, &spec, &error));
  EXPECT_FALSE(ParseCli({"--n=100,200", "--emit-input=x.csv"}, &spec, &error));
  EXPECT_NE(error.find("--emit-input"), std::string::npos) << error;
}

TEST(CliJob, RejectsConflictingAndUnknownFlags) {
  JobSpec spec;
  std::string error;
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--schema=9,9|5", "--n=100"}, &spec, &error));
  EXPECT_NE(error.find("--n"), std::string::npos);
  EXPECT_FALSE(ParseCli({"--algos=tp"}, &spec, &error));
  EXPECT_NE(error.find("--algos"), std::string::npos);
  // Retired flags are unknown, not silently ignored: the artifact cache's
  // own size, and the switch that sent one job through the batch driver
  // (every run takes it now).
  for (const std::string retired : {"artifact-cache", "sweep"}) {
    const std::string flag = "--" + retired;
    EXPECT_FALSE(ParseCli({"--algo=tp", flag.c_str()}, &spec, &error)) << flag;
    EXPECT_NE(error.find("unknown flag " + flag), std::string::npos) << error;
  }
  EXPECT_FALSE(ParseCli({"--l=0"}, &spec, &error));
  EXPECT_FALSE(ParseCli({"--out="}, &spec, &error));
}

TEST(CliJob, ConfigFileDrivesARunAndFlagsWin) {
  std::string path = WriteTempFile("cli.conf",
                                   "algo = mondrian\n"
                                   "l = 4\n"
                                   "n = 1500\n");
  JobSpec spec;
  std::string error;
  const std::string config_flag = "--config=" + path;
  ASSERT_TRUE(ParseCli({config_flag.c_str(), "--algo=anatomy"}, &spec, &error)) << error;
  EXPECT_EQ(spec.algorithms, std::vector<Algorithm>{Algorithm::kAnatomy});
  EXPECT_EQ(spec.ls, std::vector<std::uint32_t>{4});
  EXPECT_EQ(spec.ns, std::vector<std::uint64_t>{1500});
  std::remove(path.c_str());
}

TEST(CliJob, DaemonOnlyKeysAreUnknownFlags) {
  // The wire's `version`, `timings` (the CLI spells it --no-timings) and
  // scheduling keys are not one-shot flags; `submit` takes the scheduling
  // keys plus its own --socket and --retry.
  JobSpec spec;
  std::string error;
  for (const char* flag : {"--timings=false", "--priority=1", "--deadline-ms=5", "--version=1"}) {
    EXPECT_FALSE(ParseCli({flag}, &spec, &error)) << flag;
    EXPECT_NE(error.find("unknown flag"), std::string::npos) << error;
  }
  const char* argv[] = {"ldiv", "--socket=/tmp/s", "--priority=3", "--deadline-ms=50", "--retry=2"};
  FlagSet flags;
  Expected<JobSpec, PipelineError> submit = ParseCliJob(5, argv, CliCommand::kSubmit, &flags);
  ASSERT_TRUE(submit.ok()) << submit.error().message;
  EXPECT_EQ(submit->priority, 3u);
  EXPECT_EQ(submit->deadline_ms, 50u);
  EXPECT_TRUE(flags.Has("socket"));
  EXPECT_TRUE(flags.Has("retry"));
}

TEST(CliJob, HelpShortCircuits) {
  const char* argv[] = {"ldiv", "--help"};
  FlagSet flags;
  ASSERT_TRUE(ParseCliJob(2, argv, CliCommand::kRun, &flags).ok());
  EXPECT_TRUE(flags.Has("help"));
  EXPECT_NE(CliUsage("ldiv").find("--algo"), std::string::npos);
}

// Reads the job `keys` describes -- space-separated `key=value` pairs, a
// bare key being a switch -- three ways: as argv, as a `--config` file
// holding the same keys, and over the daemon wire (ParseJobSpec of the
// argv job's serialization). Returns the three jobs' SerializeJobSpec
// texts.
std::vector<std::string> ReadThreeWays(const std::string& keys) {
  std::vector<std::string> argv_flags;
  std::string config;
  std::size_t begin = 0;
  while (begin < keys.size()) {
    const std::string pair = keys.substr(begin, keys.find(' ', begin) - begin);
    begin += pair.size() + 1;
    const std::size_t eq = pair.find('=');
    argv_flags.push_back("--" + pair);
    if (eq == std::string::npos) {
      config += pair + " = true\n";
    } else {
      config += pair.substr(0, eq) + " = " + pair.substr(eq + 1) + "\n";
    }
  }
  std::vector<const char*> args;
  for (const std::string& flag : argv_flags) args.push_back(flag.c_str());
  JobSpec via_argv;
  std::string error;
  EXPECT_TRUE(ParseCli(args, &via_argv, &error)) << error;

  const std::string path = WriteTempFile("reader.conf", config);
  const std::string config_flag = "--config=" + path;
  JobSpec via_config;
  EXPECT_TRUE(ParseCli({config_flag.c_str()}, &via_config, &error)) << error;
  std::remove(path.c_str());

  Expected<JobSpec, PipelineError> via_wire = ParseJobSpec(SerializeJobSpec(via_argv));
  EXPECT_TRUE(via_wire.ok()) << via_wire.error().message;
  return {SerializeJobSpec(via_argv), SerializeJobSpec(via_config),
          via_wire.ok() ? SerializeJobSpec(via_wire.value()) : ""};
}

TEST(OneJobReader, ArgvConfigFileAndWireReadTheSameJob) {
  const std::string coded = WriteTempFile("reader_coded.csv", "Age,Gender,Income\n3,1,0\n");
  const std::string raw = WriteTempFile("reader_raw.csv", "City,Sex,Flu\nOslo,f,yes\n");
  const std::vector<std::string> cases = {
      // Coded CSV: algorithm and l lists, the schema as written, no KL.
      "algo=tp,mondrian l=2,4 input=" + coded + " schema=Age:79,Gender:2|Income:50 kl=false",
      // Raw CSV with a sniffed format, swept with per-job releases.
      "algo=all l=3 input=" + raw + " write-releases out=raw_out",
      // Synthetic grids: the CLI's `auto` threads, then a byte size.
      "dataset=occ seed=5 n=600,900 d=2,3 algo=tp+,hilbert l=2,4,6 threads=auto no-timings",
      "dataset=sal d=4 memory-budget=64M",
      // One raw table: an explicit format, a thread count, an input copy.
      "input=" + raw + " format=raw threads=3 memory-budget=8388608 emit-input=copy.csv",
  };
  for (const std::string& keys : cases) {
    SCOPED_TRACE(keys);
    const std::vector<std::string> texts = ReadThreeWays(keys);
    EXPECT_EQ(texts[0], texts[1]) << "argv vs --config";
    EXPECT_EQ(texts[0], texts[2]) << "argv vs the daemon wire";
  }
  const std::string grid = ReadThreeWays(cases[2])[0];
  EXPECT_EQ(grid.find("threads"), std::string::npos) << "auto is the default thread count";
  EXPECT_NE(grid.find("timings = false\n"), std::string::npos) << grid;
  const std::string budgeted = ReadThreeWays(cases[3])[0];
  EXPECT_NE(budgeted.find("memory-budget = 67108864\n"), std::string::npos) << budgeted;
  std::remove(coded.c_str());
  std::remove(raw.c_str());
}

TEST(OneJobReader, WireTakesTheCliValueGrammar) {
  Expected<JobSpec, PipelineError> wire =
      ParseJobSpec("version = 1\nthreads = auto\nmemory-budget = 64M\n");
  ASSERT_TRUE(wire.ok()) << wire.error().message;
  JobSpec cli;
  std::string error;
  ASSERT_TRUE(ParseCli({"--threads=auto", "--memory-budget=64M"}, &cli, &error)) << error;
  EXPECT_EQ(wire->threads, cli.threads);
  EXPECT_EQ(wire->memory_budget, cli.memory_budget);
  EXPECT_EQ(wire->memory_budget, 64u << 20);

  Expected<JobSpec, PipelineError> bad = ParseJobSpec("version = 1\nthreads = many\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().field, "threads");
  EXPECT_FALSE(ParseCli({"--threads=many"}, &cli, &error));
  EXPECT_EQ(bad.error().message, error);
}

TEST(OneJobReader, WireEnforcesTheCliPresenceRules) {
  const std::string coded = WriteTempFile("reader_presence.csv", "A,B,S\n1,2,0\n");
  const std::string input_flag = "--input=" + coded;
  JobSpec cli;
  std::string error;
  // Synthetic-data keys never ride along with a CSV input.
  for (const std::string key : {"n", "d", "dataset", "seed"}) {
    SCOPED_TRACE(key);
    const std::string value = key == "dataset" ? "occ" : "5";
    std::string payload = "version = 1\nschema = 9,9|5\ninput = " + coded + "\n";
    payload += key + " = " + value + "\n";
    Expected<JobSpec, PipelineError> wire = ParseJobSpec(payload);
    ASSERT_FALSE(wire.ok());
    EXPECT_EQ(wire.error().code, PipelineErrorCode::kUsage);
    EXPECT_EQ(wire.error().field, key);
    const std::string key_flag = "--" + key + "=" + value;
    EXPECT_FALSE(ParseCli({input_flag.c_str(), "--schema=9,9|5", key_flag.c_str()}, &cli, &error));
    EXPECT_EQ(wire.error().message, error);
  }
  // `format` -- even `auto` -- needs an input.
  Expected<JobSpec, PipelineError> stray = ParseJobSpec("version = 1\nformat = auto\n");
  ASSERT_FALSE(stray.ok());
  EXPECT_EQ(stray.error().field, "format");
  EXPECT_FALSE(ParseCli({"--format=auto"}, &cli, &error));
  EXPECT_EQ(stray.error().message, error);
  std::remove(coded.c_str());
}

}  // namespace
}  // namespace ldv
