// CLI front-end tests: the FlagSet parser (args + config files), the
// schema spec round-trip, and ParseCliOptions error handling. Every bad
// input here must come back as an error string -- command-line mistakes
// never reach an LDIV_CHECK abort.

#include "cli/cli_options.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/schema_spec.h"

namespace ldv {
namespace {

bool ParseFlags(std::vector<const char*> args, FlagSet* flags, std::string* error) {
  args.insert(args.begin(), "prog");
  return flags->ParseArgs(static_cast<int>(args.size()), args.data(), error);
}

bool ParseCli(std::vector<const char*> args, CliOptions* options, std::string* error) {
  args.insert(args.begin(), "ldiv");
  return ParseCliOptions(static_cast<int>(args.size()), args.data(), options, error);
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
  ASSERT_TRUE(ParseFlags({"--l=4", "--algo", "tp", "--sweep"}, &flags, &error)) << error;
  std::uint32_t l = 0;
  EXPECT_TRUE(flags.GetUint32("l", 0, &l, &error));
  EXPECT_EQ(l, 4u);
  std::string algo;
  EXPECT_TRUE(flags.GetString("algo", "", &algo, &error));
  EXPECT_EQ(algo, "tp");
  bool sweep = false;
  EXPECT_TRUE(flags.GetBool("sweep", false, &sweep, &error));
  EXPECT_TRUE(sweep);
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
  ASSERT_TRUE(ParseFlags({"--l=abc", "--sweep=maybe"}, &bad, &error));
  std::uint32_t l = 0;
  EXPECT_FALSE(bad.GetUint32("l", 0, &l, &error));
  EXPECT_NE(error.find("--l"), std::string::npos);
  bool sweep = false;
  EXPECT_FALSE(bad.GetBool("sweep", false, &sweep, &error));
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

TEST(CliOptions, DefaultsAndSingleRun) {
  CliOptions options;
  std::string error;
  ASSERT_TRUE(ParseCli({"--algo=tp", "--l=4", "--n=500"}, &options, &error)) << error;
  EXPECT_EQ(options.algorithms, std::vector<Algorithm>{Algorithm::kTp});
  EXPECT_EQ(options.ls, std::vector<std::uint32_t>{4});
  EXPECT_EQ(options.ns, std::vector<std::uint64_t>{500});
  EXPECT_EQ(options.ds, std::vector<std::uint64_t>{3});
  EXPECT_EQ(options.dataset.name, "sal");
  EXPECT_FALSE(options.sweep);
  EXPECT_TRUE(options.compute_kl);
}

TEST(CliOptions, AllExpandsToEveryRegisteredAlgorithm) {
  CliOptions options;
  std::string error;
  ASSERT_TRUE(ParseCli({"--algo=all"}, &options, &error)) << error;
  EXPECT_EQ(options.algorithms.size(), kAlgorithmCount);
  EXPECT_EQ(options.algorithms.front(), Algorithm::kTp);
  EXPECT_EQ(options.algorithms.back(), Algorithm::kTds);
}

TEST(CliOptions, UnknownAlgorithmIsACleanError) {
  CliOptions options;
  std::string error;
  EXPECT_FALSE(ParseCli({"--algo=tp++"}, &options, &error));
  EXPECT_NE(error.find("tp++"), std::string::npos);
  EXPECT_NE(error.find("TP"), std::string::npos) << "error should list registered names";
}

TEST(CliOptions, BadSchemaAndMissingSaAreCleanErrors) {
  CliOptions options;
  std::string error;
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--schema=Age:0|S:5"}, &options, &error));
  EXPECT_NE(error.find("Age"), std::string::npos);
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--schema=79"}, &options, &error));
  EXPECT_NE(error.find("sensitive"), std::string::npos) << error;
  // A coded-looking file without --schema is a usage error, not a silent
  // raw ingestion of digit strings.
  std::string coded = WriteTempFile("cli_coded_noschema.csv", "A,B\n1,0\n");
  std::string input_flag = "--input=" + coded;
  EXPECT_FALSE(ParseCli({input_flag.c_str()}, &options, &error));
  EXPECT_NE(error.find("--schema"), std::string::npos) << error;
  std::remove(coded.c_str());
}

TEST(CliOptions, FormatFlagRules) {
  CliOptions options;
  std::string error;
  // --format only applies to CSV input.
  EXPECT_FALSE(ParseCli({"--format=raw"}, &options, &error));
  EXPECT_NE(error.find("--input"), std::string::npos) << error;
  // Unknown format names are usage errors.
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--format=parquet"}, &options, &error));
  EXPECT_NE(error.find("parquet"), std::string::npos) << error;
  // raw + --schema conflict: the dictionaries define the domains.
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--format=raw", "--schema=3|2"}, &options, &error));
  EXPECT_NE(error.find("raw"), std::string::npos) << error;
  // coded requires --schema.
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--format=coded"}, &options, &error));
  EXPECT_NE(error.find("--schema"), std::string::npos) << error;
  // --schema implies a coded load under the default auto format.
  options = CliOptions();
  ASSERT_TRUE(ParseCli({"--input=x.csv", "--schema=Age:3|S:2"}, &options, &error)) << error;
  EXPECT_EQ(options.format, CsvFormat::kCoded);
  EXPECT_TRUE(options.schema.has_value());
  // An explicit raw load never needs the file at parse time.
  options = CliOptions();
  ASSERT_TRUE(ParseCli({"--input=x.csv", "--format=raw"}, &options, &error)) << error;
  EXPECT_EQ(options.format, CsvFormat::kRaw);
  EXPECT_FALSE(options.schema.has_value());
}

TEST(CliOptions, ThreadsAcceptsCountsAndAuto) {
  CliOptions options;
  std::string error;
  ASSERT_TRUE(ParseCli({"--n=500"}, &options, &error)) << error;
  EXPECT_EQ(options.threads, 0u);  // default: auto
  ASSERT_TRUE(ParseCli({"--n=500", "--threads=auto"}, &options, &error)) << error;
  EXPECT_EQ(options.threads, 0u);
  ASSERT_TRUE(ParseCli({"--n=500", "--threads=6"}, &options, &error)) << error;
  EXPECT_EQ(options.threads, 6u);
  EXPECT_FALSE(ParseCli({"--n=500", "--threads=many"}, &options, &error));
  EXPECT_NE(error.find("--threads"), std::string::npos) << error;
  EXPECT_FALSE(ParseCli({"--n=500", "--threads=4x"}, &options, &error));
}

TEST(CliOptions, DatasetSpecMistakesAreUsageErrors) {
  // Grid-cell validation happens at parse time so these exit 1 (usage),
  // not 3 (pipeline failure).
  CliOptions options;
  std::string error;
  EXPECT_FALSE(ParseCli({"--dataset=census"}, &options, &error));
  EXPECT_NE(error.find("census"), std::string::npos);
  EXPECT_FALSE(ParseCli({"--d=9"}, &options, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_FALSE(ParseCli({"--n=0"}, &options, &error));
  EXPECT_FALSE(ParseCli({"--n=100,200", "--emit-input=x.csv"}, &options, &error));
  EXPECT_NE(error.find("--emit-input"), std::string::npos) << error;
}

TEST(CliOptions, RejectsConflictingAndUnknownFlags) {
  CliOptions options;
  std::string error;
  EXPECT_FALSE(ParseCli({"--input=x.csv", "--schema=9,9|5", "--n=100"}, &options, &error));
  EXPECT_NE(error.find("--n"), std::string::npos);
  EXPECT_FALSE(ParseCli({"--algos=tp"}, &options, &error));
  EXPECT_NE(error.find("--algos"), std::string::npos);
  EXPECT_FALSE(ParseCli({"--artifact-cache=1M"}, &options, &error));
  EXPECT_NE(error.find("--artifact-cache"), std::string::npos) << "a retired flag is unknown";
  EXPECT_FALSE(ParseCli({"--l=0"}, &options, &error));
  EXPECT_FALSE(ParseCli({"--out="}, &options, &error));
}

TEST(CliOptions, ConfigFileDrivesARunAndFlagsWin) {
  std::string path = WriteTempFile("cli.conf",
                                   "algo = mondrian\n"
                                   "l = 4\n"
                                   "n = 1500\n");
  CliOptions options;
  std::string error;
  const std::string config_flag = "--config=" + path;
  ASSERT_TRUE(ParseCli({config_flag.c_str(), "--algo=anatomy"}, &options, &error)) << error;
  EXPECT_EQ(options.algorithms, std::vector<Algorithm>{Algorithm::kAnatomy});
  EXPECT_EQ(options.ls, std::vector<std::uint32_t>{4});
  EXPECT_EQ(options.ns, std::vector<std::uint64_t>{1500});
  std::remove(path.c_str());
}

TEST(CliOptions, HelpShortCircuits) {
  CliOptions options;
  std::string error;
  ASSERT_TRUE(ParseCli({"--help"}, &options, &error));
  EXPECT_TRUE(options.help);
  EXPECT_NE(CliUsage("ldiv").find("--algo"), std::string::npos);
}

}  // namespace
}  // namespace ldv
