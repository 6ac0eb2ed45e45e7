// Engine-layer tests: the Expected error channel and its exit-code table,
// the JobSpec wire round trip and rejection rules, the single semantic
// validation pass (ResolveJobSpec), and the Engine itself -- cache hits
// on repeat traffic, paged-run cache bypass, cross-run artifact
// memoization, equality with the CLI's argv -> JobSpec path, schemas past
// the kernels' 64-bit packing failing typed instead of aborting, and
// concurrent runs matching their solo runs byte for byte. The cache's
// own mechanics are tested in content_cache_test.cc.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli_options.h"
#include "common/csv.h"
#include "common/expected.h"
#include "common/failpoint.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/schema_spec.h"
#include "engine/error.h"
#include "engine/job_spec.h"
#include "engine/report.h"
#include "test_util.h"

namespace ldv {
namespace {

JobSpec SyntheticSpec() {
  JobSpec spec;
  spec.dataset.name = "sal";
  spec.ns = {900};
  spec.ds = {3};
  return spec;
}

std::string ReadFile(const std::string& path) {
  std::string content;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, got);
  std::fclose(f);
  return content;
}

TEST(Expected, HoldsValueOrError) {
  Expected<int, PipelineError> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);

  Expected<int, PipelineError> bad(UsageError("l", "boom"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().field, "l");
  EXPECT_EQ(bad.error().message, "boom");
}

TEST(PipelineErrorCodes, OneExitCodeTable) {
  EXPECT_EQ(ExitCodeFor(PipelineErrorCode::kUsage), 1);
  EXPECT_EQ(ExitCodeFor(PipelineErrorCode::kInfeasible), 2);
  EXPECT_EQ(ExitCodeFor(PipelineErrorCode::kIo), 3);
  EXPECT_EQ(ExitCodeFor(PipelineErrorCode::kUnavailable), 4);
  EXPECT_STREQ(PipelineErrorCodeName(PipelineErrorCode::kIo), "io");
}

TEST(JobSpecWire, RoundTripsEveryNonDefaultField) {
  JobSpec spec;
  spec.algorithms = {Algorithm::kMondrian, Algorithm::kAnatomy};
  spec.ls = {2, 4, 6};
  spec.dataset.name = "occ";
  spec.dataset.seed = 99;
  spec.ns = {600, 900};
  spec.ds = {2, 3};
  spec.out = "spec_out";
  spec.write_releases = true;
  spec.compute_kl = false;
  spec.timings = false;
  spec.threads = 4;
  spec.memory_budget = 64u << 20;
  spec.priority = 7;
  spec.deadline_ms = 1500;

  Expected<JobSpec, PipelineError> parsed = ParseJobSpec(SerializeJobSpec(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed->algorithms, spec.algorithms);
  EXPECT_EQ(parsed->ls, spec.ls);
  EXPECT_EQ(parsed->dataset.name, "occ");
  EXPECT_EQ(parsed->dataset.seed, 99u);
  EXPECT_EQ(parsed->ns, spec.ns);
  EXPECT_EQ(parsed->ds, spec.ds);
  EXPECT_EQ(parsed->out, "spec_out");
  EXPECT_TRUE(parsed->write_releases);
  EXPECT_FALSE(parsed->compute_kl);
  EXPECT_FALSE(parsed->timings);
  EXPECT_EQ(parsed->threads, 4u);
  EXPECT_EQ(parsed->memory_budget, 64u << 20);
  EXPECT_EQ(parsed->priority, 7u);
  EXPECT_EQ(parsed->deadline_ms, 1500u);
}

TEST(JobSpecWire, RejectsUnknownKeysAndBadVersions) {
  Expected<JobSpec, PipelineError> unknown = ParseJobSpec("version = 1\nfrobnicate = 3\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().field, "frobnicate");
  // A retired key is unknown, not silently ignored.
  Expected<JobSpec, PipelineError> retired =
      ParseJobSpec("version = 1\nartifact-cache = 1048576\n");
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.error().field, "artifact-cache");
  // So is `sweep`, which never changed an output: every spec list runs
  // through the batch driver. The version stays 1, since every v1 spec
  // without it still parses.
  Expected<JobSpec, PipelineError> sweep = ParseJobSpec("version = 1\nsweep = true\n");
  ASSERT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.error().code, PipelineErrorCode::kUsage);
  EXPECT_EQ(sweep.error().field, "sweep");
  EXPECT_NE(sweep.error().message.find("sweep"), std::string::npos) << sweep.error().message;
  EXPECT_EQ(kJobSpecVersion, 1u);

  Expected<JobSpec, PipelineError> unversioned = ParseJobSpec("algo = tp\n");
  ASSERT_FALSE(unversioned.ok());
  EXPECT_EQ(unversioned.error().field, "version");

  Expected<JobSpec, PipelineError> future = ParseJobSpec("version = 2\n");
  ASSERT_FALSE(future.ok());
  EXPECT_NE(future.error().message.find("unsupported job spec version"), std::string::npos);
}

TEST(JobSpecWire, RejectsDuplicateKeysNulBytesAndOversizedKeys) {
  // Silent last-wins on a duplicate key would let a smuggled second line
  // quietly override the first; the parser refuses with the line number.
  Expected<JobSpec, PipelineError> dup = ParseJobSpec("version = 1\nl = 2\nl = 4\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, PipelineErrorCode::kUsage);
  EXPECT_EQ(dup.error().field, "l");
  EXPECT_NE(dup.error().message.find("duplicate key"), std::string::npos) << dup.error().message;
  EXPECT_NE(dup.error().message.find("jobspec:3"), std::string::npos) << dup.error().message;

  std::string with_nul = "version = 1\nout = x";
  with_nul.push_back('\0');
  with_nul += "y\n";
  Expected<JobSpec, PipelineError> nul = ParseJobSpec(with_nul);
  ASSERT_FALSE(nul.ok());
  EXPECT_EQ(nul.error().code, PipelineErrorCode::kUsage);
  EXPECT_NE(nul.error().message.find("NUL"), std::string::npos) << nul.error().message;

  const std::string long_key(200, 'k');
  Expected<JobSpec, PipelineError> oversized =
      ParseJobSpec("version = 1\n" + long_key + " = v\n");
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.error().code, PipelineErrorCode::kUsage);
  EXPECT_NE(oversized.error().message.find("128-byte limit"), std::string::npos)
      << oversized.error().message;
  EXPECT_NE(oversized.error().message.find("jobspec:2"), std::string::npos)
      << oversized.error().message;
}

TEST(ResolveJobSpec, ValidationErrorsNameTheOffendingField) {
  JobSpec zero_l = SyntheticSpec();
  zero_l.ls = {0};
  Expected<ResolvedJobSpec, PipelineError> r1 = ResolveJobSpec(zero_l);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error().field, "l");

  JobSpec tiny_budget = SyntheticSpec();
  tiny_budget.memory_budget = 1u << 20;
  Expected<ResolvedJobSpec, PipelineError> r2 = ResolveJobSpec(tiny_budget);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error().field, "memory-budget");
  EXPECT_NE(r2.error().message.find("below the 8M floor"), std::string::npos);

  JobSpec grid_emit = SyntheticSpec();
  grid_emit.ns = {600, 900};
  grid_emit.emit_input = "t.csv";
  Expected<ResolvedJobSpec, PipelineError> r3 = ResolveJobSpec(grid_emit);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.error().field, "emit-input");

  JobSpec stray_format = SyntheticSpec();
  stray_format.format = CsvFormat::kRaw;
  Expected<ResolvedJobSpec, PipelineError> r4 = ResolveJobSpec(stray_format);
  ASSERT_FALSE(r4.ok());
  EXPECT_EQ(r4.error().field, "format");
}

TEST(ResolveJobSpec, CsvInputNormalizesToASingleCellGrid) {
  Rng rng(3);
  Table table = testutil::RandomEligibleTable(rng, 40, {6, 4}, 5, 2);
  std::string path = testing::TempDir() + "engine_resolve_input.csv";
  ASSERT_TRUE(WriteTableCsv(table, path));

  JobSpec spec;
  spec.input = path;
  spec.schema_spec = FormatSchemaSpec(table.schema());
  spec.ns = {10000};
  spec.ds = {3};
  Expected<ResolvedJobSpec, PipelineError> resolved = ResolveJobSpec(spec);
  ASSERT_TRUE(resolved.ok()) << resolved.error().message;
  EXPECT_NE(resolved->format, CsvFormat::kAuto) << "kAuto must resolve at validation time";
  EXPECT_EQ(resolved->spec.ns, std::vector<std::uint64_t>{0});
  EXPECT_EQ(resolved->spec.ds, std::vector<std::uint64_t>{0});
  std::remove(path.c_str());
}

TEST(Engine, RepeatRunsHitTheCache) {
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kTp};

  Expected<JobResult, PipelineError> first = engine.Run(spec);
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first->cache_hits, 0u);
  EXPECT_EQ(first->cache_misses, 1u);

  Expected<JobResult, PipelineError> second = engine.Run(spec);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second->cache_hits, 1u);
  EXPECT_EQ(second->cache_misses, 0u);
  EXPECT_EQ(first->tables[0].get(), second->tables[0].get())
      << "a cache hit shares the materialized table, not a copy";
}

TEST(Engine, BudgetedInRamRunsCacheNormallyAndMatchByteForByte) {
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kMondrian};
  spec.timings = false;

  Expected<JobResult, PipelineError> plain = engine.Run(spec);
  ASSERT_TRUE(plain.ok()) << plain.error().message;

  // 900 rows fit comfortably inside a 64M budget, so ingestion stays
  // in-RAM and the cache serves the budgeted run like any other.
  JobSpec budgeted = spec;
  budgeted.memory_budget = 64u << 20;
  Expected<JobResult, PipelineError> cached = engine.Run(budgeted);
  ASSERT_TRUE(cached.ok()) << cached.error().message;
  EXPECT_EQ(cached->cache_hits, 1u);
  EXPECT_EQ(cached->cache_misses, 0u);
  EXPECT_EQ(cached->tables[0]->paged, nullptr);
  EXPECT_EQ(engine.cache().stats().bypassed_paged, 0u);

  ReportOptions options;
  options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(plain.value(), options), RenderJsonReport(cached.value(), options));
  EXPECT_EQ(RenderMetricsCsv(plain.value(), options), RenderMetricsCsv(cached.value(), options));
}

TEST(Engine, PagedRunsBypassTheCacheButMatchByteForByte) {
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.ns = {200000};
  spec.algorithms = {Algorithm::kMondrian};
  spec.timings = false;

  Expected<JobResult, PipelineError> plain = engine.Run(spec);
  ASSERT_TRUE(plain.ok()) << plain.error().message;
  EXPECT_EQ(plain->cache_misses, 1u);

  // Under the 8M floor budget the estimated table footprint (~3.2M)
  // exceeds a quarter of the budget, so ingestion takes the paged path
  // and bypasses the cache -- recorded, not silently skipped.
  JobSpec budgeted = spec;
  budgeted.memory_budget = 8u << 20;
  Expected<JobResult, PipelineError> paged = engine.Run(budgeted);
  ASSERT_TRUE(paged.ok()) << paged.error().message;
  EXPECT_EQ(paged->cache_hits, 0u);
  EXPECT_EQ(paged->cache_misses, 0u);
  EXPECT_NE(paged->tables[0]->paged, nullptr);
  EXPECT_EQ(engine.cache().stats().bypassed_paged, 1u);

  ReportOptions options;
  options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(plain.value(), options), RenderJsonReport(paged.value(), options));
  EXPECT_EQ(RenderMetricsCsv(plain.value(), options), RenderMetricsCsv(paged.value(), options));
}

TEST(Engine, SweepResolvesArtifactsOnceAndRepeatRunsHitTheCache) {
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kTp, Algorithm::kTpPlus, Algorithm::kHilbert,
                     Algorithm::kMondrian};
  spec.ls = {2, 4, 6};
  spec.timings = false;

  Expected<JobResult, PipelineError> first = engine.Run(spec);
  ASSERT_TRUE(first.ok()) << first.error().message;
  ASSERT_EQ(first->jobs.size(), 12u);
  EXPECT_EQ(first->artifact_hits, 0u);
  EXPECT_EQ(first->artifact_misses, 2u)
      << "one GroupedTable build and one Hilbert order for the whole sweep";

  Expected<JobResult, PipelineError> second = engine.Run(spec);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second->artifact_hits, 2u);
  EXPECT_EQ(second->artifact_misses, 0u);

  const ContentCache::Stats stats = engine.cache().stats();
  EXPECT_EQ(stats.artifacts.misses, 2u);
  EXPECT_EQ(stats.artifacts.hits, 2u);
  EXPECT_EQ(stats.kl_points.misses, 1u) << "one KL point set for the whole sweep";
  EXPECT_EQ(stats.kl_points.hits, 1u);
  EXPECT_EQ(stats.insertions, 4u) << "the table and its three artifacts";
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_GT(stats.resident_bytes, 0u);

  ReportOptions options;
  options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(first.value(), options), RenderJsonReport(second.value(), options));
  EXPECT_EQ(RenderMetricsCsv(first.value(), options),
            RenderMetricsCsv(second.value(), options));
}

TEST(Engine, DisabledCacheMatchesTheHitPathByteForByte) {
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kTp, Algorithm::kTpPlus, Algorithm::kHilbert};
  spec.ls = {2, 4};
  spec.timings = false;

  Engine warm_engine;
  ASSERT_TRUE(warm_engine.Run(spec).ok());
  Expected<JobResult, PipelineError> warm = warm_engine.Run(spec);
  ASSERT_TRUE(warm.ok()) << warm.error().message;
  EXPECT_EQ(warm->artifact_hits, 2u);

  Engine cold_engine(EngineOptions{0});
  Expected<JobResult, PipelineError> cold = cold_engine.Run(spec);
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  EXPECT_EQ(cold_engine.cache().stats().insertions, 0u)
      << "cache_bytes = 0 disables memoization entirely";

  ReportOptions options;
  options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(warm.value(), options), RenderJsonReport(cold.value(), options));
  EXPECT_EQ(RenderMetricsCsv(warm.value(), options), RenderMetricsCsv(cold.value(), options));
}

TEST(Engine, MatchesTheCliAdapterByteForByte) {
  // The one-shot CLI runs the JobSpec it reads from argv through the
  // engine; it must match the same job written as a JobSpec.
  const char* argv[] = {"ldiv", "--dataset=sal", "--n=900", "--d=3",
                        "--algo=tp+", "--l=3",       "--no-timings"};
  FlagSet flags;
  Expected<JobSpec, PipelineError> parsed = ParseCliJob(7, argv, CliCommand::kRun, &flags);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  Engine cli_engine;
  Expected<JobResult, PipelineError> via_cli = cli_engine.Run(parsed.value());
  ASSERT_TRUE(via_cli.ok()) << via_cli.error().message;

  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kTpPlus};
  spec.ls = {3};
  spec.timings = false;
  Engine engine;
  Expected<JobResult, PipelineError> via_engine = engine.Run(spec);
  ASSERT_TRUE(via_engine.ok()) << via_engine.error().message;

  ReportOptions report_options;
  report_options.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(via_cli.value(), report_options),
            RenderJsonReport(via_engine.value(), report_options));
  EXPECT_EQ(RenderMetricsCsv(via_cli.value(), report_options),
            RenderMetricsCsv(via_engine.value(), report_options));
}

// A coded CSV of `rows` rows over `qi_domains` and an SA of `sa_domain`,
// cycling every column through its whole domain; returns its path.
std::string WriteWideCodedCsv(const std::string& name, const std::vector<std::size_t>& qi_domains,
                              std::size_t sa_domain, std::size_t rows) {
  Table table(testutil::MakeSchema(qi_domains, sa_domain));
  std::vector<Value> qi(qi_domains.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t a = 0; a < qi.size(); ++a) {
      qi[a] = static_cast<Value>((r * 7 + a) % qi_domains[a]);
    }
    table.AppendRow(qi, static_cast<SaValue>(r % sa_domain));
  }
  const std::string path = testing::TempDir() + name;
  EXPECT_TRUE(WriteTableCsv(table, path));
  return path;
}

// The spec of one run of `algorithm` over a coded CSV at `path`.
JobSpec CodedCsvSpec(const std::string& path, const std::vector<std::size_t>& qi_domains,
                     std::size_t sa_domain, Algorithm algorithm) {
  JobSpec spec;
  spec.input = path;
  spec.schema_spec = FormatSchemaSpec(testutil::MakeSchema(qi_domains, sa_domain));
  spec.algorithms = {algorithm};
  spec.timings = false;
  return spec;
}

void ExpectSchemaLimitError(const Expected<JobResult, PipelineError>& run,
                            const std::string& limit) {
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, PipelineErrorCode::kUsage);
  EXPECT_EQ(ExitCodeFor(run.error().code), 1);
  EXPECT_EQ(run.error().field, "input");
  EXPECT_NE(run.error().message.find(limit), std::string::npos) << run.error().message;
}

TEST(EngineSchemaLimits, TenQisOfDomain100AreAUsageErrorForEveryAlgorithm) {
  // 100^10 * 4 points overflow the KL packer's 64 bits, and TDS's packed
  // cell ids (200^10) overflow first; both used to abort the process.
  const std::vector<std::size_t> domains(10, 100);
  const std::string path = WriteWideCodedCsv("engine_wide_coded.csv", domains, 4, 400);
  Engine engine;
  for (Algorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    const JobSpec spec = CodedCsvSpec(path, domains, 4, algorithm);
    if (algorithm == Algorithm::kTds) {
      ExpectSchemaLimitError(engine.Run(spec), "64-bit cell ids of TDS");
    } else {
      ExpectSchemaLimitError(engine.Run(spec), "--kl=false");
    }
  }
  // Without the KL estimate TP needs no packed ids and still runs.
  JobSpec no_kl = CodedCsvSpec(path, domains, 4, Algorithm::kTp);
  no_kl.compute_kl = false;
  Expected<JobResult, PipelineError> tp = engine.Run(no_kl);
  ASSERT_TRUE(tp.ok()) << tp.error().message;
  EXPECT_TRUE(tp->jobs[0].outcome.feasible);
  std::remove(path.c_str());
}

TEST(EngineSchemaLimits, WideRawCsvIsAUsageErrorNotAnAbort) {
  // Seven QI columns of 90..900 distinct labels and ten SA labels: the
  // dictionaries' domains multiply past 64 bits.
  const std::vector<std::size_t> domains = {90, 300, 450, 600, 750, 900, 900};
  const std::string path = testing::TempDir() + "engine_wide_raw.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "c0,c1,c2,c3,c4,c5,c6,sa\n");
    for (std::size_t r = 0; r < 1000; ++r) {
      for (std::size_t a = 0; a < domains.size(); ++a) {
        std::fprintf(f, "v%zu_%zu,", a, (r * 7 + a) % domains[a]);
      }
      std::fprintf(f, "s%zu\n", r % 10);
    }
    std::fclose(f);
  }
  JobSpec spec;
  spec.input = path;
  spec.algorithms = {Algorithm::kTp};
  spec.timings = false;
  spec.out = testing::TempDir() + "engine_wide_raw_out";
  Engine engine;
  Expected<ExecuteSummary, PipelineError> summary = engine.Execute(spec);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.error().code, PipelineErrorCode::kUsage);
  EXPECT_EQ(summary.error().field, "input");
  EXPECT_NE(summary.error().message.find("64-bit point ids"), std::string::npos)
      << summary.error().message;
  EXPECT_NE(summary.error().message.find("csv-raw:"), std::string::npos)
      << summary.error().message;
  std::remove(path.c_str());
}

TEST(EngineSchemaLimits, SixtyFiveQisAreAUsageErrorForTheHilbertOrder) {
  // 65 binary QIs fit KL's and TDS's packing only without KL; the Hilbert
  // order (Hilbert, TP+) tops out at 64 dimensions of one bit each.
  const std::vector<std::size_t> domains(65, 2);
  const std::string path = WriteWideCodedCsv("engine_binary65.csv", domains, 2, 200);
  Engine engine;
  for (Algorithm algorithm : {Algorithm::kHilbert, Algorithm::kTpPlus}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    JobSpec spec = CodedCsvSpec(path, domains, 2, algorithm);
    spec.compute_kl = false;
    ExpectSchemaLimitError(engine.Run(spec), "64 dimensions");
  }
  JobSpec tp = CodedCsvSpec(path, domains, 2, Algorithm::kTp);
  tp.compute_kl = false;
  Expected<JobResult, PipelineError> run = engine.Run(tp);
  ASSERT_TRUE(run.ok()) << run.error().message;
  std::remove(path.c_str());
}

TEST(EngineSchemaLimits, TwentyOneQisRunTheSuppressionKlInsteadOfAborting) {
  // 21 two-label QIs: the points fit in 64 bits, but the suppression
  // estimator's star masks used to stop at 20 QIs and abort the process.
  const std::string path = testing::TempDir() + "engine_raw21.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (std::size_t a = 0; a < 21; ++a) std::fprintf(f, "q%zu,", a);
    std::fprintf(f, "sa\n");
    for (std::size_t r = 0; r < 60; ++r) {
      for (std::size_t a = 0; a < 21; ++a) std::fprintf(f, "%s,", (r >> (a % 6)) & 1 ? "y" : "n");
      std::fprintf(f, "s%zu\n", r % 3);
    }
    std::fclose(f);
  }
  Engine engine;
  for (Algorithm algorithm : {Algorithm::kTp, Algorithm::kHilbert}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    JobSpec spec;
    spec.input = path;
    spec.algorithms = {algorithm};
    spec.timings = false;
    Expected<JobResult, PipelineError> run = engine.Run(spec);
    ASSERT_TRUE(run.ok()) << run.error().message;
    ASSERT_TRUE(run->jobs[0].outcome.feasible);
    EXPECT_GE(run->jobs[0].outcome.kl_divergence, 0.0);
  }
  std::remove(path.c_str());
}

TEST(EngineSchemaLimits, SixtyFiveQisOfDomainOneAreAKlUsageError) {
  // 65 QIs of domain 1 pack into tiny point ids, but not into the
  // suppression estimator's 64-bit star masks: a usage error that
  // --kl=false lifts, never an abort.
  const std::vector<std::size_t> domains(65, 1);
  const std::string path = WriteWideCodedCsv("engine_unary65.csv", domains, 2, 40);
  Engine engine;
  ExpectSchemaLimitError(engine.Run(CodedCsvSpec(path, domains, 2, Algorithm::kTp)),
                         "65 QI attributes exceed the 64-bit star masks of the KL estimate");
  JobSpec no_kl = CodedCsvSpec(path, domains, 2, Algorithm::kTp);
  no_kl.compute_kl = false;
  Expected<JobResult, PipelineError> run = engine.Run(no_kl);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_TRUE(run->jobs[0].outcome.feasible);
  std::remove(path.c_str());
}

TEST(EngineSchemaLimits, TdsKlCellKeysPastSixtyFourBitsAreAUsageError) {
  // 12 QIs of domain 16 and 4096 SA values: the points (16^12 * 4096) and
  // TDS's cell ids (32^12) fit in 64 bits, but the single-dim KL
  // estimate's cell * m + sa keys (32^12 * 4096) do not. Its CHECK used to
  // abort the process.
  const std::vector<std::size_t> domains(12, 16);
  const std::string path = WriteWideCodedCsv("engine_tds_kl_keys.csv", domains, 4096, 40);
  Engine engine;
  ExpectSchemaLimitError(engine.Run(CodedCsvSpec(path, domains, 4096, Algorithm::kTds)),
                         "64-bit cell keys of TDS's KL estimate; --kl=false");
  // The limit is the KL estimate's alone: without it TDS runs, and the
  // other algorithms keep their KL.
  JobSpec no_kl = CodedCsvSpec(path, domains, 4096, Algorithm::kTds);
  no_kl.compute_kl = false;
  Expected<JobResult, PipelineError> tds = engine.Run(no_kl);
  ASSERT_TRUE(tds.ok()) << tds.error().message;
  EXPECT_TRUE(tds->jobs[0].outcome.feasible);
  Expected<JobResult, PipelineError> tp =
      engine.Run(CodedCsvSpec(path, domains, 4096, Algorithm::kTp));
  ASSERT_TRUE(tp.ok()) << tp.error().message;
  std::remove(path.c_str());
}

TEST(Engine, ExecuteWritesOutputsAndMapsInfeasibleToExitCode) {
  Engine engine;
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kTp};
  spec.timings = false;
  spec.out = testing::TempDir() + "engine_execute_out";

  std::string notices;
  Expected<ExecuteSummary, PipelineError> summary = engine.Execute(spec, &notices);
  ASSERT_TRUE(summary.ok()) << summary.error().message;
  EXPECT_EQ(summary->jobs.size(), 1u);
  EXPECT_EQ(summary->infeasible, 0u);
  EXPECT_EQ(summary->exit_code, 0);
  EXPECT_FALSE(ReadFile(spec.out + ".json").empty());
  EXPECT_FALSE(ReadFile(spec.out + "_metrics.csv").empty());
  EXPECT_FALSE(ReadFile(spec.out + ".csv").empty());

  JobSpec infeasible = spec;
  infeasible.ns = {50};
  infeasible.ls = {10000};
  Expected<ExecuteSummary, PipelineError> summary2 = engine.Execute(infeasible);
  ASSERT_TRUE(summary2.ok()) << summary2.error().message;
  EXPECT_EQ(summary2->infeasible, 1u);
  EXPECT_EQ(summary2->exit_code, ExitCodeFor(PipelineErrorCode::kInfeasible));

  for (const char* suffix : {".json", "_metrics.csv", ".csv"}) {
    std::remove((spec.out + suffix).c_str());
  }
}

// Every file Execute may write for `spec`: reports, the single-job
// release pair, and the per-job sweep releases.
std::vector<std::string> OutputFiles(const JobSpec& spec, std::size_t jobs) {
  std::vector<std::string> files;
  for (const char* suffix : {".json", "_metrics.csv", ".csv", "_sa.csv", "_dict.csv"}) {
    files.push_back(spec.out + suffix);
  }
  for (std::size_t k = 0; k < jobs; ++k) {
    files.push_back(spec.out + ".job" + std::to_string(k) + ".csv");
    files.push_back(spec.out + ".job" + std::to_string(k) + "_sa.csv");
  }
  return files;
}

// Execute writes each job's release from the worker that solved it and
// then drops the outcome down to its report scalars. A 12-job raw sweep
// must still write, at 1 and at 4 threads, exactly what Run followed by
// the release and report writers writes from whole outcomes.
TEST(Engine, ExecuteRetiresOutcomesWithSameBytes) {
  JobSpec spec;
  spec.input = testing::TempDir() + "engine_retire_input.csv";
  {
    Rng rng(17);
    std::ofstream out(spec.input);
    out << "City,Job,Age,Disease\n";
    for (int i = 0; i < 600; ++i) {
      out << "c" << rng.Below(5) << ",j" << rng.Below(4) << ",a" << rng.Below(7) << ",d" << i % 6
          << "\n";
    }
  }
  spec.algorithms.assign(kAllAlgorithms.begin(), kAllAlgorithms.end());
  spec.ls = {2, 4};
  spec.write_releases = true;
  spec.timings = false;
  constexpr std::size_t kJobs = 12;

  // The reference: whole outcomes from Run, written by the writers.
  spec.out = testing::TempDir() + "engine_retire_ref";
  std::vector<std::string> reference;
  {
    Engine engine;
    Expected<JobResult, PipelineError> run = engine.Run(spec);
    ASSERT_TRUE(run.ok()) << run.error().message;
    ASSERT_EQ(run->jobs.size(), kJobs);
    const Table& table = run->tables.front()->table;
    std::string error;
    ASSERT_TRUE(WriteDictionaryCsv(table.schema(), spec.out + "_dict.csv", &error)) << error;
    for (std::size_t i = 0; i < kJobs; ++i) {
      EXPECT_NE(run->jobs[i].outcome.partition.group_count(), 0u) << "Run keeps whole outcomes";
      ASSERT_TRUE(WriteReleaseForOutcome(table, run->jobs[i].outcome,
                                         spec.out + ".job" + std::to_string(i), &error))
          << error;
    }
    ReportOptions options;
    options.include_seconds = false;
    ASSERT_TRUE(WriteJsonReport(*run, spec.out + ".json", options, &error)) << error;
    ASSERT_TRUE(WriteMetricsCsv(*run, spec.out + "_metrics.csv", options, &error)) << error;
    for (const std::string& path : OutputFiles(spec, kJobs)) {
      reference.push_back(ReadFile(path));
      std::remove(path.c_str());
    }
  }
  const std::vector<std::string> reference_files = OutputFiles(spec, kJobs);
  std::size_t anatomy_pairs = 0;
  for (std::size_t f = 0; f < reference.size(); ++f) {
    if (reference_files[f].ends_with("_sa.csv") && !reference[f].empty()) ++anatomy_pairs;
  }
  EXPECT_EQ(anatomy_pairs, 2u) << "both Anatomy jobs write their bucket pair";

  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    spec.threads = threads;
    spec.out = testing::TempDir() + "engine_retire_" + std::to_string(threads);
    Engine engine;
    Expected<ExecuteSummary, PipelineError> summary = engine.Execute(spec);
    ASSERT_TRUE(summary.ok()) << summary.error().message;
    ASSERT_EQ(summary->jobs.size(), kJobs);
    for (const EngineJob& job : summary->jobs) {
      EXPECT_EQ(job.outcome.partition.group_count(), 0u) << "Execute retires every outcome";
      EXPECT_EQ(job.outcome.generalized, nullptr);
      EXPECT_EQ(job.outcome.boxes, nullptr);
      EXPECT_EQ(job.outcome.single_dim, nullptr);
      EXPECT_GT(job.outcome.group_stats.group_count, 0u) << "but keeps its report scalars";
    }
    const std::vector<std::string> files = OutputFiles(spec, kJobs);
    ASSERT_EQ(files.size(), reference.size());
    for (std::size_t f = 0; f < files.size(); ++f) {
      EXPECT_EQ(ReadFile(files[f]), reference[f]) << files[f];
      std::remove(files[f].c_str());
    }
  }

  // Every release write fails: the run reports job 0's error, whichever
  // worker failed first, and writes no report.
  spec.threads = 4;
  spec.out = testing::TempDir() + "engine_retire_failed";
  for (const std::string& path : OutputFiles(spec, kJobs)) std::remove(path.c_str());
  failpoint::Arm(failpoint::Site::kReleaseWrite, failpoint::Injection{ENOSPC, false});
  const Expected<ExecuteSummary, PipelineError> failed = Engine().Execute(spec);
  failpoint::DisarmAll();
  ASSERT_FALSE(failed.ok()) << "armed release.write but the sweep succeeded";
  EXPECT_EQ(failed.error().code, PipelineErrorCode::kIo);
  EXPECT_NE(failed.error().message.find("'" + spec.out + ".job0.csv'"), std::string::npos)
      << failed.error().message;
  EXPECT_FALSE(std::ifstream(spec.out + ".json").good()) << "a failed run writes no report";
  EXPECT_FALSE(std::ifstream(spec.out + "_metrics.csv").good());
  for (const std::string& path : OutputFiles(spec, kJobs)) std::remove(path.c_str());
  std::remove(spec.input.c_str());
}

// One Engine serving several Execute calls at once. Each run carries its
// own thread count and memory budget, so the mixed specs below -- 1, 2
// and 4 threads, unbudgeted and paged under 8M, single jobs and sweeps,
// CSV and synthetic inputs -- must each write exactly the bytes it writes
// when it runs alone, and report its own thread count.
TEST(Engine, ConcurrentExecutesMatchTheirSoloRunsByteForByte) {
  // 4K pages: even the small paged specs flush many pages per column.
  ::setenv("LDIV_PAGE_BYTES", "4096", 1);
  Rng rng(11);
  Table table = testutil::RandomEligibleTable(rng, 2000, {9, 5, 7}, 6, 2);
  const std::string csv = testing::TempDir() + "engine_concurrent_input.csv";
  ASSERT_TRUE(WriteTableCsv(table, csv));

  std::vector<JobSpec> specs;
  const auto add = [&](JobSpec spec, std::uint32_t threads, std::uint64_t budget) {
    spec.threads = threads;
    spec.memory_budget = budget;
    spec.timings = false;
    specs.push_back(std::move(spec));
  };
  JobSpec csv_single;
  csv_single.input = csv;
  csv_single.schema_spec = FormatSchemaSpec(table.schema());
  csv_single.algorithms = {Algorithm::kTpPlus};
  add(csv_single, 1, 0);
  JobSpec csv_sweep = csv_single;
  csv_sweep.algorithms.assign(kAllAlgorithms.begin(), kAllAlgorithms.end());
  csv_sweep.ls = {2, 3};
  csv_sweep.write_releases = true;
  add(csv_sweep, 4, 8u << 20);  // budgeted, but small enough to load in RAM
  JobSpec synthetic_sweep = SyntheticSpec();
  synthetic_sweep.algorithms = {Algorithm::kTp, Algorithm::kHilbert, Algorithm::kMondrian};
  synthetic_sweep.ls = {2, 4};
  add(synthetic_sweep, 2, 0);
  JobSpec mondrian = SyntheticSpec();
  mondrian.ns = {20000};  // large enough for Mondrian's parallel subtrees
  mondrian.algorithms = {Algorithm::kMondrian};
  add(mondrian, 4, 0);
  // 80000 rows x 8 columns (~2.6M) exceed a quarter of 8M: paged loads.
  JobSpec paged_sweep = SyntheticSpec();
  paged_sweep.ns = {80000};
  paged_sweep.ds = {7};
  paged_sweep.algorithms = {Algorithm::kTp, Algorithm::kHilbert};
  paged_sweep.ls = {2, 3};
  paged_sweep.write_releases = true;
  add(paged_sweep, 2, 8u << 20);
  JobSpec paged_single = paged_sweep;
  paged_single.algorithms = {Algorithm::kTpPlus};
  paged_single.ls = {3};
  paged_single.write_releases = false;
  add(paged_single, 1, 8u << 20);

  // Solo references, one run at a time.
  std::vector<std::vector<std::string>> solo(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    JobSpec spec = specs[i];
    spec.out = testing::TempDir() + "engine_solo_" + std::to_string(i);
    Engine engine;
    Expected<ExecuteSummary, PipelineError> summary = engine.Execute(spec);
    ASSERT_TRUE(summary.ok()) << i << ": " << summary.error().message;
    for (const std::string& path : OutputFiles(spec, summary->jobs.size())) {
      solo[i].push_back(ReadFile(path));
      std::remove(path.c_str());
    }
  }

  Engine shared;
  std::vector<JobSpec> concurrent = specs;
  std::vector<std::optional<Expected<ExecuteSummary, PipelineError>>> summaries(specs.size());
  std::vector<std::thread> runs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    concurrent[i].out = testing::TempDir() + "engine_concurrent_" + std::to_string(i);
    runs.emplace_back([&, i] { summaries[i].emplace(shared.Execute(concurrent[i])); });
  }
  for (std::thread& run : runs) run.join();
  ::unsetenv("LDIV_PAGE_BYTES");

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    ASSERT_TRUE(summaries[i]->ok()) << summaries[i]->error().message;
    const ExecuteSummary& summary = summaries[i]->value();
    EXPECT_EQ(summary.threads, specs[i].threads) << "each run reports its own thread count";
    const std::vector<std::string> files = OutputFiles(concurrent[i], summary.jobs.size());
    ASSERT_EQ(files.size(), solo[i].size());
    for (std::size_t f = 0; f < files.size(); ++f) {
      EXPECT_EQ(ReadFile(files[f]), solo[i][f]) << files[f];
      std::remove(files[f].c_str());
    }
  }
  EXPECT_GT(shared.cache().stats().bypassed_paged, 0u) << "the paged specs must page";
  std::remove(csv.c_str());
}

}  // namespace
}  // namespace ldv
