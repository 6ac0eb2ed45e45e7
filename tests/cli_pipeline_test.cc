// In-process end-to-end tests of the CLI pipeline -- a JobSpec into
// Engine::Run, as the one-shot `ldiv` runs it: CSV load -> anonymize ->
// release/report, the synthetic (n, d) grid, sweep determinism across
// thread counts, and clean failure on unreadable input.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "anonymity/eligibility.h"
#include "anonymity/release.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/schema_spec.h"
#include "engine/engine.h"
#include "engine/report.h"
#include "test_util.h"

namespace ldv {
namespace {

Expected<JobResult, PipelineError> RunCli(const JobSpec& spec) {
  Engine engine;
  return engine.Run(spec);
}

JobSpec SyntheticSpec() {
  JobSpec spec;
  spec.dataset.name = "sal";
  spec.ns = {1200};
  spec.ds = {3};
  return spec;
}

TEST(CliPipeline, SingleRunOnSyntheticData) {
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {2};
  Expected<JobResult, PipelineError> result_run = RunCli(spec);
  ASSERT_TRUE(result_run.ok()) << result_run.error().message;
  const JobResult& result = result_run.value();
  ASSERT_EQ(result.tables.size(), 1u);
  EXPECT_EQ(result.tables[0]->table.size(), 1200u);
  EXPECT_EQ(result.tables[0]->table.qi_count(), 3u);
  EXPECT_EQ(result.tables[0]->source, "sal(n=1200, seed=1, d=3)");
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_TRUE(result.jobs[0].outcome.feasible);
  EXPECT_TRUE(IsLDiverse(result.tables[0]->table, result.jobs[0].outcome.partition, 2));
}

TEST(CliPipeline, EveryRegisteredAlgorithmRunsEndToEnd) {
  JobSpec spec = SyntheticSpec();
  spec.algorithms.assign(kAllAlgorithms.begin(), kAllAlgorithms.end());
  spec.ls = {4};
  Expected<JobResult, PipelineError> result_run = RunCli(spec);
  ASSERT_TRUE(result_run.ok()) << result_run.error().message;
  const JobResult& result = result_run.value();
  ASSERT_EQ(result.jobs.size(), kAlgorithmCount);
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const EngineJob& job = result.jobs[i];
    EXPECT_EQ(job.spec.algorithm, kAllAlgorithms[i]) << "job order must follow the grid";
    EXPECT_TRUE(job.outcome.feasible) << RunSpecLabel(job.spec);
    EXPECT_TRUE(IsLDiverse(result.tables[0]->table, job.outcome.partition, 4))
        << RunSpecLabel(job.spec);
  }
}

TEST(CliPipeline, CsvInputRoundTripsThroughRelease) {
  // Write microdata as CSV, run the pipeline on the file, write the
  // release, and parse the release back: every row survives with its SA
  // value, and the star count matches the outcome.
  Rng rng(7);
  Table table = testutil::RandomEligibleTable(rng, 300, {12, 6, 4}, 8, 3);
  std::string input_path = testing::TempDir() + "cli_pipeline_input.csv";
  ASSERT_TRUE(WriteTableCsv(table, input_path));

  JobSpec spec;
  spec.input = input_path;
  spec.format = CsvFormat::kCoded;
  spec.schema_spec = FormatSchemaSpec(table.schema());
  spec.algorithms = {Algorithm::kTpPlus};
  spec.ls = {3};
  Expected<JobResult, PipelineError> result_run = RunCli(spec);
  ASSERT_TRUE(result_run.ok()) << result_run.error().message;
  const JobResult& result = result_run.value();
  ASSERT_EQ(result.jobs.size(), 1u);
  ASSERT_TRUE(result.jobs[0].outcome.feasible);
  EXPECT_EQ(result.tables[0]->source, "csv:" + input_path);

  std::string stem = testing::TempDir() + "cli_pipeline_release";
  std::string error;
  ASSERT_TRUE(
      WriteReleaseForOutcome(result.tables[0]->table, result.jobs[0].outcome, stem, &error))
      << error;
  std::optional<std::vector<ReleaseRow>> rows = ReadReleaseCsv(table.schema(), stem + ".csv");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), table.size());
  std::uint64_t stars = 0;
  std::vector<std::uint32_t> sa_histogram(table.schema().sa_domain_size(), 0);
  for (const ReleaseRow& row : *rows) {
    for (Value v : row.qi) stars += IsStar(v) ? 1 : 0;
    ++sa_histogram[row.sa];
  }
  EXPECT_EQ(stars, result.jobs[0].outcome.stars);
  EXPECT_EQ(sa_histogram, table.SaHistogramCounts()) << "releases never perturb SA values";
  std::remove(input_path.c_str());
  std::remove((stem + ".csv").c_str());
}

TEST(CliPipeline, SweepGridIsJobOrderedAndThreadCountInvariant) {
  // 2 algorithms x 2 l x (2 n-cells x 1 d-cell) = 8 jobs. Identical
  // reports regardless of worker count is the batch-driver determinism
  // guarantee surfaced through the CLI layer.
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kMondrian, Algorithm::kAnatomy};
  spec.ls = {2, 4};
  spec.ns = {600, 900};

  ReportOptions report_options;
  report_options.include_seconds = false;

  spec.threads = 1;
  Expected<JobResult, PipelineError> serial_run = RunCli(spec);
  ASSERT_TRUE(serial_run.ok()) << serial_run.error().message;
  const JobResult& serial = serial_run.value();
  ASSERT_EQ(serial.jobs.size(), 8u);
  EXPECT_EQ(serial.tables.size(), 2u);
  EXPECT_EQ(RunSpecLabel(serial.jobs[0].spec), "Mondrian/l=2/table=0");
  EXPECT_EQ(RunSpecLabel(serial.jobs[3].spec), "Anatomy/l=4/table=0");
  EXPECT_EQ(RunSpecLabel(serial.jobs[7].spec), "Anatomy/l=4/table=1");

  spec.threads = 4;
  Expected<JobResult, PipelineError> threaded_run = RunCli(spec);
  ASSERT_TRUE(threaded_run.ok()) << threaded_run.error().message;
  const JobResult& threaded = threaded_run.value();
  EXPECT_EQ(RenderJsonReport(serial, report_options),
            RenderJsonReport(threaded, report_options));
  EXPECT_EQ(RenderMetricsCsv(serial, report_options),
            RenderMetricsCsv(threaded, report_options));
}

TEST(CliPipeline, SingleJobIsThreadBudgetInvariant) {
  // A single job runs inline and spends the whole budget on in-kernel
  // parallelism (Hilbert encode, Mondrian subtrees, grouping, the KL
  // reductions) -- the deterministic-kernel guarantee surfaced through
  // the CLI layer. The table is large enough that every parallel path
  // actually engages.
  JobSpec spec = SyntheticSpec();
  spec.ns = {20000};
  spec.algorithms = {Algorithm::kMondrian, Algorithm::kHilbert};
  spec.ls = {6};

  ReportOptions report_options;
  report_options.include_seconds = false;

  std::string reference_json, reference_csv;
  for (std::uint32_t threads : {1u, 2u, 4u}) {
    spec.threads = threads;
    Expected<JobResult, PipelineError> result_run = RunCli(spec);
    ASSERT_TRUE(result_run.ok()) << result_run.error().message;
    const JobResult& result = result_run.value();
    ASSERT_EQ(result.jobs.size(), 2u);
    EXPECT_EQ(result.threads, threads);
    std::string json = RenderJsonReport(result, report_options);
    std::string csv = RenderMetricsCsv(result, report_options);
    if (threads == 1) {
      reference_json = std::move(json);
      reference_csv = std::move(csv);
    } else {
      EXPECT_EQ(json, reference_json) << "threads=" << threads;
      EXPECT_EQ(csv, reference_csv) << "threads=" << threads;
    }
  }
}

TEST(CliPipeline, ReportRecordsThreadsOnlyBesideTimings) {
  JobSpec spec = SyntheticSpec();
  spec.algorithms = {Algorithm::kTp};
  spec.threads = 3;
  Expected<JobResult, PipelineError> result_run = RunCli(spec);
  ASSERT_TRUE(result_run.ok()) << result_run.error().message;
  const JobResult& result = result_run.value();

  ReportOptions with_timings;
  with_timings.include_seconds = true;
  EXPECT_NE(RenderJsonReport(result, with_timings).find("\"threads\": 3"), std::string::npos);
  ReportOptions no_timings;
  no_timings.include_seconds = false;
  EXPECT_EQ(RenderJsonReport(result, no_timings).find("\"threads\""), std::string::npos)
      << "--no-timings output must stay byte-identical across thread budgets";
}

TEST(CliPipeline, InfeasibleJobIsReportedNotFatal) {
  JobSpec spec = SyntheticSpec();
  spec.ns = {50};
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {10000};
  Expected<JobResult, PipelineError> result_run = RunCli(spec);
  ASSERT_TRUE(result_run.ok()) << result_run.error().message;
  const JobResult& result = result_run.value();
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_FALSE(result.jobs[0].outcome.feasible);
}

TEST(CliPipeline, LoadAndGenerationFailuresAreCleanTypedErrors) {
  JobSpec missing;
  missing.input = testing::TempDir() + "cli_pipeline_missing.csv";
  missing.format = CsvFormat::kCoded;
  missing.schema_spec = FormatSchemaSpec(testutil::MakeSchema({4, 4}, 3));
  Expected<JobResult, PipelineError> result = RunCli(missing);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, PipelineErrorCode::kIo);
  EXPECT_EQ(ExitCodeFor(result.error().code), 3);
  EXPECT_NE(result.error().message.find("cannot open"), std::string::npos)
      << result.error().message;

  JobSpec bad_dataset = SyntheticSpec();
  bad_dataset.dataset.name = "census";
  Expected<JobResult, PipelineError> result2 = RunCli(bad_dataset);
  ASSERT_FALSE(result2.ok());
  EXPECT_EQ(result2.error().code, PipelineErrorCode::kUsage);
  EXPECT_EQ(result2.error().field, "dataset");
  EXPECT_NE(result2.error().message.find("census"), std::string::npos);

  JobSpec bad_d = SyntheticSpec();
  bad_d.ds = {9};
  Expected<JobResult, PipelineError> result3 = RunCli(bad_d);
  ASSERT_FALSE(result3.ok());
  EXPECT_EQ(result3.error().code, PipelineErrorCode::kUsage);
  EXPECT_NE(result3.error().message.find("out of range"), std::string::npos)
      << result3.error().message;
}

}  // namespace
}  // namespace ldv
