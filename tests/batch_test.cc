// AnonymizeBatch tests: result ordering is the spec ordering, and outcomes
// are identical to a sequential run regardless of the thread count or of
// pre-resolved artifacts.

#include "core/batch.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/anonymizer.h"
#include "data/acs_generator.h"
#include "data/acs_schema.h"
#include "hilbert/hilbert_partitioner.h"
#include "test_util.h"

namespace ldv {
namespace {

// Full structural equality of two outcomes (the acceptance criterion asks
// for byte-identical results across thread counts; the partition's group
// lists pin down everything the algorithms decide, the metrics pin down
// the shared post-processing).
void ExpectSameOutcome(const AnonymizationOutcome& a, const AnonymizationOutcome& b,
                       const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.methodology, b.methodology);
  if (!a.feasible) return;
  EXPECT_EQ(a.stars, b.stars);
  EXPECT_EQ(a.suppressed_tuples, b.suppressed_tuples);
  EXPECT_EQ(a.kl_divergence, b.kl_divergence);  // exact: same arithmetic, same order
  EXPECT_EQ(a.group_stats.group_count, b.group_stats.group_count);
  EXPECT_EQ(a.group_stats.min_size, b.group_stats.min_size);
  EXPECT_EQ(a.group_stats.max_size, b.group_stats.max_size);
  EXPECT_EQ(a.partition.groups(), b.partition.groups());
}

// Every algorithm at l in {2, 4} on each of `table_count` tables: the
// ExpandRunGrid order the engine runs, table-major.
std::vector<RunSpec> MakeSpecs(std::size_t table_count) {
  const std::uint32_t ls[] = {2, 4};
  return ExpandRunGrid(kAllAlgorithms, ls, table_count, AnonymizerOptions{});
}

std::vector<AnonymizationOutcome> RunBatch(std::span<const RunSpec> specs,
                                           std::span<const Table* const> tables,
                                           unsigned threads) {
  return AnonymizeBatch(specs, tables, {}, Workspace(threads, nullptr));
}

TEST(Batch, EmptySpecListYieldsEmptyResults) {
  EXPECT_TRUE(RunBatch({}, {}, 4).empty());
}

TEST(Batch, ResultsFollowSpecOrder) {
  Table table = GenerateSal(2000, 1).ProjectQi({kAge, kGender});
  const Table* tables[] = {&table};
  std::vector<RunSpec> specs = MakeSpecs(1);
  std::vector<AnonymizationOutcome> results = RunBatch(specs, tables, 4);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].algorithm, specs[i].algorithm) << "job " << i;
  }
}

TEST(Batch, EachSpecRunsOnItsOwnTable) {
  Table a = testutil::PaperTable1();
  Table b = GenerateSal(1000, 3).ProjectQi({kAge, kGender});
  const Table* tables[] = {&a, &b};
  std::vector<RunSpec> specs = MakeSpecs(2);
  std::vector<AnonymizationOutcome> results = RunBatch(specs, tables, 3);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const Table& table = *tables[specs[i].table_index];
    // Table 1 admits l = 2 but not 4; the SAL projection admits both.
    EXPECT_EQ(results[i].feasible, &table == &b || specs[i].l == 2);
    if (results[i].feasible) {
      EXPECT_TRUE(results[i].partition.CoversExactly(table));
    }
  }
}

TEST(Batch, IdenticalAcrossThreadCounts) {
  Table sal = GenerateSal(3000, 1).ProjectQi({kAge, kGender, kEducation});
  Table occ = GenerateOcc(3000, 2).ProjectQi({kAge, kRace});
  const Table* tables[] = {&sal, &occ};
  std::vector<RunSpec> specs = MakeSpecs(2);

  std::vector<AnonymizationOutcome> sequential = RunBatch(specs, tables, 1);
  ASSERT_EQ(sequential.size(), specs.size());
  for (unsigned threads : {2u, 4u, 7u}) {
    std::vector<AnonymizationOutcome> parallel = RunBatch(specs, tables, threads);
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ExpectSameOutcome(sequential[i], parallel[i],
                        "threads=" + std::to_string(threads) + " job=" + std::to_string(i) +
                            " algo=" + AlgorithmName(specs[i].algorithm));
    }
  }
}

TEST(Batch, ArtifactsLeaveOutcomesUnchanged) {
  Table table = GenerateSal(3000, 4).ProjectQi({kAge, kGender, kEducation});
  const Table* tables[] = {&table};
  std::vector<RunSpec> specs = MakeSpecs(1);
  Workspace build(1, nullptr);
  TableArtifacts artifacts[1];
  artifacts[0].grouped = std::make_shared<GroupedTable>(table, &build);
  auto order = std::make_shared<std::vector<RowId>>();
  HilbertComputeOrder(table, &build, order.get());
  artifacts[0].hilbert_order = std::move(order);

  std::vector<AnonymizationOutcome> derived = RunBatch(specs, tables, 2);
  std::vector<AnonymizationOutcome> shared =
      AnonymizeBatch(specs, tables, artifacts, Workspace(2, nullptr));
  ASSERT_EQ(shared.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ExpectSameOutcome(derived[i], shared[i], "job=" + std::to_string(i));
  }
}

TEST(Batch, InfeasibleJobsReportInfeasible) {
  Table table = testutil::PaperTable1();  // max feasible l is 2
  const Table* tables[] = {&table};
  const std::uint32_t ls[] = {3};
  std::vector<RunSpec> specs = ExpandRunGrid(kAllAlgorithms, ls, 1, AnonymizerOptions{});
  for (const AnonymizationOutcome& outcome : RunBatch(specs, tables, 3)) {
    EXPECT_FALSE(outcome.feasible);
  }
}

TEST(Batch, OneJobMatchesADirectRun) {
  Table table = GenerateSal(1000, 9).ProjectQi({kAge});
  const Table* tables[] = {&table};
  const Algorithm algorithms[] = {Algorithm::kTp};
  const std::uint32_t ls[] = {2};
  std::vector<RunSpec> specs = ExpandRunGrid(algorithms, ls, 1, AnonymizerOptions{});
  std::vector<AnonymizationOutcome> results = RunBatch(specs, tables, 4);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].feasible);
  ExpectSameOutcome(results[0], Anonymize(table, 2, Algorithm::kTp), "one job");
}

}  // namespace
}  // namespace ldv
