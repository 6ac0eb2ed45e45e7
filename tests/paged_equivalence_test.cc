// Byte-identity gate for the out-of-core engine: everything the paged
// data plane touches -- streamed ingestion (CSV and synthetic), the
// chunked GroupedTable build, the external Hilbert order, and the full
// six-algorithm pipeline under a tight memory budget over tiny pages --
// must reproduce the in-RAM results bit for bit. The budget may only
// change WHERE bytes live, never WHICH bytes come out.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/grouped_table.h"
#include "common/memory_budget.h"
#include "common/workspace.h"
#include "core/anonymizer.h"
#include "data/acs_generator.h"
#include "data/dataset.h"
#include "hilbert/hilbert_partitioner.h"
#include "test_util.h"

namespace ldv {
namespace {

// Every test must leave the process-wide budget unlimited, whatever path
// it exits through -- other tests assume the in-RAM defaults.
class PagedEquivalence : public ::testing::Test {
 protected:
  void TearDown() override { SetMemoryBudget(0); }
};

// Tiny pages: even small test tables span many pages, so every column
// flushes pages and seals a ragged tail.
PagedTableBuilder::Options TinyPages() {
  PagedTableBuilder::Options options;
  options.page_bytes = 4096;
  options.budget = GlobalMemoryBudgetShared();
  return options;
}

std::string DataPath(const std::string& name) {
  // ctest may run from the build directory; fall back to the source dir.
  std::string relative = "tests/data/" + name;
  std::ifstream probe(relative);
  if (probe.good()) return relative;
  return std::string(LDIV_SOURCE_DIR) + "/" + relative;
}

void ExpectSameTable(const Table& expected, const Table& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_EQ(expected.qi_count(), actual.qi_count());
  EXPECT_EQ(expected.schema(), actual.schema());
  for (AttrId a = 0; a < expected.qi_count(); ++a) {
    EXPECT_TRUE(std::ranges::equal(expected.column(a), actual.column(a))) << "attr " << a;
  }
  EXPECT_TRUE(std::ranges::equal(expected.sa_column(), actual.sa_column()));
}

void ExpectSameGroups(const GroupedTable& expected, const GroupedTable& actual) {
  ASSERT_EQ(expected.group_count(), actual.group_count());
  for (GroupId g = 0; g < expected.group_count(); ++g) {
    const QiGroup& e = expected.group(g);
    const QiGroup& a = actual.group(g);
    ASSERT_TRUE(std::ranges::equal(e.qi_values, a.qi_values)) << "group " << g;
    ASSERT_TRUE(std::ranges::equal(e.rows, a.rows)) << "group " << g;
    ASSERT_TRUE(std::ranges::equal(e.sa_runs, a.sa_runs)) << "group " << g;
  }
}

TEST_F(PagedEquivalence, GeneratorPagedMatchesInRam) {
  for (const char* name : {"sal", "occ"}) {
    for (std::size_t d : {std::size_t{7}, std::size_t{3}}) {
      SCOPED_TRACE(std::string(name) + " d=" + std::to_string(d));
      DatasetSpec spec;
      spec.name = name;
      spec.n = 5000;
      spec.d = d;
      std::string error;
      std::optional<Table> expected = GenerateDataset(spec, &error);
      ASSERT_TRUE(expected.has_value()) << error;
      std::unique_ptr<PagedTable> paged = GenerateDatasetPaged(spec, TinyPages(), &error);
      ASSERT_NE(paged, nullptr) << error;
      ExpectSameTable(*expected, paged->resident());
    }
  }
}

TEST_F(PagedEquivalence, CodedCsvPagedMatchesInRamReader) {
  Schema schema({Attribute{"Age", 79}, Attribute{"Gender", 2}, Attribute{"Race", 9}},
                Attribute{"Income", 50});
  const std::string path = DataPath("micro.csv");
  CsvError error;
  std::optional<Table> expected = ReadTableCsv(schema, path, &error);
  ASSERT_TRUE(expected.has_value()) << error.ToString();
  std::unique_ptr<PagedTable> paged = ReadTableCsvPaged(schema, path, TinyPages(), &error);
  ASSERT_NE(paged, nullptr) << error.ToString();
  ExpectSameTable(*expected, paged->resident());
}

TEST_F(PagedEquivalence, RawCsvPagedMatchesInRamReaderIncludingDictionaries) {
  const std::string path = DataPath("micro_raw.csv");
  CsvError error;
  std::optional<Table> expected = ReadRawTableCsv(path, &error);
  ASSERT_TRUE(expected.has_value()) << error.ToString();
  std::unique_ptr<PagedTable> paged = ReadRawTableCsvPaged(path, TinyPages(), &error);
  ASSERT_NE(paged, nullptr) << error.ToString();
  ExpectSameTable(*expected, paged->resident());
  // Dictionaries are data payload (schema equality ignores them): require
  // the insertion-ordered labels to agree code for code.
  const Schema& e = expected->schema();
  const Schema& a = paged->resident().schema();
  for (AttrId attr = 0; attr < e.qi_count(); ++attr) {
    EXPECT_TRUE(e.qi(attr).dictionary == a.qi(attr).dictionary) << "attr " << attr;
  }
  EXPECT_TRUE(e.sensitive().dictionary == a.sensitive().dictionary);
}

TEST_F(PagedEquivalence, AllAlgorithmsByteIdenticalUnderTightBudget) {
  DatasetSpec spec;
  spec.n = 30000;
  spec.d = 3;

  // Unbudgeted reference: in-RAM generation, sharded grouping, in-RAM
  // Hilbert sort.
  std::string error;
  std::optional<Table> in_ram = GenerateDataset(spec, &error);
  ASSERT_TRUE(in_ram.has_value()) << error;
  std::vector<AnonymizationOutcome> reference;
  for (Algorithm algo : kAllAlgorithms) {
    reference.push_back(Anonymize(*in_ram, 4, algo, AnonymizerOptions{}));
    ASSERT_TRUE(reference.back().feasible) << AlgorithmName(algo);
  }

  // 256 KiB budget: far below the 32n sharded-grouping scratch (960 KB)
  // and the 12n Hilbert code buffer (360 KB), so every budget-aware
  // dispatch takes its streaming path, over a paged table ingested
  // through 4 KiB pages.
  SetMemoryBudget(256u << 10);
  std::unique_ptr<PagedTable> paged = GenerateDatasetPaged(spec, TinyPages(), &error);
  ASSERT_NE(paged, nullptr) << error;
  const Table& table = paged->resident();

  Workspace ws;
  for (std::size_t i = 0; i < kAllAlgorithms.size(); ++i) {
    const Algorithm algo = kAllAlgorithms[i];
    SCOPED_TRACE(AlgorithmName(algo));
    AnonymizationOutcome outcome = Anonymize(table, 4, algo, AnonymizerOptions{}, &ws);
    ASSERT_TRUE(outcome.feasible);
    EXPECT_EQ(reference[i].stars, outcome.stars);
    EXPECT_EQ(reference[i].suppressed_tuples, outcome.suppressed_tuples);
    EXPECT_EQ(reference[i].kl_divergence, outcome.kl_divergence);
    ASSERT_EQ(reference[i].partition.group_count(), outcome.partition.group_count());
    for (GroupId g = 0; g < outcome.partition.group_count(); ++g) {
      ASSERT_EQ(testutil::Rows(reference[i].partition.group(g)),
                testutil::Rows(outcome.partition.group(g)))
          << "group " << g;
    }
  }
}

TEST_F(PagedEquivalence, ChunkedGroupingMatchesShardedBuild) {
  Table sal = GenerateSal(20000, 1);
  Table t = sal.ProjectQi({0, 2, 5});
  Workspace ws;
  GroupedTable sharded(t, &ws);

  // Explicit chunked build, in-RAM sorter path.
  GroupedTable chunked = GroupedTable::BuildChunked(t, &ws);
  ExpectSameGroups(sharded, chunked);

  // Tiny sort buffer: the (gid, sa, row) stream spills into many runs and
  // the k-way merge must reassemble the identical arena layout.
  GroupedTable spilled = GroupedTable::BuildChunked(t, &ws, /*sort_buffer_records=*/1024);
  ExpectSameGroups(sharded, spilled);

  // Budget-driven dispatch inside the constructor picks the chunked path
  // when the sharded scratch would not fit.
  SetMemoryBudget(64u << 10);
  GroupedTable dispatched(t, &ws);
  ExpectSameGroups(sharded, dispatched);
}

TEST_F(PagedEquivalence, HilbertExternalOrderMatchesInRamSort) {
  Table sal = GenerateSal(150000, 1);
  Table t = sal.ProjectQi({0, 2, 3, 5});
  HilbertResult expected = HilbertAnonymize(t, 4);
  ASSERT_TRUE(expected.feasible);

  // 64 KiB budget: 12n = 1.8 MB does not fit, so ComputeOrder goes
  // external; with n > the sorter's 64Ki-record buffer floor the run
  // actually spills and merges.
  SetMemoryBudget(64u << 10);
  Workspace ws;
  HilbertResult external = HilbertAnonymize(t, 4, {}, &ws);
  ASSERT_TRUE(external.feasible);
  ASSERT_EQ(expected.partition.group_count(), external.partition.group_count());
  for (GroupId g = 0; g < expected.partition.group_count(); ++g) {
    ASSERT_EQ(testutil::Rows(expected.partition.group(g)),
              testutil::Rows(external.partition.group(g)))
        << "group " << g;
  }
}

}  // namespace
}  // namespace ldv
