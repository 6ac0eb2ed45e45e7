// Tests for the common substrate: schema, table, RNG, CSV, grouped table,
// text tables.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <span>

#include "common/csv.h"
#include "common/grouped_table.h"
#include "common/rng.h"
#include "common/schema.h"
#include "common/table.h"
#include "common/text_table.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(Schema, BasicAccessors) {
  Schema schema = testutil::MakeSchema({4, 2, 9}, 5);
  EXPECT_EQ(schema.qi_count(), 3u);
  EXPECT_EQ(schema.qi(0).domain_size, 4u);
  EXPECT_EQ(schema.sa_domain_size(), 5u);
  EXPECT_TRUE(schema.Valid());
  EXPECT_EQ(schema.ToString(), "A1(4),A2(2),A3(9)|B(5)");
}

TEST(Schema, ProjectionKeepsOrderAndSa) {
  Schema schema = testutil::MakeSchema({4, 2, 9, 7}, 5);
  Schema projected = schema.Project({2, 0});
  EXPECT_EQ(projected.qi_count(), 2u);
  EXPECT_EQ(projected.qi(0).domain_size, 9u);
  EXPECT_EQ(projected.qi(1).domain_size, 4u);
  EXPECT_EQ(projected.sa_domain_size(), 5u);
}

TEST(Schema, EqualityComparesNamesAndSizes) {
  Schema a = testutil::MakeSchema({3, 2}, 4);
  Schema b = testutil::MakeSchema({3, 2}, 4);
  Schema c = testutil::MakeSchema({3, 3}, 4);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(Table, AppendAndAccess) {
  Table table = testutil::PaperTable1();
  EXPECT_EQ(table.size(), 10u);
  EXPECT_EQ(table.qi(3, 0), 1u);
  EXPECT_EQ(table.sa(9), 1u);
  EXPECT_EQ(table.DistinctSaCount(), 4u);
  auto counts = table.SaHistogramCounts();
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{2, 4, 3, 1}));
}

TEST(TableDeathTest, RejectsOutOfDomainValues) {
  Schema schema = testutil::MakeSchema({2}, 2);
  Table table(schema);
  std::vector<Value> qi{5};
  EXPECT_DEATH(table.AppendRow(qi, 0), "CHECK failed");
  std::vector<Value> ok{1};
  EXPECT_DEATH(table.AppendRow(ok, 9), "CHECK failed");
}

TEST(Table, ProjectQiSelectsColumns) {
  Table table = testutil::PaperTable1();
  Table projected = table.ProjectQi({2});
  EXPECT_EQ(projected.qi_count(), 1u);
  EXPECT_EQ(projected.qi(0, 0), 0u);  // Adam's Education = Master
  EXPECT_EQ(projected.sa(0), 0u);
}

TEST(Table, ProjectQiReordersAndDuplicates) {
  // The columnar projection copies whole columns; order and multiplicity
  // of the subset must be preserved exactly.
  Table table = testutil::PaperTable1();
  Table projected = table.ProjectQi({2, 0, 2});
  EXPECT_EQ(projected.qi_count(), 3u);
  for (RowId r = 0; r < table.size(); ++r) {
    EXPECT_EQ(projected.qi(r, 0), table.qi(r, 2));
    EXPECT_EQ(projected.qi(r, 1), table.qi(r, 0));
    EXPECT_EQ(projected.qi(r, 2), table.qi(r, 2));
    EXPECT_EQ(projected.sa(r), table.sa(r));
  }
}

TEST(Table, ProjectQiToZeroAttributesKeepsSa) {
  Table table = testutil::PaperTable1();
  Table projected = table.ProjectQi({});
  EXPECT_EQ(projected.qi_count(), 0u);
  EXPECT_EQ(projected.size(), table.size());
  EXPECT_TRUE(projected.qi_row(0).empty());
}

TEST(Table, SelectRowsPreservesOrder) {
  Table table = testutil::PaperTable1();
  Table selected = table.SelectRows({9, 0, 4});
  EXPECT_EQ(selected.size(), 3u);
  EXPECT_EQ(selected.sa(0), 1u);  // Jane
  EXPECT_EQ(selected.sa(1), 0u);  // Adam
  EXPECT_EQ(selected.qi(1, 0), table.qi(0, 0));
}

TEST(Table, SelectRowsEmptyAndRepeated) {
  Table table = testutil::PaperTable1();
  Table none = table.SelectRows({});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.qi_count(), table.qi_count());
  Table twice = table.SelectRows({3, 3});
  EXPECT_EQ(twice.size(), 2u);
  EXPECT_EQ(twice.qi(0, 0), twice.qi(1, 0));
}

TEST(Table, SampleRowsIsSubsetWithoutReplacement) {
  Rng rng(6);
  Table table = testutil::PaperTable1();
  Table sample = table.SampleRows(6, rng);
  EXPECT_EQ(sample.size(), 6u);
  Table all = table.SampleRows(100, rng);
  EXPECT_EQ(all.size(), table.size());
  Table none = table.SampleRows(0, rng);
  EXPECT_TRUE(none.empty());
}

TEST(Table, ColumnSpansMirrorAccessors) {
  Table table = testutil::PaperTable1();
  for (AttrId a = 0; a < table.qi_count(); ++a) {
    std::span<const Value> column = table.column(a);
    ASSERT_EQ(column.size(), table.size());
    for (RowId r = 0; r < table.size(); ++r) EXPECT_EQ(column[r], table.qi(r, a));
  }
  std::span<const SaValue> sa = table.sa_column();
  for (RowId r = 0; r < table.size(); ++r) EXPECT_EQ(sa[r], table.sa(r));
}

TEST(Table, QiRowMaterializesAcrossTheInlineBoundary) {
  // 10 attributes exceed QiRow's inline capacity, exercising the heap
  // fallback; the view must stay equal to the per-attribute accessors.
  Schema schema = testutil::MakeSchema({2, 3, 2, 3, 2, 3, 2, 3, 2, 3}, 4);
  Table table(schema);
  std::vector<Value> qi = {1, 2, 0, 1, 1, 0, 1, 2, 0, 2};
  table.AppendRow(qi, 3);
  QiRow row = table.qi_row(0);
  ASSERT_EQ(row.size(), qi.size());
  for (std::size_t a = 0; a < qi.size(); ++a) EXPECT_EQ(row[a], qi[a]);
  std::span<const Value> as_span = row;
  EXPECT_TRUE(std::equal(as_span.begin(), as_span.end(), qi.begin()));
  EXPECT_EQ(row.ToVector(), qi);
}

TEST(Table, FromColumnsBuildsColumnarStorageDirectly) {
  Schema schema = testutil::MakeSchema({3, 2}, 2);
  Table table = Table::FromColumns(schema, {{0, 1, 2}, {1, 0, 1}}, {0, 1, 0});
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.qi(1, 0), 1u);
  EXPECT_EQ(table.qi(2, 1), 1u);
  EXPECT_EQ(table.sa(1), 1u);
}

TEST(TableDeathTest, FromColumnsRejectsRaggedOrOutOfDomainColumns) {
  Schema schema = testutil::MakeSchema({3, 2}, 2);
  std::vector<SaValue> sa = {0, 1};
  std::vector<std::vector<Value>> missing_column = {{0, 1}};
  EXPECT_DEATH(Table::FromColumns(schema, missing_column, sa), "CHECK failed");
  std::vector<std::vector<Value>> ragged = {{0, 1}, {1, 0, 1}};
  EXPECT_DEATH(Table::FromColumns(schema, ragged, sa), "CHECK failed");
  std::vector<std::vector<Value>> out_of_domain = {{0, 9}, {1, 0}};
  EXPECT_DEATH(Table::FromColumns(schema, out_of_domain, sa), "CHECK failed");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next32(), b.Next32());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(7), 7u);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(10);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Zipf, PmfSumsToOneAndIsDecreasing) {
  ZipfSampler zipf(20, 1.1);
  double total = 0;
  for (std::uint32_t k = 0; k < 20; ++k) {
    total += zipf.Pmf(k);
    if (k > 0) EXPECT_LE(zipf.Pmf(k), zipf.Pmf(k - 1) + 1e-12);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, ZeroSkewIsUniform) {
  ZipfSampler zipf(8, 0.0);
  for (std::uint32_t k = 0; k < 8; ++k) EXPECT_NEAR(zipf.Pmf(k), 0.125, 1e-9);
}

TEST(Csv, RoundTrip) {
  Table table = testutil::PaperTable1();
  std::string path = ::testing::TempDir() + "/ldv_csv_roundtrip.csv";
  ASSERT_TRUE(WriteTableCsv(table, path));
  auto loaded = ReadTableCsv(table.schema(), path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), table.size());
  for (RowId r = 0; r < table.size(); ++r) {
    EXPECT_EQ(loaded->sa(r), table.sa(r));
    for (AttrId a = 0; a < table.qi_count(); ++a) {
      EXPECT_EQ(loaded->qi(r, a), table.qi(r, a));
    }
  }
  std::remove(path.c_str());
}

// A full disk must fail the copy even when the whole table fits in one
// write buffer, i.e. when only the final flush can see the error.
TEST(Csv, WriteToFullDiskFails) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no writable /dev/full here";
  std::string error;
  EXPECT_FALSE(WriteTableCsv(testutil::PaperTable1(), "/dev/full", &error));
  EXPECT_NE(error.find("cannot write '/dev/full': "), std::string::npos) << error;
}

TEST(Csv, RejectsMalformedInput) {
  std::string path = ::testing::TempDir() + "/ldv_csv_bad.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("A1,B\n1,notanumber\n", f);
    fclose(f);
  }
  Schema schema = testutil::MakeSchema({2}, 2);
  EXPECT_FALSE(ReadTableCsv(schema, path).has_value());
  std::remove(path.c_str());
}

TEST(Csv, RejectsOutOfDomain) {
  std::string path = ::testing::TempDir() + "/ldv_csv_range.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("A1,B\n9,0\n", f);
    fclose(f);
  }
  Schema schema = testutil::MakeSchema({2}, 2);
  EXPECT_FALSE(ReadTableCsv(schema, path).has_value());
  std::remove(path.c_str());
}

TEST(GroupedTable, GroupsPaperTable1ByExactSignature) {
  Table table = testutil::PaperTable1();
  GroupedTable grouped(table);
  EXPECT_EQ(grouped.group_count(), 5u);
  EXPECT_EQ(grouped.row_count(), 10u);
  EXPECT_EQ(grouped.MaxGroupSize(), 4u);
  // Find the {Eva, Fiona, Ginny, Helen} group and check SA accounting.
  bool found = false;
  for (const QiGroup& g : grouped.groups()) {
    if (g.size() == 4) {
      found = true;
      EXPECT_EQ(g.SaCount(1), 2u);  // pneumonia
      EXPECT_EQ(g.SaCount(2), 2u);  // bronchitis
      EXPECT_EQ(g.SaCount(0), 0u);
      EXPECT_EQ(g.ToHistogram(4), SaHistogram({0, 2, 2, 0}));
    }
  }
  EXPECT_TRUE(found);
}

TEST(GroupedTable, RowsSortedBySaWithinGroup) {
  Rng rng(20);
  Table table = testutil::RandomEligibleTable(rng, 100, {3}, 5, 2);
  GroupedTable grouped(table);
  std::size_t total = 0;
  for (const QiGroup& g : grouped.groups()) {
    total += g.size();
    for (std::size_t i = 1; i < g.rows.size(); ++i) {
      EXPECT_LE(table.sa(g.rows[i - 1]), table.sa(g.rows[i]));
    }
    // Runs consistent with rows.
    for (std::size_t i = 0; i < g.sa_runs.size(); ++i) {
      std::uint32_t begin = g.sa_runs[i].second;
      for (std::uint32_t j = 0; j < g.RunLength(i); ++j) {
        EXPECT_EQ(table.sa(g.rows[begin + j]), g.sa_runs[i].first);
      }
    }
  }
  EXPECT_EQ(total, table.size());
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"algo", "stars"});
  t.AddRow({"Hilbert", "123456"});
  t.AddRow({"TP", "9"});
  std::string rendered = t.ToString();
  EXPECT_NE(rendered.find("algo"), std::string::npos);
  EXPECT_NE(rendered.find("Hilbert"), std::string::npos);
  EXPECT_NE(rendered.find("------"), std::string::npos);
}

TEST(TextTable, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(2.0, 3), "2.000");
}

}  // namespace
}  // namespace ldv
