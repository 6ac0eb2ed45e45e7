// Unit tests of the out-of-core building blocks: byte-size parsing and
// the MemoryBudget accounting, SpillFile round trips, PagedColumn page
// staging + sealed mapping, the PagedTableBuilder -> Table bridge and its
// budget release, and ExternalSorter ordering on both the in-RAM fast
// path and forced multi-run spills.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "common/external_sort.h"
#include "common/memory_budget.h"
#include "common/paged_column.h"
#include "common/rng.h"
#include "common/spill_file.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(ParseByteSize, AcceptsIntegersAndBinarySuffixes) {
  std::uint64_t bytes = 0;
  std::string error;
  EXPECT_TRUE(ParseByteSize("0", &bytes, &error));
  EXPECT_EQ(bytes, 0u);
  EXPECT_TRUE(ParseByteSize("123", &bytes, &error));
  EXPECT_EQ(bytes, 123u);
  EXPECT_TRUE(ParseByteSize("4K", &bytes, &error));
  EXPECT_EQ(bytes, 4096u);
  EXPECT_TRUE(ParseByteSize("512M", &bytes, &error));
  EXPECT_EQ(bytes, 512ull << 20);
  EXPECT_TRUE(ParseByteSize("2g", &bytes, &error));
  EXPECT_EQ(bytes, 2ull << 30);
  EXPECT_TRUE(ParseByteSize("1T", &bytes, &error));
  EXPECT_EQ(bytes, 1ull << 40);
  // Optional iB / B spellings.
  EXPECT_TRUE(ParseByteSize("512MiB", &bytes, &error));
  EXPECT_EQ(bytes, 512ull << 20);
  EXPECT_TRUE(ParseByteSize("4kb", &bytes, &error));
  EXPECT_EQ(bytes, 4096u);
  EXPECT_TRUE(ParseByteSize("100B", &bytes, &error));
  EXPECT_EQ(bytes, 100u);
}

TEST(ParseByteSize, RejectsMalformedAndOverflowingSizes) {
  std::uint64_t bytes = 0;
  std::string error;
  for (const char* bad : {"", "M", "12X", "abc", "1MM", "12 M", "-1", "1Mx"}) {
    EXPECT_FALSE(ParseByteSize(bad, &bytes, &error)) << bad;
    EXPECT_NE(error.find('\''), std::string::npos) << "error should quote the input: " << error;
  }
  // 2^64 overflows both in the digit loop and via the suffix multiply.
  EXPECT_FALSE(ParseByteSize("18446744073709551616", &bytes, &error));
  EXPECT_NE(error.find("overflow"), std::string::npos);
  EXPECT_FALSE(ParseByteSize("99999999999T", &bytes, &error));
  EXPECT_NE(error.find("overflow"), std::string::npos);
}

TEST(FormatByteSize, PrintsExactMultiplesWithSuffix) {
  EXPECT_EQ(FormatByteSize(512ull << 20), "512M");
  EXPECT_EQ(FormatByteSize(4ull << 30), "4G");
  EXPECT_EQ(FormatByteSize(1ull << 10), "1K");
  EXPECT_EQ(FormatByteSize(1234), "1234");
  EXPECT_EQ(FormatByteSize(0), "0");
}

TEST(MemoryBudget, TracksUsedPeakAndRemaining) {
  MemoryBudget budget(1000);
  EXPECT_FALSE(budget.unlimited());
  EXPECT_EQ(budget.remaining(), 1000u);
  EXPECT_TRUE(budget.WouldFit(1000));
  EXPECT_FALSE(budget.WouldFit(1001));

  budget.Charge(600);
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_EQ(budget.remaining(), 400u);
  EXPECT_TRUE(budget.WouldFit(400));
  EXPECT_FALSE(budget.WouldFit(401));

  // Charge never fails; overshoot shows up in used()/peak() and remaining
  // saturates at zero.
  budget.Charge(600);
  EXPECT_EQ(budget.used(), 1200u);
  EXPECT_EQ(budget.remaining(), 0u);
  EXPECT_FALSE(budget.WouldFit(1));

  budget.Release(1200);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 1200u);  // high-water mark survives releases
}

TEST(MemoryBudget, UnlimitedBudgetAlwaysFits) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.unlimited());
  EXPECT_TRUE(budget.WouldFit(~0ull));
  budget.Charge(123);
  EXPECT_EQ(budget.used(), 123u);  // accounting still works
  budget.Release(123);
}

TEST(MemoryReservation, RaiiAndMoveSemantics) {
  auto budget = std::make_shared<MemoryBudget>(1 << 20);
  {
    MemoryReservation r(budget, 1000);
    EXPECT_EQ(budget->used(), 1000u);
    r.Resize(400);
    EXPECT_EQ(budget->used(), 400u);
    r.Resize(800);
    EXPECT_EQ(budget->used(), 800u);
    MemoryReservation moved = std::move(r);
    EXPECT_EQ(moved.bytes(), 800u);
    EXPECT_EQ(budget->used(), 800u);  // a move transfers, never double-counts
  }
  EXPECT_EQ(budget->used(), 0u);
  // Null budget: every operation is a no-op.
  MemoryReservation null_res(nullptr, 1 << 30);
  null_res.Resize(1);
  null_res.Reset();
}

TEST(SpillFile, AllocateWriteReadRoundTrip) {
  std::string error;
  std::unique_ptr<SpillFile> file = SpillFile::Create(&error);
  ASSERT_NE(file, nullptr) << error;
  EXPECT_FALSE(file->directory().empty());
  EXPECT_EQ(file->size(), 0u);

  std::vector<std::uint32_t> a(100), b(50);
  std::iota(a.begin(), a.end(), 1000);
  std::iota(b.begin(), b.end(), 7);
  const std::uint64_t off_a = file->Allocate(a.size() * sizeof(std::uint32_t));
  const std::uint64_t off_b = file->Allocate(b.size() * sizeof(std::uint32_t));
  EXPECT_EQ(off_a, 0u);
  EXPECT_EQ(off_b, a.size() * sizeof(std::uint32_t));
  file->Write(off_a, a.data(), a.size() * sizeof(std::uint32_t));
  file->Write(off_b, b.data(), b.size() * sizeof(std::uint32_t));

  std::vector<std::uint32_t> back(100);
  file->Read(off_a, back.data(), back.size() * sizeof(std::uint32_t));
  EXPECT_EQ(back, a);
  back.resize(50);
  file->Read(off_b, back.data(), back.size() * sizeof(std::uint32_t));
  EXPECT_EQ(back, b);
}

TEST(PagedColumn, AppendsAcrossPageBoundariesAndSealsToOneMapping) {
  constexpr std::size_t kPageBytes = 64;  // 16 values per page
  auto budget = std::make_shared<MemoryBudget>(1 << 20);
  std::string error;
  std::unique_ptr<SpillFile> file = SpillFile::Create(&error);
  ASSERT_NE(file, nullptr) << error;
  const SpillFile* spill = file.get();

  PagedColumn column(std::move(file), kPageBytes, budget);
  EXPECT_EQ(budget->used(), kPageBytes);  // the one staging page
  // 41 values: two full pages plus a 9-value tail, fed in ragged chunks.
  std::vector<std::uint32_t> values(41);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<std::uint32_t>(i * 3);
  column.Append(values.data(), 10);
  column.Append(values.data() + 10, 25);
  for (std::size_t i = 35; i < values.size(); ++i) column.Append(values[i]);
  EXPECT_EQ(column.size(), values.size());
  EXPECT_EQ(column.max(), 120u);
  EXPECT_EQ(spill->size(), 2 * kPageBytes);  // full pages wrote through

  // Sealing flushes the tail, releases the staging page, and maps the
  // whole column as one span across the page boundaries.
  ASSERT_TRUE(column.Seal(&error)) << error;
  EXPECT_EQ(spill->size(), values.size() * sizeof(std::uint32_t));
  EXPECT_EQ(budget->used(), 0u);
  EXPECT_TRUE(std::ranges::equal(column.mapping(), values));
}

TEST(PagedTableBuilder, FinishedTableMatchesInRamTable) {
  Rng rng(99);
  Table expected = testutil::RandomEligibleTable(rng, 2000, {16, 8, 5}, 6, 2);

  PagedTableBuilder::Options options;
  options.page_bytes = 256;  // tiny pages: every column spans many pages
  std::string error;
  std::unique_ptr<PagedTableBuilder> builder =
      PagedTableBuilder::Create(expected.qi_count(), options, &error);
  ASSERT_NE(builder, nullptr) << error;
  for (RowId r = 0; r < expected.size(); ++r) {
    builder->AppendRow(expected.qi_row(r), expected.sa(r));
  }
  std::unique_ptr<PagedTable> paged = builder->Finish(expected.schema(), &error);
  ASSERT_NE(paged, nullptr) << error;

  const Table& resident = paged->resident();
  EXPECT_TRUE(resident.borrowed());
  ASSERT_EQ(resident.size(), expected.size());
  ASSERT_EQ(resident.qi_count(), expected.qi_count());
  for (AttrId a = 0; a < expected.qi_count(); ++a) {
    EXPECT_TRUE(std::ranges::equal(resident.column(a), expected.column(a))) << "attr " << a;
  }
  EXPECT_TRUE(std::ranges::equal(resident.sa_column(), expected.sa_column()));
}

// The staging pages are the builder's only budget charge, and each is
// released as its column seals: a finished table leaves the whole budget
// to the solvers' budget-steered paths.
TEST(PagedTableBuilder, FinishLeavesTheWholeBudgetToTheSolvers) {
  Rng rng(5);
  Table expected = testutil::RandomEligibleTable(rng, 2000, {16, 8, 5}, 6, 2);
  auto budget = std::make_shared<MemoryBudget>(8u << 20);
  PagedTableBuilder::Options options;
  options.page_bytes = 256;
  options.budget = budget;
  std::string error;
  std::unique_ptr<PagedTableBuilder> builder =
      PagedTableBuilder::Create(expected.qi_count(), options, &error);
  ASSERT_NE(builder, nullptr) << error;
  for (RowId r = 0; r < expected.size(); ++r) {
    builder->AppendRow(expected.qi_row(r), expected.sa(r));
  }
  std::unique_ptr<PagedTable> paged = builder->Finish(expected.schema(), &error);
  ASSERT_NE(paged, nullptr) << error;
  EXPECT_EQ(budget->used(), 0u);
  EXPECT_EQ(budget->remaining(), budget->total());
  EXPECT_EQ(budget->peak(), (expected.qi_count() + 1) * options.page_bytes);
}

TEST(PagedTableBuilder, ValidationRejectsOutOfDomainAndRaggedColumns) {
  Schema schema = testutil::MakeSchema({4, 3}, 2);
  PagedTableBuilder::Options options;
  options.page_bytes = 64;
  std::string error;

  // Out-of-domain QI value, caught by the column's running max.
  std::unique_ptr<PagedTableBuilder> builder = PagedTableBuilder::Create(2, options, &error);
  ASSERT_NE(builder, nullptr) << error;
  for (int i = 0; i < 50; ++i) {
    const Value qi[2] = {static_cast<Value>(i == 37 ? 9 : 1), 2};
    builder->AppendRow(qi, 0);
  }
  EXPECT_EQ(builder->Finish(schema, &error), nullptr);
  EXPECT_NE(error.find("A1"), std::string::npos) << error;

  // Out-of-domain SA value, fed through the chunked path.
  builder = PagedTableBuilder::Create(2, options, &error);
  ASSERT_NE(builder, nullptr) << error;
  const Value ones[3] = {1, 1, 1};
  const SaValue bad_sa[3] = {0, 5, 1};
  builder->AppendQiChunk(0, ones, 3);
  builder->AppendQiChunk(1, ones, 3);
  builder->AppendSaChunk(bad_sa, 3);
  EXPECT_EQ(builder->Finish(schema, &error), nullptr);
  EXPECT_EQ(error, "column 'B': value 5 outside domain of size 2");

  // Ragged columns (chunked feeding left one column short).
  builder = PagedTableBuilder::Create(2, options, &error);
  ASSERT_NE(builder, nullptr) << error;
  const Value column[3] = {1, 1, 1};
  const SaValue sa[3] = {0, 1, 0};
  builder->AppendQiChunk(0, column, 3);
  builder->AppendQiChunk(1, column, 2);
  builder->AppendSaChunk(sa, 3);
  EXPECT_EQ(builder->Finish(schema, &error), nullptr);
  EXPECT_NE(error.find("ragged"), std::string::npos) << error;
}

TEST(ExternalSorter, InRamFastPathServesSortedRecords) {
  ExternalSorter::Options options;
  options.buffer_records = 1024;
  std::string error;
  std::unique_ptr<ExternalSorter> sorter = ExternalSorter::Create(options, &error);
  ASSERT_NE(sorter, nullptr) << error;

  Rng rng(5);
  std::vector<SortRecord> expected;
  for (int i = 0; i < 500; ++i) {
    SortRecord record{rng.Below(64), static_cast<std::uint64_t>(i)};
    expected.push_back(record);
    sorter->Add(record);
  }
  std::sort(expected.begin(), expected.end());
  sorter->Finish();
  EXPECT_EQ(sorter->run_count(), 1u);  // nothing spilled

  std::vector<SortRecord> merged;
  SortRecord out;
  while (sorter->Next(&out)) merged.push_back(out);
  EXPECT_EQ(merged, expected);
}

TEST(ExternalSorter, MultiRunMergePreservesTotalOrder) {
  ExternalSorter::Options options;
  options.buffer_records = 128;        // force many spilled runs
  options.merge_buffer_records = 16;   // and many refills per run
  auto budget = std::make_shared<MemoryBudget>(1 << 20);
  options.budget = budget;
  std::string error;
  {
    std::unique_ptr<ExternalSorter> sorter = ExternalSorter::Create(options, &error);
    ASSERT_NE(sorter, nullptr) << error;

    Rng rng(17);
    std::vector<SortRecord> expected;
    for (int i = 0; i < 5000; ++i) {
      // Narrow key range: plenty of duplicate keys, so the payload
      // tie-break is what keeps the order total and deterministic.
      SortRecord record{rng.Below(97), static_cast<std::uint64_t>(i)};
      expected.push_back(record);
      sorter->Add(record);
    }
    std::sort(expected.begin(), expected.end());
    sorter->Finish();
    EXPECT_GT(sorter->run_count(), 1u);

    std::vector<SortRecord> merged;
    SortRecord out;
    while (sorter->Next(&out)) merged.push_back(out);
    EXPECT_EQ(merged, expected);
  }
  // Every charge (run buffer, merge buffers) was returned at destruction,
  // and the high-water mark proves the charges happened at all.
  EXPECT_EQ(budget->used(), 0u);
  EXPECT_GT(budget->peak(), 0u);
}

TEST(ExternalSorter, EmptyInputDrainsImmediately) {
  std::string error;
  std::unique_ptr<ExternalSorter> sorter = ExternalSorter::Create({}, &error);
  ASSERT_NE(sorter, nullptr) << error;
  sorter->Finish();
  SortRecord out;
  EXPECT_FALSE(sorter->Next(&out));
  EXPECT_EQ(sorter->record_count(), 0u);
}

}  // namespace
}  // namespace ldv
