// Definition 1 (suppression generalization) tests, built on the paper's
// running example: Table 1 microdata, Table 2 (2-anonymous) and Table 3
// (2-diverse) partitions.

#include "anonymity/generalization.h"

#include <gtest/gtest.h>

#include "anonymity/eligibility.h"
#include "test_util.h"

namespace ldv {
namespace {

using testutil::PaperTable1;

// The partition behind Table 2 of the paper (4 QI-groups).
Partition PaperTable2Partition() {
  return testutil::MakePartition({{0, 1}, {2, 3}, {4, 5, 6, 7}, {8, 9}});
}

// The partition behind Table 3 of the paper (3 QI-groups).
Partition PaperTable3Partition() {
  return testutil::MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}});
}

TEST(Generalization, PaperTable2HasTwoStars) {
  Table table = PaperTable1();
  Partition partition = PaperTable2Partition();
  GeneralizedTable generalized(table, partition);
  // Only Tuples 3 and 4 have their Age suppressed.
  EXPECT_EQ(generalized.StarCount(), 2u);
  EXPECT_EQ(generalized.SuppressedTupleCount(), 2u);
  EXPECT_EQ(PartitionStarCount(table, partition), 2u);
}

TEST(Generalization, PaperTable3HasEightStarsAndFourSuppressedTuples) {
  // "in Table 3, the amount of information loss is 8 (stars) in Problem 1,
  // but 4 (tuples) in Problem 2."
  Table table = PaperTable1();
  Partition partition = PaperTable3Partition();
  GeneralizedTable generalized(table, partition);
  EXPECT_EQ(generalized.StarCount(), 8u);
  EXPECT_EQ(generalized.SuppressedTupleCount(), 4u);
}

TEST(Generalization, PaperTable2IsNotTwoDiverse) {
  // The first QI-group {Adam, Bob} is homogeneous (both HIV): the
  // homogeneity problem that motivates l-diversity.
  Table table = PaperTable1();
  EXPECT_FALSE(IsLDiverse(table, PaperTable2Partition(), 2));
}

TEST(Generalization, PaperTable3IsTwoDiverse) {
  Table table = PaperTable1();
  EXPECT_TRUE(IsLDiverse(table, PaperTable3Partition(), 2));
}

TEST(Generalization, SignatureKeepsSharedValues) {
  Table table = PaperTable1();
  GeneralizedTable generalized(table, PaperTable3Partition());
  // First group: Age and Education starred, Gender retained (all male).
  const std::span<const Value> sig = generalized.signature(0);
  EXPECT_TRUE(IsStar(sig[0]));
  EXPECT_EQ(sig[1], 0u);
  EXPECT_TRUE(IsStar(sig[2]));
  EXPECT_EQ(generalized.StarredAttributeCount(0), 2u);
  // Second group fully retained.
  EXPECT_EQ(generalized.StarredAttributeCount(1), 0u);
}

TEST(Generalization, SingletonGroupsCarryNoStars) {
  Table table = PaperTable1();
  std::vector<std::vector<RowId>> singletons;
  for (RowId r = 0; r < table.size(); ++r) singletons.push_back({r});
  GeneralizedTable generalized(table, testutil::MakePartition(singletons));
  EXPECT_EQ(generalized.StarCount(), 0u);
  EXPECT_EQ(generalized.SuppressedTupleCount(), 0u);
}

TEST(Generalization, SplittingAGroupNeverIncreasesStars) {
  // Star monotonicity under refinement, the property TP+ relies on.
  Rng rng(17);
  Table table = testutil::RandomEligibleTable(rng, 24, {3, 3, 2}, 4, 2);
  std::vector<RowId> all(table.size());
  for (RowId r = 0; r < table.size(); ++r) all[r] = r;
  std::uint64_t whole = GroupStarCount(table, all);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<RowId> left, right;
    for (RowId r = 0; r < table.size(); ++r) {
      (rng.Below(2) == 0 ? left : right).push_back(r);
    }
    if (left.empty() || right.empty()) continue;
    EXPECT_LE(GroupStarCount(table, left) + GroupStarCount(table, right), whole);
  }
}

TEST(Generalization, ToStringRendersStars) {
  Table table = PaperTable1();
  GeneralizedTable generalized(table, PaperTable3Partition());
  std::string rendered = generalized.ToString(table);
  EXPECT_NE(rendered.find('*'), std::string::npos);
  EXPECT_NE(rendered.find("group 0"), std::string::npos);
}

TEST(Partition, CoversExactlyRejectsDuplicatedMissingAndOutOfRangeRows) {
  Table table = PaperTable1();
  EXPECT_TRUE(PaperTable2Partition().CoversExactly(table));
  EXPECT_FALSE(testutil::MakePartition({{0, 1}, {1, 2, 3, 4, 5, 6, 7, 8, 9}}).CoversExactly(table));
  EXPECT_FALSE(testutil::MakePartition({{0, 1, 2, 3}, {4, 5, 6, 7, 8}}).CoversExactly(table));
  EXPECT_FALSE(
      testutil::MakePartition({{0, 1, 2, 3, 4}, {5, 6, 7, 8, 10}}).CoversExactly(table));
}

TEST(Partition, AddGroupDropsEmptyGroups) {
  Partition partition;
  partition.AddGroup(std::vector<RowId>{});
  EXPECT_EQ(partition.group_count(), 0u);
  partition.AddGroup(std::vector<RowId>{3, 1});
  partition.AddGroup(std::vector<RowId>{});
  partition.AddGroup(std::vector<RowId>{2});
  EXPECT_EQ(testutil::Groups(partition), (std::vector<std::vector<RowId>>{{3, 1}, {2}}));
}

TEST(Partition, AppendKeepsTheGroupOrderOfBoth) {
  Partition partition = testutil::MakePartition({{4, 0}, {2}});
  partition.Append(testutil::MakePartition({{1, 5, 3}, {6}}));
  EXPECT_EQ(testutil::Groups(partition),
            (std::vector<std::vector<RowId>>{{4, 0}, {2}, {1, 5, 3}, {6}}));
  Partition empty;
  empty.Append(partition);
  EXPECT_EQ(testutil::Groups(empty), testutil::Groups(partition));
}

TEST(Partition, RowCountIsTheSumOfGroupSizes) {
  const Partition partition = PaperTable3Partition();
  std::size_t sum = 0;
  for (GroupId g = 0; g < partition.group_count(); ++g) sum += partition.group(g).size();
  EXPECT_EQ(partition.row_count(), sum);
  EXPECT_EQ(partition.row_count(), 10u);
}

TEST(Partition, DefaultAndMovedFromPartitionsAreEmpty) {
  // A moved-from partition's vectors are empty, so it must read as a valid
  // empty partition (a CSR that always held a leading 0 offset would
  // report an underflowed group count here).
  const Partition fresh;
  EXPECT_EQ(fresh.group_count(), 0u);
  EXPECT_EQ(fresh.row_count(), 0u);
  Partition constructed_from = PaperTable2Partition();
  const Partition constructed = std::move(constructed_from);
  EXPECT_EQ(constructed.group_count(), 4u);
  EXPECT_EQ(constructed_from.group_count(), 0u);
  EXPECT_EQ(constructed_from.row_count(), 0u);
  Partition assigned_from = PaperTable3Partition();
  Partition assigned;
  assigned = std::move(assigned_from);
  EXPECT_EQ(assigned.group_count(), 3u);
  EXPECT_EQ(assigned_from.group_count(), 0u);
  EXPECT_EQ(assigned_from.row_count(), 0u);
}

TEST(Eligibility, PaperTable1MaxFeasibleL) {
  // Table 1: n = 10, most frequent disease is pneumonia (4 tuples): the
  // table is l-eligible exactly for l <= 2.
  Table table = PaperTable1();
  EXPECT_EQ(MaxFeasibleL(table), 2u);
  EXPECT_TRUE(IsTableEligible(table, 2));
  EXPECT_FALSE(IsTableEligible(table, 3));
}

TEST(Eligibility, SingleGroupPartitionIsDiverseIffTableEligible) {
  Table table = PaperTable1();
  Partition single = Partition::SingleGroup(table);
  EXPECT_TRUE(IsLDiverse(table, single, 2));
  EXPECT_FALSE(IsLDiverse(table, single, 3));
}

}  // namespace
}  // namespace ldv
