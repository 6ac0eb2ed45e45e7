// Anatomy bucketization tests (Xiao and Tao [47], Section 2).

#include "anonymity/anatomy.h"

#include <gtest/gtest.h>

#include <set>

#include "anonymity/eligibility.h"
#include "data/acs_generator.h"
#include "data/acs_schema.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(Anatomy, BucketsAreLDiverse) {
  Rng rng(61);
  for (std::uint32_t l : {2u, 3u, 5u}) {
    Table table = testutil::RandomEligibleTable(rng, 300, {6, 4}, 8, l);
    if (!IsTableEligible(table, l)) continue;
    AnatomyResult result = AnatomyAnonymize(table, l);
    ASSERT_TRUE(result.feasible) << "l=" << l;
    EXPECT_TRUE(result.partition.CoversExactly(table));
    EXPECT_TRUE(IsLDiverse(table, result.partition, l));
  }
}

TEST(Anatomy, BucketsHaveDistinctCoreValues) {
  // Every bucket contains at least l pairwise distinct SA values.
  Rng rng(63);
  Table table = testutil::RandomEligibleTable(rng, 400, {5}, 10, 4);
  AnatomyResult result = AnatomyAnonymize(table, 4);
  ASSERT_TRUE(result.feasible);
  for (const auto& bucket : testutil::Groups(result.partition)) {
    std::set<SaValue> distinct;
    for (RowId r : bucket) distinct.insert(table.sa(r));
    EXPECT_GE(distinct.size(), 4u);
  }
}

TEST(Anatomy, BucketSizesAreTight) {
  // The greedy produces buckets of size l, plus at most one extra tuple
  // per bucket from the residual pass.
  Rng rng(65);
  const std::uint32_t l = 3;
  Table table = testutil::RandomEligibleTable(rng, 301, {4}, 9, l);
  AnatomyResult result = AnatomyAnonymize(table, l);
  ASSERT_TRUE(result.feasible);
  for (const auto& bucket : testutil::Groups(result.partition)) {
    EXPECT_GE(bucket.size(), l);
    EXPECT_LE(bucket.size(), static_cast<std::size_t>(2 * l));
  }
}

TEST(Anatomy, ExactlyBalancedInputGivesPerfectBuckets) {
  // m = l and perfectly balanced counts: every bucket has exactly l tuples.
  Schema schema = testutil::MakeSchema({3}, 4);
  Table table(schema);
  for (int round = 0; round < 6; ++round) {
    for (SaValue v = 0; v < 4; ++v) {
      std::vector<Value> qi{static_cast<Value>(round % 3)};
      table.AppendRow(qi, v);
    }
  }
  AnatomyResult result = AnatomyAnonymize(table, 4);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.partition.group_count(), 6u);
  for (const auto& bucket : testutil::Groups(result.partition)) EXPECT_EQ(bucket.size(), 4u);
}

TEST(Anatomy, InfeasibleTableRejected) {
  Schema schema = testutil::MakeSchema({2}, 2);
  Table table(schema);
  std::vector<Value> qi{0};
  table.AppendRow(qi, 0);
  table.AppendRow(qi, 0);
  table.AppendRow(qi, 1);
  EXPECT_FALSE(AnatomyAnonymize(table, 2).feasible);
}

TEST(Anatomy, EmptyTableIsTriviallyFeasible) {
  Schema schema = testutil::MakeSchema({2}, 2);
  Table table(schema);
  AnatomyResult result = AnatomyAnonymize(table, 5);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.partition.group_count(), 0u);
}

TEST(Anatomy, WorksOnCensusScaleData) {
  Table occ = GenerateOcc(20000, 2).ProjectQi({kAge, kRace});
  AnatomyResult result = AnatomyAnonymize(occ, 8);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(IsLDiverse(occ, result.partition, 8));
}

}  // namespace
}  // namespace ldv
