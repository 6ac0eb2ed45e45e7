// Hungarian algorithm and exact m = 2 solver tests (Section 4's polynomial
// special case).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "anonymity/eligibility.h"
#include "anonymity/generalization.h"
#include "hardness/exact_solver.h"
#include "matching/exact_m2.h"
#include "matching/hungarian.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(Hungarian, TrivialOneByOne) {
  std::vector<std::int32_t> assignment;
  EXPECT_EQ(SolveAssignment({{7}}, &assignment), 7);
  EXPECT_EQ(assignment, (std::vector<std::int32_t>{0}));
}

TEST(Hungarian, KnownThreeByThree) {
  // Classic example: optimal assignment cost 5 (0->1, 1->0, 2->2).
  std::vector<std::vector<std::int64_t>> cost = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  std::vector<std::int32_t> assignment;
  EXPECT_EQ(SolveAssignment(cost, &assignment), 5);
  // Assignment must be a permutation.
  std::vector<std::int32_t> sorted = assignment;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::int32_t>{0, 1, 2}));
}

TEST(Hungarian, MatchesBruteForceOnRandomMatrices) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t n = 2 + rng.Below(5);
    std::vector<std::vector<std::int64_t>> cost(n, std::vector<std::int64_t>(n));
    for (auto& row : cost) {
      for (auto& c : row) c = rng.Below(100);
    }
    std::vector<std::int32_t> assignment;
    std::int64_t got = SolveAssignment(cost, &assignment);

    // Brute force over all permutations.
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    do {
      std::int64_t total = 0;
      for (std::size_t i = 0; i < n; ++i) total += cost[i][perm[i]];
      best = std::min(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(got, best) << "trial " << trial;

    // Returned assignment must realize the reported cost.
    std::int64_t realized = 0;
    for (std::size_t i = 0; i < n; ++i) realized += cost[i][assignment[i]];
    EXPECT_EQ(realized, got);
  }
}

Table RandomM2Table(Rng& rng, std::size_t pairs, std::size_t qi_domain) {
  Schema schema = testutil::MakeSchema({qi_domain, qi_domain}, 2);
  Table table(schema);
  for (std::size_t i = 0; i < 2 * pairs; ++i) {
    std::vector<Value> qi{rng.Below(static_cast<std::uint32_t>(qi_domain)),
                          rng.Below(static_cast<std::uint32_t>(qi_domain))};
    table.AppendRow(qi, static_cast<SaValue>(i % 2));
  }
  return table;
}

TEST(ExactM2, ProducesTwoDiversePairPartition) {
  Rng rng(3);
  Table table = RandomM2Table(rng, 10, 4);
  ExactM2Result result = SolveExactM2(table);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.partition.CoversExactly(table));
  EXPECT_TRUE(IsLDiverse(table, result.partition, 2));
  for (const auto& group : testutil::Groups(result.partition)) EXPECT_EQ(group.size(), 2u);
  EXPECT_EQ(PartitionStarCount(table, result.partition), result.stars);
}

TEST(ExactM2, MatchesExhaustiveStarMinimization) {
  // Section 4: for m = 2 the matching solution is an optimal 2-diverse
  // generalization. Cross-check against the O(3^n) solver.
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    Table table = RandomM2Table(rng, 2 + rng.Below(4), 3);
    ExactM2Result matching = SolveExactM2(table);
    ExactStarResult exhaustive = ExactStarMinimization(table, 2);
    ASSERT_TRUE(matching.feasible);
    ASSERT_TRUE(exhaustive.feasible);
    EXPECT_EQ(matching.stars, exhaustive.stars) << "trial " << trial;
  }
}

TEST(ExactM2, RejectsUnbalancedClasses) {
  Schema schema = testutil::MakeSchema({2}, 2);
  Table table(schema);
  std::vector<Value> qi{0};
  table.AppendRow(qi, 0);
  table.AppendRow(qi, 0);
  table.AppendRow(qi, 1);
  EXPECT_FALSE(SolveExactM2(table).feasible);
}

TEST(ExactM2, RejectsMoreThanTwoValues) {
  Schema schema = testutil::MakeSchema({2}, 3);
  Table table(schema);
  std::vector<Value> qi{0};
  table.AppendRow(qi, 0);
  table.AppendRow(qi, 1);
  table.AppendRow(qi, 2);
  EXPECT_FALSE(SolveExactM2(table).feasible);
}

TEST(ExactM2, IdenticalPairsCostZero) {
  Schema schema = testutil::MakeSchema({4, 4}, 2);
  Table table(schema);
  for (int i = 0; i < 4; ++i) {
    std::vector<Value> qi{static_cast<Value>(i), static_cast<Value>(i)};
    table.AppendRow(qi, 0);
    table.AppendRow(qi, 1);
  }
  ExactM2Result result = SolveExactM2(table);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.stars, 0u);
}

}  // namespace
}  // namespace ldv
