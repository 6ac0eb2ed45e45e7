// End-to-end property tests of the TP pipeline against the exact solvers:
// approximation guarantees (Theorem 3, Corollary 3, Lemma 2), privacy of the
// output, and determinism.

#include <gtest/gtest.h>

#include "anonymity/eligibility.h"
#include "anonymity/generalization.h"
#include "common/grouped_table.h"
#include "core/tp.h"
#include "hardness/exact_solver.h"
#include "test_util.h"

namespace ldv {
namespace {

using testutil::RandomEligibleTable;

struct SweepParam {
  std::uint64_t seed;
  std::size_t n;
  std::size_t m;
  std::uint32_t l;
};

class TpSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TpSweepTest, OutputIsAnLDiversePartitionWithinTheoremThreeBound) {
  const SweepParam param = GetParam();
  Rng rng(param.seed);
  Table table = RandomEligibleTable(rng, param.n, {3, 3, 2}, param.m, param.l);
  ASSERT_TRUE(IsTableEligible(table, param.l));

  TpResult result = RunTp(table, param.l);
  ASSERT_TRUE(result.feasible);

  // The output is a valid l-diverse partition of the input.
  Partition partition = result.ToPartition();
  EXPECT_TRUE(partition.CoversExactly(table));
  EXPECT_TRUE(IsLDiverse(table, partition, param.l));

  // Kept groups carry no stars (identical QI signatures).
  for (GroupId g = 0; g < result.kept_groups.group_count(); ++g) {
    EXPECT_EQ(GroupStarCount(table, result.kept_groups.group(g)), 0u);
  }

  // Theorem 3: |R| <= l * OPT for tuple minimization; Corollary 3 tightens
  // this to OPT + l - 1 when phase three is skipped.
  ExactTupleResult opt = ExactTupleMinimization(table, param.l);
  ASSERT_TRUE(opt.feasible);
  EXPECT_LE(result.residue_rows.size(), param.l * opt.removed + (param.l - 1))
      << "Theorem 3 violated";
  if (result.stats.terminated_phase <= 2) {
    EXPECT_LE(result.residue_rows.size(), opt.removed + param.l - 1) << "Corollary 3 violated";
  }
  if (result.stats.terminated_phase == 1) {
    EXPECT_EQ(result.residue_rows.size(), opt.removed) << "Corollary 1 violated";
  }
  // Corollary 2: OPT >= l * h(R-dot).
  EXPECT_GE(opt.removed,
            static_cast<std::uint64_t>(param.l) * result.stats.residue_pillar_after_phase1);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, TpSweepTest,
    ::testing::Values(SweepParam{1, 12, 3, 2}, SweepParam{2, 12, 3, 3}, SweepParam{3, 14, 4, 2},
                      SweepParam{4, 14, 4, 3}, SweepParam{5, 14, 4, 4}, SweepParam{6, 10, 5, 3},
                      SweepParam{7, 16, 5, 4}, SweepParam{8, 16, 5, 5}, SweepParam{9, 20, 6, 3},
                      SweepParam{10, 24, 6, 4}, SweepParam{11, 30, 7, 5},
                      SweepParam{12, 40, 8, 6}, SweepParam{13, 18, 4, 2},
                      SweepParam{14, 22, 5, 2}, SweepParam{15, 26, 6, 2}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "n" + std::to_string(info.param.n) +
             "m" + std::to_string(info.param.m) + "l" + std::to_string(info.param.l);
    });

TEST(TpPipeline, StarCountWithinLdOfOptimal) {
  // Lemma 2 path: TP's star count is at most l*d times the optimal star
  // count. Verified against the exhaustive star solver on small tables.
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    std::uint32_t l = 2 + rng.Below(2);
    std::size_t m = l + rng.Below(3);
    Table table = RandomEligibleTable(rng, 8 + rng.Below(5), {2, 2}, m, l);
    if (!IsTableEligible(table, l)) continue;
    const std::size_t d = table.qi_count();

    ExactStarResult opt = ExactStarMinimization(table, l);
    ASSERT_TRUE(opt.feasible);
    TpResult tp = RunTp(table, l);
    ASSERT_TRUE(tp.feasible);
    std::uint64_t tp_stars = PartitionStarCount(table, tp.ToPartition());
    // The guarantee has the additive phase-2 slack through Lemma 2:
    // stars <= d * (l * OPT_tuples + l - 1) <= d * (l * OPT_stars + l - 1).
    EXPECT_LE(tp_stars, d * (l * opt.stars + l - 1))
        << "trial " << trial << ": TP " << tp_stars << " vs OPT " << opt.stars;
  }
}

TEST(TpPipeline, DeterministicAcrossRuns) {
  Rng rng(31);
  Table table = RandomEligibleTable(rng, 60, {4, 3, 2}, 6, 3);
  TpResult a = RunTp(table, 3);
  TpResult b = RunTp(table, 3);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.residue_rows, b.residue_rows);
  EXPECT_EQ(testutil::Groups(a.kept_groups), testutil::Groups(b.kept_groups));
  EXPECT_EQ(a.stats.terminated_phase, b.stats.terminated_phase);
}

TEST(TpPipeline, InfeasibleTableIsReported) {
  Schema schema = testutil::MakeSchema({2}, 3);
  Table table(schema);
  std::vector<Value> qi{0};
  table.AppendRow(qi, 0);
  table.AppendRow(qi, 0);
  table.AppendRow(qi, 1);
  // h(T) = 2, n = 3: not 2-eligible.
  TpResult result = RunTp(table, 2);
  EXPECT_FALSE(result.feasible);
}

TEST(TpPipeline, LEqualsOneKeepsEverything) {
  Rng rng(5);
  Table table = RandomEligibleTable(rng, 30, {3, 3}, 4, 1);
  TpResult result = RunTp(table, 1);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.residue_rows.empty());
  EXPECT_EQ(result.stats.terminated_phase, 1);
}

TEST(TpPipeline, ResidueRowsMatchEngineAccounting) {
  Rng rng(8);
  Table table = RandomEligibleTable(rng, 50, {5, 2, 2}, 5, 4);
  TpResult result = RunTp(table, 4);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.kept_groups.row_count() + result.residue_rows.size(), table.size());
  EXPECT_EQ(result.stats.residue_size, result.residue_rows.size());
  EXPECT_EQ(result.stats.removed_phase1 + result.stats.removed_phase2 +
                result.stats.removed_phase3,
            result.residue_rows.size());
}

}  // namespace
}  // namespace ldv
