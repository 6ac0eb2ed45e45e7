// Mondrian multi-dimensional generalization and box-relaxation tests
// (Section 2 / Section 6.2).

#include "mondrian/mondrian.h"

#include <gtest/gtest.h>

#include "anonymity/eligibility.h"
#include "anonymity/generalization.h"
#include "anonymity/multidim.h"
#include "core/anonymizer.h"
#include "metrics/kl_divergence.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(QiBox, VolumeAndContainment) {
  const Value lo[] = {1, 0}, hi[] = {4, 2};
  const QiBox box{lo, hi};
  EXPECT_DOUBLE_EQ(box.Volume(), 6.0);
  EXPECT_TRUE(box.Contains(std::vector<Value>{1, 0}));
  EXPECT_TRUE(box.Contains(std::vector<Value>{3, 1}));
  EXPECT_FALSE(box.Contains(std::vector<Value>{4, 1}));
  EXPECT_FALSE(box.Contains(std::vector<Value>{0, 0}));
}

TEST(Mondrian, PartitionIsLDiverseAndBoxesCoverGroups) {
  Rng rng(81);
  Table table = testutil::RandomEligibleTable(rng, 600, {16, 8, 4}, 6, 3);
  MondrianResult result = MondrianAnonymize(table, 3);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.partition.CoversExactly(table));
  EXPECT_TRUE(IsLDiverse(table, result.partition, 3));
  ASSERT_EQ(result.generalization.group_count(), result.partition.group_count());
  for (std::size_t g = 0; g < result.generalization.group_count(); ++g) {
    for (RowId r : result.generalization.rows(g)) {
      EXPECT_TRUE(result.generalization.box(g).Contains(table.qi_row(r)));
    }
  }
}

TEST(Mondrian, BoxesTileTheDomain) {
  // Split-based boxes never overlap: every QI point lies in exactly one box.
  Rng rng(83);
  Table table = testutil::RandomEligibleTable(rng, 300, {6, 6}, 5, 2);
  MondrianResult result = MondrianAnonymize(table, 2);
  ASSERT_TRUE(result.feasible);
  for (Value x = 0; x < 6; ++x) {
    for (Value y = 0; y < 6; ++y) {
      std::vector<Value> p{x, y};
      int covering = 0;
      for (std::size_t g = 0; g < result.generalization.group_count(); ++g) {
        covering += result.generalization.box(g).Contains(p) ? 1 : 0;
      }
      EXPECT_EQ(covering, 1) << "(" << x << "," << y << ")";
    }
  }
}

TEST(Mondrian, RefinesWhereDataAllows) {
  // Balanced SA values on a spread-out attribute: Mondrian should produce
  // many groups, not one.
  Schema schema = testutil::MakeSchema({32}, 2);
  Table table(schema);
  for (Value v = 0; v < 32; ++v) {
    std::vector<Value> qi{v};
    table.AppendRow(qi, 0);
    table.AppendRow(qi, 1);
  }
  MondrianResult result = MondrianAnonymize(table, 2);
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.partition.group_count(), 16u);
}

// Coded domains whose sum passes 2^32 once wrapped the histogram offsets:
// the histogram path then ran on a 1-slot buffer and wrote out of bounds.
TEST(Mondrian, DomainsSummingPastThirtyTwoBits) {
  Table table(testutil::MakeSchema({4294967295u, 2}, 2));
  for (std::uint32_t r = 0; r < 400; ++r) {
    const Value a = static_cast<Value>((std::uint64_t{r} * 2654435761u) % 4294967295u);
    table.AppendRow(std::vector<Value>{a, r % 2}, (r / 2) % 2);
  }
  MondrianResult result = MondrianAnonymize(table, 2);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.partition.CoversExactly(table));
  EXPECT_TRUE(IsLDiverse(table, result.partition, 2));
  EXPECT_GT(result.partition.group_count(), 1u);
  for (std::size_t g = 0; g < result.generalization.group_count(); ++g) {
    for (RowId r : result.generalization.rows(g)) {
      EXPECT_TRUE(result.generalization.box(g).Contains(table.qi_row(r)));
    }
  }
}

TEST(Mondrian, InfeasibleTableRejected) {
  Schema schema = testutil::MakeSchema({4}, 2);
  Table table(schema);
  std::vector<Value> qi{0};
  table.AppendRow(qi, 0);
  EXPECT_FALSE(MondrianAnonymize(table, 2).feasible);
}

TEST(MultiDimRelax, BoxesCoverGroupsAndShrinkVolume) {
  Rng rng(85);
  Table table = testutil::RandomEligibleTable(rng, 300, {8, 8}, 5, 3);
  AnonymizationOutcome tpp = Anonymize(table, 3, Algorithm::kTpPlus);
  ASSERT_TRUE(tpp.feasible);
  GeneralizedTable suppressed(table, tpp.partition);
  BoxGeneralization relaxed = RelaxSuppressionToMultiDim(table, suppressed);
  ASSERT_EQ(relaxed.group_count(), suppressed.group_count());
  double full_volume = 8.0 * 8.0;
  for (std::size_t g = 0; g < relaxed.group_count(); ++g) {
    EXPECT_LE(relaxed.box(g).Volume(), full_volume + 1e-9);
    for (RowId r : relaxed.rows(g)) {
      EXPECT_TRUE(relaxed.box(g).Contains(table.qi_row(r)));
    }
  }
}

TEST(MultiDimRelax, RelaxationNeverHurtsKlDivergence) {
  // The Section 6.2 claim: T*' (multi-dimensional relaxation) is at least
  // as accurate as T* (suppression). KL must not increase.
  Rng rng(87);
  for (int trial = 0; trial < 5; ++trial) {
    Table table = testutil::RandomEligibleTable(rng, 250, {8, 6}, 5, 3);
    AnonymizationOutcome tpp = Anonymize(table, 3, Algorithm::kTpPlus);
    ASSERT_TRUE(tpp.feasible);
    GeneralizedTable suppressed(table, tpp.partition);
    BoxGeneralization relaxed = RelaxSuppressionToMultiDim(table, suppressed);
    double kl_star = KlDivergenceSuppression(table, suppressed);
    double kl_box = KlDivergenceMultiDim(table, relaxed);
    EXPECT_LE(kl_box, kl_star + 1e-9) << "trial " << trial;
  }
}

TEST(MultiDimKl, MatchesSuppressionWhenBoxesAreFullDomains) {
  // If every starred attribute's values span the whole domain, the relaxed
  // boxes equal the suppression semantics and the KLs coincide.
  Schema schema = testutil::MakeSchema({2}, 2);
  Table table(schema);
  {
    std::vector<Value> qi{0};
    table.AppendRow(qi, 0);
  }
  {
    std::vector<Value> qi{1};
    table.AppendRow(qi, 1);
  }
  GeneralizedTable suppressed(table, Partition::SingleGroup(table));
  BoxGeneralization relaxed = RelaxSuppressionToMultiDim(table, suppressed);
  EXPECT_NEAR(KlDivergenceMultiDim(table, relaxed),
              KlDivergenceSuppression(table, suppressed), 1e-12);
}

TEST(MultiDimKl, MondrianBeatsSuppressionOnSmoothData) {
  // Multi-dimensional generalization retains more information than
  // suppression-based grouping of the same privacy level (the Section 6.2
  // comparison in KL terms).
  Rng rng(89);
  Table table = testutil::RandomEligibleTable(rng, 800, {16, 16}, 4, 2);
  MondrianResult mondrian = MondrianAnonymize(table, 2);
  AnonymizationOutcome hilbert = Anonymize(table, 2, Algorithm::kHilbert);
  ASSERT_TRUE(mondrian.feasible);
  ASSERT_TRUE(hilbert.feasible);
  GeneralizedTable suppressed(table, hilbert.partition);
  EXPECT_LT(KlDivergenceMultiDim(table, mondrian.generalization),
            KlDivergenceSuppression(table, suppressed));
}

}  // namespace
}  // namespace ldv
