// Tests driving the three-phase engine through the paper's worked examples
// (Sections 5.2, 5.3 and 5.4) and checking the per-phase lemmas.

#include <gtest/gtest.h>

#include <ios>

#include "anonymity/eligibility.h"
#include "common/grouped_table.h"
#include "core/tp.h"
#include "data/acs_generator.h"
#include "test_util.h"

namespace ldv {
namespace {

using testutil::PaperTable1;

// ---------------------------------------------------------------------------
// Phase one (Section 5.2)
// ---------------------------------------------------------------------------

TEST(TpPhase1, PaperTable1ExampleTerminatesInPhaseOne) {
  // "Consider the example in Table 1 with l = 2. ... The set R of removed
  // tuples have the following (multi)set of SA values: {HIV, HIV,
  // pneumonia, bronchitis}. In this case R is already l-eligible and thus
  // the whole algorithm terminates."
  Table table = PaperTable1();
  GroupedTable grouped(table);
  EXPECT_EQ(grouped.group_count(), 5u);  // {1,2},{3},{4},{5..8},{9,10}

  TpEngine engine(grouped, 2);
  engine.Run();
  EXPECT_EQ(engine.stats().terminated_phase, 1);
  // HIV=0, pneumonia=1, bronchitis=2, dyspepsia=3.
  EXPECT_EQ(engine.ResidueHistogram(), SaHistogram({2, 1, 1, 0}));
  EXPECT_EQ(engine.stats().removed_phase1, 4u);
  EXPECT_TRUE(engine.ResidueEligible());
}

TEST(TpPhase1, MakesEveryGroupEligible) {
  std::vector<SaHistogram> groups = {SaHistogram({5, 1, 0}), SaHistogram({2, 2, 2}),
                                     SaHistogram({0, 0, 4})};
  TpEngine engine(groups, 2);
  engine.RunPhase1();
  for (GroupId g = 0; g < engine.group_count(); ++g) {
    SaHistogram h = engine.GroupHistogram(g);
    EXPECT_TRUE(h.IsEligible(2)) << "group " << g << " = " << h.ToString();
  }
}

TEST(TpPhase1, PillarRemovalIsOrderIndependentInOutcome) {
  // The paper argues the phase-one end state is unique. Check the specific
  // shape: (5,1,0) with l=2 must shrink to (1,1,0).
  std::vector<SaHistogram> groups = {SaHistogram({5, 1, 0})};
  TpEngine engine(groups, 2);
  engine.RunPhase1();
  EXPECT_EQ(engine.GroupHistogram(0), SaHistogram({1, 1, 0}));
  EXPECT_EQ(engine.ResidueHistogram(), SaHistogram({4, 0, 0}));
}

TEST(TpPhase1, GroupTooSmallIsFullyEliminated) {
  // A group with fewer than l distinct values can only become eligible by
  // becoming empty (the Section 5.6 degradation mode for diverse QI data).
  std::vector<SaHistogram> groups = {SaHistogram({3, 3, 0, 0})};
  TpEngine engine(groups, 3);
  engine.RunPhase1();
  EXPECT_EQ(engine.GroupHistogram(0).total(), 0u);
  EXPECT_EQ(engine.ResidueHistogram(), SaHistogram({3, 3, 0, 0}));
}

TEST(TpPhase1, LemmaFourResidueLowerBoundsOpt) {
  // Corollary 2: OPT >= l * h(R-dot). Cross-check on the paper example:
  // h(R-dot) = 2, l = 2 so OPT >= 4, and phase-1 termination removed
  // exactly 4, certifying optimality (Corollary 1).
  Table table = PaperTable1();
  TpResult result = RunTp(table, 2);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.stats.terminated_phase, 1);
  EXPECT_EQ(result.stats.residue_pillar_after_phase1, 2u);
  EXPECT_EQ(result.residue_rows.size(), 4u);
}

// ---------------------------------------------------------------------------
// Phase two (Section 5.3)
// ---------------------------------------------------------------------------

TEST(TpPhase2, PaperSection53Example) {
  // m = 5, s = 3, l = 3; Q1 = (3,1,1,2,3), Q2 = (0,2,2,4,4),
  // Q3 = (4,4,0,0,0).
  std::vector<SaHistogram> groups = {SaHistogram({3, 1, 1, 2, 3}), SaHistogram({0, 2, 2, 4, 4}),
                                     SaHistogram({4, 4, 0, 0, 0})};
  TpEngine engine(groups, 3);
  const TpStats& stats = engine.Run();

  // Phase one eliminates Q3 entirely (two distinct values can never be
  // 3-eligible) and leaves Q1, Q2 untouched.
  EXPECT_EQ(stats.removed_phase1, 8u);
  EXPECT_EQ(stats.residue_pillar_after_phase1, 4u);

  // Phase two succeeds (the paper's trace ends with R = (4,4,2,1,1); exact
  // counts depend on the arbitrary tie-breaks, the guarantees do not).
  EXPECT_EQ(stats.terminated_phase, 2);
  // Lemma 5: h(R) unchanged by phase two.
  EXPECT_EQ(stats.residue_pillar_after_phase2, 4u);
  EXPECT_EQ(engine.ResiduePillarHeight(), 4u);
  // Lemma 6: |R| <= l * h(R-dot) + l - 1 = 12 + 2.
  EXPECT_LE(engine.ResidueSize(), 14u);
  EXPECT_TRUE(engine.ResidueEligible());
  // Groups stay l-eligible throughout.
  for (GroupId g = 0; g < engine.group_count(); ++g) {
    EXPECT_TRUE(engine.GroupHistogram(g).IsEligible(3));
  }
}

TEST(TpPhase2, Theorem2TwoDiversityNeverReachesPhaseThree) {
  // Theorem 2: for l = 2 the algorithm always terminates during the first
  // two phases with |R| <= OPT + 1. Randomized sweep over histogram
  // configurations.
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::size_t m = 2 + rng.Below(5);
    std::size_t s = 1 + rng.Below(6);
    std::vector<SaHistogram> groups;
    SaHistogram overall(m);
    for (std::size_t g = 0; g < s; ++g) {
      SaHistogram h(m);
      int values = 1 + rng.Below(8);
      for (int i = 0; i < values; ++i) {
        SaValue v = rng.Below(static_cast<std::uint32_t>(m));
        h.Add(v);
        overall.Add(v);
      }
      groups.push_back(std::move(h));
    }
    if (!overall.IsEligible(2)) continue;
    TpEngine engine(groups, 2);
    engine.Run();
    EXPECT_LE(engine.stats().terminated_phase, 2) << "trial " << trial;
  }
}

TEST(TpPhase2, DirectCallAfterEligibleResidueIsNoOp) {
  std::vector<SaHistogram> groups = {SaHistogram({2, 2})};
  TpEngine engine(groups, 2);
  engine.RunPhase1();
  EXPECT_TRUE(engine.RunPhase2());
  EXPECT_EQ(engine.ResidueSize(), 0u);
}

// ---------------------------------------------------------------------------
// Phase three (Section 5.4)
// ---------------------------------------------------------------------------

TEST(TpPhase3, PaperSection54Example) {
  // m = 5, s = 2, l = 4; status after phase two: Q1 = (3,1,2,3,3),
  // Q2 = (1,3,2,3,3), R = (4,4,4,0,0). Both groups are dead (thin and
  // conflicting: Q1 on value 1, Q2 on value 2 in 1-based paper notation).
  std::vector<SaHistogram> groups = {SaHistogram({3, 1, 2, 3, 3}), SaHistogram({1, 3, 2, 3, 3})};
  SaHistogram residue({4, 4, 4, 0, 0});
  TpEngine engine(groups, residue, 4);

  ASSERT_FALSE(engine.ResidueEligible());
  ASSERT_TRUE(engine.GroupIsDead(0));
  ASSERT_TRUE(engine.GroupIsDead(1));

  engine.RunPhase3();
  EXPECT_TRUE(engine.ResidueEligible());
  // The paper's trace finishes in one round; the greedy here picks both
  // groups as well.
  EXPECT_EQ(engine.stats().phase3_rounds, 1u);
  // Lemma 8: each round raises h(R) by at most l - 2 = 2 (from 4 to <= 6).
  EXPECT_LE(engine.ResiduePillarHeight(), 6u);
  // Groups remain l-eligible.
  for (GroupId g = 0; g < engine.group_count(); ++g) {
    EXPECT_TRUE(engine.GroupHistogram(g).IsEligible(4));
  }
}

TEST(TpPhase3, RandomHardInstancesRespectTheoremThreeBounds) {
  // Configurations engineered to need phase three: many thin conflicting
  // groups sharing the residue pillar structure.
  Rng rng(123);
  int phase3_seen = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::size_t m = 3 + rng.Below(4);
    std::uint32_t l = 3 + rng.Below(static_cast<std::uint32_t>(m) - 2);
    std::size_t s = 1 + rng.Below(5);
    std::vector<SaHistogram> groups;
    SaHistogram overall(m);
    for (std::size_t g = 0; g < s; ++g) {
      SaHistogram h(m);
      // Mostly-flat groups with occasional heavy values.
      for (SaValue v = 0; v < m; ++v) {
        std::uint32_t c = rng.Below(4);
        if (rng.Below(4) == 0) c += rng.Below(5);
        if (c > 0) {
          h.Add(v, c);
          overall.Add(v, c);
        }
      }
      groups.push_back(std::move(h));
    }
    if (!overall.IsEligible(l)) continue;

    TpEngine engine(groups, l);
    const TpStats& stats = engine.Run();
    EXPECT_TRUE(engine.ResidueEligible());
    if (stats.terminated_phase == 3) {
      ++phase3_seen;
      // Theorem 3 internals: h(R-hat) <= (l-1) h(R-double-dot) and
      // |R-hat| <= l * h(R-hat) + l - 1.
      EXPECT_LE(engine.ResiduePillarHeight(),
                (l - 1) * stats.residue_pillar_after_phase2);
      EXPECT_LE(engine.ResidueSize(),
                static_cast<std::uint64_t>(l) * engine.ResiduePillarHeight() + l - 1);
      // Lemma 9: rounds <= h(R-double-dot).
      EXPECT_LE(stats.phase3_rounds, stats.residue_pillar_after_phase2);
    }
    // Always: groups l-eligible at the end.
    for (GroupId g = 0; g < engine.group_count(); ++g) {
      EXPECT_TRUE(engine.GroupHistogram(g).IsEligible(l));
    }
  }
  // The sweep must actually exercise phase three at least once; otherwise
  // the assertions above are vacuous.
  EXPECT_GT(phase3_seen, 0);
}

TEST(TpPhase3, MidDonationTerminationRegression) {
  // Regression: phase three used to test "R became l-eligible" after every
  // single removal, which could cut a thin group's donation short and leave
  // that group l-ineligible. On this instance (found by the approximation-
  // ratio harness) the buggy version returned |R| = 9 with an ineligible
  // group; the valid optimum is 14.
  Schema schema = testutil::MakeSchema({2, 3}, 5);
  Table table = testutil::MakeTable(
      schema, {{1, 0, 3}, {1, 1, 3}, {0, 0, 2}, {0, 0, 0}, {1, 0, 0}, {0, 2, 1}, {1, 2, 1},
               {1, 1, 3}, {1, 1, 0}, {1, 2, 4}, {0, 1, 1}, {1, 2, 1}, {0, 0, 3}, {1, 2, 2}});
  TpResult result = RunTp(table, 3);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.stats.terminated_phase, 3);
  Partition partition = result.ToPartition();
  EXPECT_TRUE(partition.CoversExactly(table));
  EXPECT_TRUE(IsLDiverse(table, partition, 3));
}

// One table of the phase-three fuzz: tiny QI domains and skewed SA values
// produce many thin conflicting groups. Draws l (3 or 4) first.
Table PhaseThreeFuzzTable(Rng& rng, std::uint32_t* l) {
  *l = 3 + rng.Below(2);
  std::size_t m = *l + 1 + rng.Below(3);
  Schema schema = testutil::MakeSchema({2, 3}, m);
  Table table(schema);
  std::size_t n = 10 + rng.Below(8);
  std::vector<Value> qi(2);
  for (std::size_t i = 0; i < n; ++i) {
    qi[0] = rng.Below(2);
    qi[1] = rng.Below(3);
    table.AppendRow(qi, rng.Below(static_cast<std::uint32_t>(m)));
  }
  return table;
}

TEST(TpPhase3, TableLevelOutputsStayLDiverseWhenPhaseThreeFires) {
  Rng rng(2027);
  int phase3_seen = 0;
  for (int trial = 0; trial < 800; ++trial) {
    std::uint32_t l = 0;
    const Table table = PhaseThreeFuzzTable(rng, &l);
    if (!IsTableEligible(table, l)) continue;
    TpResult result = RunTp(table, l);
    ASSERT_TRUE(result.feasible);
    Partition partition = result.ToPartition();
    ASSERT_TRUE(partition.CoversExactly(table));
    ASSERT_TRUE(IsLDiverse(table, partition, l)) << "trial " << trial << " l=" << l;
    if (result.stats.terminated_phase == 3) ++phase3_seen;
  }
  EXPECT_GT(phase3_seen, 0) << "fuzz never reached phase three; weak sweep";
}

// ---------------------------------------------------------------------------
// Removal order, pinned
// ---------------------------------------------------------------------------

// FNV-1a-64 over a run's terminated phase, its removed rows in removal
// order and its kept groups (sizes and rows, in order), eight bytes a
// field, low byte first.
void HashTpRun(const TpResult& result, std::uint64_t* hash) {
  const auto add = [hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      *hash ^= (word >> (8 * byte)) & 0xffu;
      *hash *= 0x100000001b3ull;
    }
  };
  add(static_cast<std::uint64_t>(result.stats.terminated_phase));
  add(result.residue_rows.size());
  for (RowId r : result.residue_rows) add(r);
  add(result.kept_groups.group_count());
  for (GroupId g = 0; g < result.kept_groups.group_count(); ++g) {
    add(result.kept_groups.group(g).size());
    for (RowId r : result.kept_groups.group(g)) add(r);
  }
}

TEST(TpGolden, RemovalOrderMatchesPinnedHashes) {
  // Which tuple each phase removes, and in what order, follows from the
  // Section 5.5 lists: each level list starts ascending by slot, a removed
  // or donated slot goes to the head of its new level, and ties take the
  // list head. The final |R| does not pin that order, and neither do the
  // theorem checks above; these hashes do. A failure means the engine now
  // removes other tuples or removes them in another order: find out why,
  // never edit a literal to match.
  constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
  int phase_seen[4] = {0, 0, 0, 0};

  // Every eligible trial of the phase-three fuzz, folded into one hash.
  Rng rng(2027);
  std::uint64_t fuzz_hash = kFnvBasis;
  for (int trial = 0; trial < 800; ++trial) {
    std::uint32_t l = 0;
    const Table table = PhaseThreeFuzzTable(rng, &l);
    if (!IsTableEligible(table, l)) continue;
    const TpResult result = RunTp(table, l);
    ASSERT_TRUE(result.feasible);
    HashTpRun(result, &fuzz_hash);
    ++phase_seen[result.stats.terminated_phase];
  }
  EXPECT_EQ(fuzz_hash, 0x3ec60b60bb39eecfull) << std::hex << "fuzz: got 0x" << fuzz_hash;

  // SAL-7 20k, one hash per l. No QI-group there holds more than 3 rows,
  // so from l = 4 on phase one removes every group whole and the four
  // pins coincide; they still pin the order in which it removes them.
  struct Pin {
    std::uint32_t l;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {2, 0x3ec20f4545c962aeull}, {4, 0xb0e208ebe0b52482ull}, {6, 0xb0e208ebe0b52482ull},
      {8, 0xb0e208ebe0b52482ull}, {10, 0xb0e208ebe0b52482ull},
  };
  const Table table = GenerateSal(20000, 1);
  const GroupedTable sal(table);
  for (const Pin& pin : pins) {
    const TpResult result = RunTp(sal, pin.l);
    ASSERT_TRUE(result.feasible) << "l=" << pin.l;
    std::uint64_t hash = kFnvBasis;
    HashTpRun(result, &hash);
    EXPECT_EQ(hash, pin.hash) << "SAL-7 l=" << pin.l << std::hex << ": got 0x" << hash;
    ++phase_seen[result.stats.terminated_phase];
  }
  for (int phase = 1; phase <= 3; ++phase) {
    EXPECT_GT(phase_seen[phase], 0) << "no pinned run ends in phase " << phase;
  }
}

}  // namespace
}  // namespace ldv
