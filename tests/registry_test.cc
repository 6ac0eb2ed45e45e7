// AlgorithmRegistry tests: lookup by enum and by name, and the parity
// guarantee that every registered algorithm produces a valid l-diverse
// partition with the shared utility metrics populated.

#include "core/algorithm.h"

#include <gtest/gtest.h>

#include "anonymity/eligibility.h"
#include "data/acs_generator.h"
#include "data/acs_schema.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(Registry, AllSixAlgorithmsRegistered) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  const std::vector<const Anonymizer*> all = registry.All();
  ASSERT_EQ(all.size(), kAlgorithmCount);
  for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
    const Algorithm id = kAllAlgorithms[i];
    const Anonymizer& algo = registry.Get(id);
    EXPECT_EQ(algo.id(), id);
    EXPECT_EQ(all[i], &algo) << "All() is in enum order";
    EXPECT_STREQ(algo.name(), AlgorithmName(id));
  }
  EXPECT_EQ(registry.Get(Algorithm::kTp).methodology(), Methodology::kSuppression);
  EXPECT_EQ(registry.Get(Algorithm::kTpPlus).methodology(), Methodology::kSuppression);
  EXPECT_EQ(registry.Get(Algorithm::kHilbert).methodology(), Methodology::kSuppression);
  EXPECT_EQ(registry.Get(Algorithm::kMondrian).methodology(), Methodology::kMultiDimensional);
  EXPECT_EQ(registry.Get(Algorithm::kAnatomy).methodology(), Methodology::kBucketization);
  EXPECT_EQ(registry.Get(Algorithm::kTds).methodology(), Methodology::kSingleDimensional);
}

TEST(Registry, FindByNameIsCaseInsensitive) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  EXPECT_EQ(registry.Find("tp")->id(), Algorithm::kTp);
  EXPECT_EQ(registry.Find("TP")->id(), Algorithm::kTp);
  EXPECT_EQ(registry.Find("tp+")->id(), Algorithm::kTpPlus);
  EXPECT_EQ(registry.Find("HILBERT")->id(), Algorithm::kHilbert);
  EXPECT_EQ(registry.Find("Mondrian")->id(), Algorithm::kMondrian);
  EXPECT_EQ(registry.Find("anatomy")->id(), Algorithm::kAnatomy);
  EXPECT_EQ(registry.Find("tds")->id(), Algorithm::kTds);
}

TEST(Registry, FindUnknownNameReturnsNull) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  EXPECT_EQ(registry.Find(""), nullptr);
  EXPECT_EQ(registry.Find("tp++"), nullptr);
  EXPECT_EQ(registry.Find("mondrian2"), nullptr);
}

// Options travel with each Run, not with the registry entry.
TEST(Registry, RunHonorsOptions) {
  Table table = GenerateSal(3000, 5).ProjectQi({kAge, kGender, kEducation});
  const Anonymizer& hilbert = AlgorithmRegistry::Global().Get(Algorithm::kHilbert);
  AnonymizerOptions options;
  options.compute_kl = false;
  options.hilbert.splitter = HilbertOptions::Splitter::kWindowDp;
  AnonymizationOutcome custom = hilbert.Run(table, 4, options);
  ASSERT_TRUE(custom.feasible);
  EXPECT_EQ(custom.kl_divergence, 0.0);
  EXPECT_EQ(custom.partition.groups(),
            HilbertAnonymize(table, 4, options.hilbert).partition.groups());
  AnonymizationOutcome defaults = hilbert.Run(table, 4);
  ASSERT_TRUE(defaults.feasible);
  EXPECT_GT(defaults.kl_divergence, 0.0);
}

// The acceptance-criteria parity test: every registered algorithm, run on
// ACS-style workloads, yields a partition that exactly covers the table
// and is l-diverse, with the shared metrics filled in uniformly.
TEST(Registry, ParityOnAcsWorkloads) {
  Table sal = GenerateSal(4000, 1).ProjectQi({kAge, kGender, kEducation});
  Table occ = GenerateOcc(4000, 2).ProjectQi({kAge, kRace, kMarital});
  for (const Table* table : {&sal, &occ}) {
    for (std::uint32_t l : {2u, 4u}) {
      for (const Anonymizer* algo : AlgorithmRegistry::Global().All()) {
        SCOPED_TRACE(std::string(algo->name()) + " l=" + std::to_string(l));
        AnonymizationOutcome outcome = algo->Run(*table, l);
        ASSERT_TRUE(outcome.feasible);
        EXPECT_EQ(outcome.algorithm, algo->id());
        EXPECT_EQ(outcome.methodology, algo->methodology());
        EXPECT_TRUE(outcome.partition.CoversExactly(*table));
        EXPECT_TRUE(IsLDiverse(*table, outcome.partition, l));
        EXPECT_EQ(outcome.group_stats.group_count, outcome.partition.group_count());
        EXPECT_GE(outcome.kl_divergence, 0.0);
        EXPECT_GE(outcome.seconds, 0.0);
        if (outcome.methodology == Methodology::kBucketization) {
          // Anatomy publishes QI values exactly: no stars by construction.
          EXPECT_EQ(outcome.stars, 0u);
          EXPECT_EQ(outcome.generalized, nullptr);
        } else {
          ASSERT_NE(outcome.generalized, nullptr);
          EXPECT_EQ(outcome.stars, outcome.generalized->StarCount());
          EXPECT_EQ(outcome.suppressed_tuples, outcome.generalized->SuppressedTupleCount());
        }
      }
    }
  }
}

TEST(Registry, MethodologyArtifactsMatchKind) {
  Table table = GenerateSal(3000, 5).ProjectQi({kAge, kGender});
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  EXPECT_NE(registry.Get(Algorithm::kMondrian).Run(table, 2).boxes, nullptr);
  EXPECT_NE(registry.Get(Algorithm::kTds).Run(table, 2).single_dim, nullptr);
  EXPECT_EQ(registry.Get(Algorithm::kTp).Run(table, 2).boxes, nullptr);
}

TEST(Registry, InfeasibleIsUniformAcrossAlgorithms) {
  Table table = testutil::PaperTable1();  // max feasible l is 2
  for (const Anonymizer* algo : AlgorithmRegistry::Global().All()) {
    AnonymizationOutcome outcome = algo->Run(table, 3);
    EXPECT_FALSE(outcome.feasible) << algo->name();
    EXPECT_EQ(outcome.partition.group_count(), 0u) << algo->name();
  }
}

}  // namespace
}  // namespace ldv
