// Tests for the alternative l-diversity instantiations (entropy, recursive
// (c,l)).

#include "anonymity/diversity.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace ldv {
namespace {

TEST(Diversity, FrequencyMatchesDefinitionTwo) {
  DiversitySpec spec{DiversityKind::kFrequency, 2, 1.0};
  EXPECT_TRUE(SatisfiesDiversity(SaHistogram({2, 2}), spec));
  EXPECT_FALSE(SatisfiesDiversity(SaHistogram({3, 1}), spec));
  EXPECT_TRUE(SatisfiesDiversity(SaHistogram(3), spec));  // empty
}

TEST(Diversity, EntropyOfUniformIsLogM) {
  SaHistogram h({5, 5, 5, 5});
  EXPECT_NEAR(SaEntropy(h), std::log(4.0), 1e-12);
  EXPECT_NEAR(SaEntropy(SaHistogram({7, 0, 0})), 0.0, 1e-12);
  EXPECT_NEAR(SaEntropy(SaHistogram(4)), 0.0, 1e-12);
}

TEST(Diversity, EntropyVariantIsStricterThanFrequency) {
  // Entropy l-diversity implies frequency l-diversity ([31], since
  // entropy >= ln l forces max p <= 1/l is false in general -- the
  // implication is entropy => frequency fails; but for the canonical
  // skewed example entropy is the stricter test).
  DiversitySpec freq{DiversityKind::kFrequency, 2, 1.0};
  DiversitySpec entr{DiversityKind::kEntropy, 2, 1.0};
  // (2,1,1): max fraction 1/2 -> frequency-2-diverse; entropy =
  // -(1/2 ln 1/2 + 2 * 1/4 ln 1/4) = 1.039 > ln 2 -> also entropy-ok.
  SaHistogram mixed({2, 1, 1});
  EXPECT_TRUE(SatisfiesDiversity(mixed, freq));
  EXPECT_TRUE(SatisfiesDiversity(mixed, entr));
  // (3,3,0): exactly frequency-2-diverse and entropy ln 2 (boundary).
  SaHistogram boundary({3, 3, 0});
  EXPECT_TRUE(SatisfiesDiversity(boundary, freq));
  EXPECT_TRUE(SatisfiesDiversity(boundary, entr));
  // (6,1,1): frequency fails for l=2 (6 > 8/2) but entropy 0.736 > ln 2
  // passes -- the two variants are incomparable in general.
  SaHistogram skewed({6, 1, 1});
  EXPECT_FALSE(SatisfiesDiversity(skewed, freq));
  EXPECT_TRUE(SatisfiesDiversity(skewed, entr));
  // (8,1,1): entropy 0.639 < ln 2 = 0.693, so both variants fail.
  SaHistogram very_skewed({8, 1, 1});
  EXPECT_FALSE(SatisfiesDiversity(very_skewed, freq));
  EXPECT_FALSE(SatisfiesDiversity(very_skewed, entr));
}

TEST(Diversity, RecursiveClDiversity) {
  // counts sorted desc r1..rm; requirement r1 < c (r_l + ... + r_m).
  DiversitySpec spec{DiversityKind::kRecursive, 2, 1.0};
  // (3, 2, 2): r1 = 3 < 1.0 * (2 + 2) = 4 -> ok.
  EXPECT_TRUE(SatisfiesDiversity(SaHistogram({3, 2, 2}), spec));
  // (5, 2, 2): r1 = 5 >= 4 -> fail with c = 1, pass with c = 2.
  EXPECT_FALSE(SatisfiesDiversity(SaHistogram({5, 2, 2}), spec));
  DiversitySpec loose{DiversityKind::kRecursive, 2, 2.0};
  EXPECT_TRUE(SatisfiesDiversity(SaHistogram({5, 2, 2}), loose));
  // Fewer than l distinct values can never satisfy the requirement.
  EXPECT_FALSE(SatisfiesDiversity(SaHistogram({4, 0, 0}), spec));
}

TEST(Diversity, AllVariantsAreMonotoneUnderUnion) {
  // The Lemma-1 style property the partitioners rely on; randomized sweep.
  Rng rng(71);
  for (DiversityKind kind :
       {DiversityKind::kFrequency, DiversityKind::kEntropy, DiversityKind::kRecursive}) {
    DiversitySpec spec{kind, 2, 1.0};
    int satisfied_pairs = 0;
    for (int trial = 0; trial < 400; ++trial) {
      std::size_t m = 3 + rng.Below(4);
      auto random_hist = [&]() {
        SaHistogram h(m);
        for (int i = 0; i < 12; ++i) h.Add(rng.Below(static_cast<std::uint32_t>(m)));
        return h;
      };
      SaHistogram a = random_hist();
      SaHistogram b = random_hist();
      if (!SatisfiesDiversity(a, spec) || !SatisfiesDiversity(b, spec)) continue;
      ++satisfied_pairs;
      a.MergeFrom(b);
      EXPECT_TRUE(SatisfiesDiversity(a, spec))
          << "kind " << static_cast<int>(kind) << ": union violated on " << a.ToString();
    }
    EXPECT_GT(satisfied_pairs, 10) << "sweep too weak for kind " << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace ldv
