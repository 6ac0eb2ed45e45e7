// RunSpec tests: deterministic grid expansion and the algorithm-list
// front-end parsing over the registry. Running specs against their tables
// is batch_test's.

#include "core/run_spec.h"

#include <gtest/gtest.h>

namespace ldv {
namespace {

TEST(RunSpec, LabelNamesAlgorithmLAndTable) {
  RunSpec spec;
  spec.algorithm = Algorithm::kTpPlus;
  spec.l = 4;
  spec.table_index = 2;
  EXPECT_EQ(RunSpecLabel(spec), "TP+/l=4/table=2");
}

TEST(RunSpec, GridExpandsTableMajorThenAlgorithmThenL) {
  const Algorithm algorithms[] = {Algorithm::kTp, Algorithm::kMondrian};
  const std::uint32_t ls[] = {2, 4};
  AnonymizerOptions options;
  options.compute_kl = false;
  std::vector<RunSpec> specs = ExpandRunGrid(algorithms, ls, 2, options);
  ASSERT_EQ(specs.size(), 8u);
  // Job order: table-major, then algorithm, then l.
  EXPECT_EQ(specs[0].table_index, 0u);
  EXPECT_EQ(specs[0].algorithm, Algorithm::kTp);
  EXPECT_EQ(specs[0].l, 2u);
  EXPECT_EQ(specs[1].l, 4u);
  EXPECT_EQ(specs[2].algorithm, Algorithm::kMondrian);
  EXPECT_EQ(specs[3].algorithm, Algorithm::kMondrian);
  EXPECT_EQ(specs[3].l, 4u);
  EXPECT_EQ(specs[4].table_index, 1u);
  EXPECT_EQ(specs[7].table_index, 1u);
  EXPECT_EQ(specs[7].algorithm, Algorithm::kMondrian);
  EXPECT_EQ(specs[7].l, 4u);
  for (const RunSpec& spec : specs) EXPECT_FALSE(spec.options.compute_kl);
}

TEST(RunSpec, ParseAlgorithmListAcceptsNamesAndAll) {
  std::vector<Algorithm> algorithms;
  std::string error;
  ASSERT_TRUE(ParseAlgorithmList("tp,MONDRIAN,tp+", &algorithms, &error)) << error;
  EXPECT_EQ(algorithms, (std::vector<Algorithm>{Algorithm::kTp, Algorithm::kMondrian,
                                                Algorithm::kTpPlus}));
  ASSERT_TRUE(ParseAlgorithmList("all", &algorithms, &error));
  EXPECT_EQ(algorithms.size(), kAlgorithmCount);
  for (std::size_t i = 0; i < kAlgorithmCount; ++i) EXPECT_EQ(algorithms[i], kAllAlgorithms[i]);
}

TEST(RunSpec, ParseAlgorithmListRejectsUnknownNames) {
  std::vector<Algorithm> algorithms;
  std::string error;
  EXPECT_FALSE(ParseAlgorithmList("tp,bogus", &algorithms, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_NE(error.find("Mondrian"), std::string::npos) << "error should list the registry";
  EXPECT_FALSE(ParseAlgorithmList("", &algorithms, &error));
  EXPECT_FALSE(ParseAlgorithmList("tp,,tds", &algorithms, &error));
}

TEST(RunSpec, RegisteredAlgorithmNamesIsEnumOrdered) {
  EXPECT_EQ(RegisteredAlgorithmNames(", "), "TP, TP+, Hilbert, Mondrian, Anatomy, TDS");
}

}  // namespace
}  // namespace ldv
