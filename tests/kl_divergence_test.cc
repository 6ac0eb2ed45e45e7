// KL-divergence (Equation 2) tests for suppression, single-dimensional and
// Anatomy releases, and a golden pin of every estimator's bits.

#include "metrics/kl_divergence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ios>
#include <map>
#include <numeric>
#include <vector>

#include "anonymity/anatomy.h"
#include "anonymity/generalization.h"
#include "common/rng.h"
#include "core/anonymizer.h"
#include "core/batch.h"
#include "core/run_spec.h"
#include "data/acs_generator.h"
#include "hilbert/hilbert_partitioner.h"
#include "tds/tds.h"
#include "test_util.h"

namespace ldv {
namespace {

TEST(KlSuppression, SingletonGroupsGiveZeroDivergence) {
  // With every tuple its own group nothing is generalized: f* = f.
  Table table = testutil::PaperTable1();
  std::vector<std::vector<RowId>> singletons;
  for (RowId r = 0; r < table.size(); ++r) singletons.push_back({r});
  GeneralizedTable generalized(table, testutil::MakePartition(singletons));
  EXPECT_NEAR(KlDivergenceSuppression(table, generalized), 0.0, 1e-9);
}

TEST(KlSuppression, HandComputedTwoRowExample) {
  // Two rows, one QI attribute of domain size 2, distinct QI values, same
  // SA, grouped together: both rows get a star.
  // f(p) = 1/2 at two points; f*(p) = (1/2) * (2 * (1/2)) / ... concretely:
  // each generalized tuple is uniform over {0, 1}, so the induced density
  // at each of the two points is (1/2 + 1/2) * (1/2) / 2 ... = 1/2.
  // Hence f* = f and KL = 0 by symmetry.
  Schema schema = testutil::MakeSchema({2}, 2);
  Table table(schema);
  {
    std::vector<Value> qi{0};
    table.AppendRow(qi, 0);
  }
  {
    std::vector<Value> qi{1};
    table.AppendRow(qi, 0);
  }
  GeneralizedTable generalized(table, Partition::SingleGroup(table));
  EXPECT_NEAR(KlDivergenceSuppression(table, generalized), 0.0, 1e-12);
}

TEST(KlSuppression, AsymmetricGroupHasPositiveDivergence) {
  // Domain size 4, two rows at values {0, 1} grouped: each point keeps
  // f = 1/2 but f* spreads mass uniformly over 4 values: f* = 1/4 at each
  // point, so KL = ln 2.
  Schema schema = testutil::MakeSchema({4}, 2);
  Table table(schema);
  {
    std::vector<Value> qi{0};
    table.AppendRow(qi, 0);
  }
  {
    std::vector<Value> qi{1};
    table.AppendRow(qi, 0);
  }
  GeneralizedTable generalized(table, Partition::SingleGroup(table));
  EXPECT_NEAR(KlDivergenceSuppression(table, generalized), std::log(2.0), 1e-12);
}

TEST(KlSuppression, MoreStarsMoreDivergence) {
  Rng rng(51);
  Table table = testutil::RandomEligibleTable(rng, 200, {8, 8}, 4, 2);
  // Fine partition: Hilbert groups; coarse partition: single group.
  AnonymizationOutcome fine = Anonymize(table, 2, Algorithm::kHilbert);
  ASSERT_TRUE(fine.feasible);
  GeneralizedTable fine_gen(table, fine.partition);
  GeneralizedTable coarse_gen(table, Partition::SingleGroup(table));
  EXPECT_LT(KlDivergenceSuppression(table, fine_gen),
            KlDivergenceSuppression(table, coarse_gen));
}

// Equation 2 straight from its definition, with no bucketing or hashing:
// for each distinct point p, n * f*(p) sums count_g(SA(p)) / volume_g over
// every group g whose signature equals p on g's unstarred attributes
// (volume_g is the product of g's starred domains), and the KL sums
// f(p) * log(f(p) / f*(p)) over the distinct points.
double BruteForceKlSuppression(const Table& table, const GeneralizedTable& generalized) {
  const std::size_t d = table.qi_count();
  std::map<std::vector<Value>, std::uint32_t> points;  // (QI..., SA) -> multiplicity
  for (RowId r = 0; r < table.size(); ++r) {
    std::vector<Value> point(d + 1);
    for (std::size_t a = 0; a < d; ++a) point[a] = table.qi(r, static_cast<AttrId>(a));
    point[d] = table.sa(r);
    ++points[point];
  }
  const double n = static_cast<double>(table.size());
  double kl = 0.0;
  for (const auto& [point, count] : points) {
    double fstar_n = 0.0;
    for (GroupId g = 0; g < generalized.group_count(); ++g) {
      const std::span<const Value> sig = generalized.signature(g);
      bool matches = true;
      double volume = 1.0;
      for (std::size_t a = 0; a < d; ++a) {
        if (IsStar(sig[a])) {
          volume *= static_cast<double>(table.schema().qi(static_cast<AttrId>(a)).domain_size);
        } else if (sig[a] != point[a]) {
          matches = false;
        }
      }
      if (!matches) continue;
      const auto& rows = generalized.rows(g);
      const auto sa_count = std::count_if(rows.begin(), rows.end(),
                                          [&](RowId r) { return table.sa(r) == point[d]; });
      fstar_n += static_cast<double>(sa_count) / volume;
    }
    kl += (count / n) * std::log(count / fstar_n);
  }
  return kl;
}

// A random partition of the rows into groups of 1-8 rows: any partition
// is a valid suppression release for the estimator, l-diverse or not.
Partition RandomPartition(Rng& rng, std::size_t n) {
  std::vector<RowId> rows(n);
  for (RowId r = 0; r < n; ++r) rows[r] = r;
  rng.Shuffle(rows);
  std::vector<std::vector<RowId>> groups;
  for (std::size_t i = 0; i < n;) {
    const std::size_t size = std::min<std::size_t>(n - i, 1 + rng.Below(8));
    groups.emplace_back(rows.begin() + i, rows.begin() + i + size);
    i += size;
  }
  return testutil::MakePartition(groups);
}

TEST(KlSuppression, MatchesBruteForceEquationTwo) {
  // Seeded small tables (200-400 rows, 3-4 QIs of domain 2-6, SA domain
  // 4-6) under TP, TP+ and Hilbert releases at l = 2, 3 and random
  // partitions. A mass the estimator's bucket lookup loses, or finds
  // twice, moves f* and shows here.
  Rng rng(1802);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::size_t> domains(3 + rng.Below(2));
    for (std::size_t& size : domains) size = 2 + rng.Below(5);
    const std::size_t m = 4 + rng.Below(3);
    const std::size_t n = 200 + rng.Below(201);
    const Table table = testutil::RandomEligibleTable(rng, n, domains, m, 3);
    std::vector<Partition> releases;
    for (Algorithm algo : {Algorithm::kTp, Algorithm::kTpPlus, Algorithm::kHilbert}) {
      for (std::uint32_t l : {2u, 3u}) {
        AnonymizationOutcome outcome = Anonymize(table, l, algo);
        ASSERT_TRUE(outcome.feasible) << AlgorithmName(algo) << " l=" << l;
        releases.push_back(outcome.partition);
      }
    }
    releases.push_back(RandomPartition(rng, table.size()));
    releases.push_back(RandomPartition(rng, table.size()));
    for (std::size_t k = 0; k < releases.size(); ++k) {
      const GeneralizedTable generalized(table, releases[k]);
      EXPECT_NEAR(KlDivergenceSuppression(table, generalized),
                  BruteForceKlSuppression(table, generalized), 1e-12)
          << "trial " << trial << " release " << k;
    }
  }
}

TEST(KlSingleDim, RootCutMatchesFullySuppressedTable) {
  // TDS stuck at the root publishes every attribute as its full domain --
  // informationally identical to a single all-starred QI-group, so the two
  // KL computations must agree.
  Schema schema = testutil::MakeSchema({4, 3}, 2);
  Table table(schema);
  Rng rng(53);
  for (int i = 0; i < 40; ++i) {
    std::vector<Value> qi{rng.Below(4), rng.Below(3)};
    table.AppendRow(qi, rng.Below(2));
  }
  // Build the root-level single-dim generalization directly.
  std::vector<Taxonomy> taxonomies;
  taxonomies.emplace_back(4);
  taxonomies.emplace_back(3);
  std::vector<std::vector<std::int32_t>> cut = {{0, 0, 0, 0}, {0, 0, 0}};
  SingleDimGeneralization root_gen(std::move(taxonomies), std::move(cut));

  GeneralizedTable starred(table, Partition::SingleGroup(table));
  EXPECT_NEAR(KlDivergenceSingleDim(table, root_gen),
              KlDivergenceSuppression(table, starred), 1e-9);
}

TEST(KlSingleDim, LeafCutGivesZeroDivergence) {
  Schema schema = testutil::MakeSchema({4}, 2);
  Table table(schema);
  for (Value v = 0; v < 4; ++v) {
    std::vector<Value> qi{v};
    table.AppendRow(qi, 0);
    table.AppendRow(qi, 1);
  }
  TdsResult result = RunTds(table, 2);
  ASSERT_TRUE(result.feasible);
  // Fully specialized: no information loss.
  EXPECT_NEAR(KlDivergenceSingleDim(table, *result.generalization), 0.0, 1e-9);
}

TEST(KlSingleDim, TdsDivergenceGrowsWithL) {
  Rng rng(55);
  // Generate for the stricter privacy level so both runs are feasible.
  Table table = testutil::RandomEligibleTable(rng, 600, {16, 8}, 8, 6);
  TdsResult l2 = RunTds(table, 2);
  TdsResult l6 = RunTds(table, 6);
  ASSERT_TRUE(l2.feasible);
  ASSERT_TRUE(l6.feasible);
  EXPECT_LE(KlDivergenceSingleDim(table, *l2.generalization),
            KlDivergenceSingleDim(table, *l6.generalization) + 1e-9);
}

TEST(KlDivergence, NonNegativity) {
  // KL(f, f*) >= 0 for every generalization (Gibbs' inequality); random
  // sweep across algorithms.
  Rng rng(57);
  for (int trial = 0; trial < 5; ++trial) {
    Table table = testutil::RandomEligibleTable(rng, 150, {6, 5}, 5, 3);
    for (Algorithm algo : {Algorithm::kTp, Algorithm::kTpPlus, Algorithm::kHilbert}) {
      AnonymizationOutcome outcome = Anonymize(table, 3, algo);
      ASSERT_TRUE(outcome.feasible);
      GeneralizedTable gen(table, outcome.partition);
      EXPECT_GE(KlDivergenceSuppression(table, gen), -1e-9);
    }
  }
}

namespace dense_reference {

// The Anatomy estimator as it was before its bucket frequencies went
// sparse: a dense buckets x SA matrix of count / |bucket|, and, for each
// distinct point in first-occurrence order, a walk over every row of the
// point's QI class in ascending row order, adding that row's bucket
// frequency at the point's SA (zeros included). Every sum runs in the
// same order as it did there, so its doubles are the estimator's old bits.
double KlDivergenceAnatomy(const Table& table, const Partition& buckets) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  const std::size_t m = table.schema().sa_domain_size();
  std::vector<std::vector<double>> frequency(buckets.group_count());
  std::vector<std::uint32_t> bucket_of(table.size());
  for (GroupId g = 0; g < buckets.group_count(); ++g) {
    frequency[g].assign(m, 0.0);
    for (RowId r : buckets.group(g)) {
      frequency[g][table.sa(r)] += 1.0 / static_cast<double>(buckets.group(g).size());
      bucket_of[r] = g;
    }
  }
  std::map<std::vector<Value>, std::vector<RowId>> class_rows;  // QI signature -> rows
  std::map<std::vector<Value>, std::size_t> point_index;        // (QI..., SA) -> point
  std::vector<std::pair<RowId, std::uint32_t>> points;          // (first row, count)
  for (RowId r = 0; r < table.size(); ++r) {
    std::vector<Value> qi(table.qi_count());
    for (std::size_t a = 0; a < qi.size(); ++a) qi[a] = table.qi(r, static_cast<AttrId>(a));
    class_rows[qi].push_back(r);
    qi.push_back(table.sa(r));
    const auto [it, inserted] = point_index.try_emplace(qi, points.size());
    if (inserted) {
      points.emplace_back(r, 1);
    } else {
      ++points[it->second].second;
    }
  }
  double kl = 0.0;
  for (const auto& [rep, count] : points) {
    std::vector<Value> qi(table.qi_count());
    for (std::size_t a = 0; a < qi.size(); ++a) qi[a] = table.qi(rep, static_cast<AttrId>(a));
    const SaValue sa = table.sa(rep);
    double fstar_n = 0.0;
    for (RowId r : class_rows[qi]) fstar_n += frequency[bucket_of[r]][sa];
    double f = static_cast<double>(count) / n;
    kl += f * std::log(static_cast<double>(count) / fstar_n);
  }
  return kl;
}

}  // namespace dense_reference

TEST(KlEquivalence, AnatomyMatchesDenseReference) {
  // Anatomy's estimate, bit for bit against the dense reference above.
  // SAL-7 20k projected to its first d QIs: at d = 2 each QI class spans
  // many buckets, at d = 7 most classes are a single row.
  const Table sal = GenerateSal(20000, 1);
  for (std::size_t d : {2u, 3u, 4u, 7u}) {
    std::vector<AttrId> attrs(d);
    std::iota(attrs.begin(), attrs.end(), AttrId{0});
    const Table table = sal.ProjectQi(attrs);
    for (std::uint32_t l : {2u, 4u, 7u}) {
      const AnatomyResult anatomy = AnatomyAnonymize(table, l);
      ASSERT_TRUE(anatomy.feasible) << "d=" << d << " l=" << l;
      const double got = KlDivergenceAnatomy(table, anatomy.partition);
      const double want = dense_reference::KlDivergenceAnatomy(table, anatomy.partition);
      EXPECT_EQ(got, want) << "d=" << d << " l=" << l << std::hexfloat << ": got " << got
                           << ", want " << want;
    }
  }

  // Hand-built buckets over one QI of domain 3 and SA domain 4. Rows 0-3
  // form QI class 0, rows 4-6 class 1, and row 7 is class 2 alone. Buckets
  // repeat SA values ({1, 5, 7} and {3, 1, 7} hold SA 1 twice and three
  // times, {6, 2, 5, 4} SA 2 three times), class 0 spans up to four
  // buckets, and rows are listed out of order.
  const Schema schema = testutil::MakeSchema({3}, 4);
  const Table table = testutil::MakeTable(
      schema, {{0, 0}, {0, 1}, {0, 2}, {0, 1}, {1, 2}, {1, 2}, {1, 3}, {2, 1}});
  const std::vector<std::vector<std::vector<RowId>>> partitions = {
      {{0, 4}, {1, 5, 7}, {2, 6}, {3}},
      {{3, 1, 7}, {0}, {6, 2, 5, 4}},
      {{0, 1, 2, 3, 4, 5, 6, 7}},
      {{7}, {6}, {5}, {4}, {3}, {2}, {1}, {0}},
  };
  for (std::size_t k = 0; k < partitions.size(); ++k) {
    const Partition buckets = testutil::MakePartition(partitions[k]);
    EXPECT_EQ(KlDivergenceAnatomy(table, buckets),
              dense_reference::KlDivergenceAnatomy(table, buckets))
        << "hand-built partition " << k;
  }

  // Random bucketizations of small tables: few QI classes of many rows,
  // and buckets of 1-8 rows that repeat SA values.
  Rng rng(2406);
  for (int trial = 0; trial < 20; ++trial) {
    const Table small = testutil::RandomEligibleTable(rng, 300, {3, 2}, 5, 2);
    const Partition buckets = RandomPartition(rng, small.size());
    EXPECT_EQ(KlDivergenceAnatomy(small, buckets),
              dense_reference::KlDivergenceAnatomy(small, buckets))
        << "trial " << trial;
  }
}

TEST(KlGolden, SalSevenMatchesPinnedBits) {
  // Every algorithm's Equation 2 estimate on SAL-7 20k, pinned to the last
  // bit. Reports print KL with %.9g, so a drift in the low bits -- a
  // multiply-add the compiler fused, a reordered sum, a changed chunk
  // grain -- passes every report comparison and shows only here. The
  // literals are glibc's log (one implementation since 2.28) under every
  // SIMD tier and in a -march=native build. A failure means an estimate's
  // arithmetic changed: find out why, never edit a literal to match.
  struct Golden {
    Algorithm algo;
    std::uint32_t l;
    double kl;
  };
  const Golden golden[] = {
      {Algorithm::kTp, 2, 0x1.676caf9e26342p+3},
      {Algorithm::kTp, 4, 0x1.70b19ed55af31p+3},
      {Algorithm::kTpPlus, 2, 0x1.1b84bf78f1b5fp+3},
      {Algorithm::kTpPlus, 4, 0x1.58fda07805f61p+3},
      {Algorithm::kHilbert, 2, 0x1.1e108755b5af1p+3},
      {Algorithm::kHilbert, 4, 0x1.58e1d45c1a4c3p+3},
      {Algorithm::kMondrian, 2, 0x1.c84288e8117cep+2},
      {Algorithm::kMondrian, 4, 0x1.0f5d7de1af97fp+3},
      {Algorithm::kAnatomy, 2, 0x1.62201548fb561p-1},
      {Algorithm::kAnatomy, 4, 0x1.61f7331cf5073p+0},
      {Algorithm::kTds, 2, 0x1.4b74ec3323e84p+3},
      {Algorithm::kTds, 4, 0x1.573742c1d0a5dp+3},
  };
  const Table sal = GenerateSal(20000, 1);
  for (const Golden& g : golden) {
    const AnonymizationOutcome outcome = Anonymize(sal, g.l, g.algo);
    ASSERT_TRUE(outcome.feasible) << AlgorithmName(g.algo) << " l=" << g.l;
    EXPECT_EQ(outcome.kl_divergence, g.kl)
        << AlgorithmName(g.algo) << " l=" << g.l << std::hexfloat << ": got "
        << outcome.kl_divergence << ", pinned " << g.kl;
  }
}

TEST(KlEquivalence, SharedPointsMatchPerJobPoints) {
  // The engine resolves one point set per table, and every job of a sweep
  // sums over it on whichever worker solved the job. KlGolden's twelve
  // cells through AnonymizeBatch with resolved artifacts, at 1 and at 4
  // workers, must equal each cell run alone -- its estimator building its
  // own points -- bit for bit.
  const Table sal = GenerateSal(20000, 1);
  const std::uint32_t ls[] = {2, 4};
  const std::vector<RunSpec> specs = ExpandRunGrid(kAllAlgorithms, ls, 1, AnonymizerOptions{});
  ASSERT_EQ(specs.size(), 12u);
  std::vector<double> alone;
  for (const RunSpec& spec : specs) {
    const AnonymizationOutcome outcome = Anonymize(sal, spec.l, spec.algorithm);
    ASSERT_TRUE(outcome.feasible) << RunSpecLabel(spec);
    alone.push_back(outcome.kl_divergence);
  }

  TableArtifacts artifacts;
  artifacts.grouped = std::make_shared<const GroupedTable>(sal);
  auto order = std::make_shared<std::vector<RowId>>();
  HilbertComputeOrder(sal, nullptr, order.get());
  artifacts.hilbert_order = std::move(order);
  artifacts.kl_points = std::make_shared<const std::vector<KlPoint>>(KlDistinctPoints(sal));
  std::uint64_t rows = 0;
  for (const KlPoint& point : *artifacts.kl_points) rows += point.count;
  EXPECT_EQ(rows, sal.size()) << "the point multiplicities must cover every row once";

  const Table* tables[] = {&sal};
  for (const unsigned threads : {1u, 4u}) {
    const std::vector<AnonymizationOutcome> outcomes =
        AnonymizeBatch(specs, tables, {&artifacts, 1}, Workspace(threads, nullptr));
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(outcomes[i].kl_divergence, alone[i])
          << RunSpecLabel(specs[i]) << " at " << threads << " workers" << std::hexfloat
          << ": shared " << outcomes[i].kl_divergence << ", alone " << alone[i];
    }
  }
}

}  // namespace
}  // namespace ldv
