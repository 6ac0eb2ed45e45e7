// Equivalence regression tests for the allocation-lean hot-path rewrites:
// the in-place Mondrian, the flat-map KL estimators and the
// workspace-threaded solvers must reproduce the seed implementations'
// outputs. The reference implementations below are verbatim copies of the
// pre-rewrite (seed) algorithms, kept simple and allocation-heavy on
// purpose -- they are the spec.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "anonymity/eligibility.h"
#include "anonymity/generalization.h"
#include "anonymity/multidim.h"
#include "anonymity/partition.h"
#include "common/flat_map.h"
#include "common/grouped_table.h"
#include "common/histogram.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/workspace.h"
#include "core/anonymizer.h"
#include "core/tp.h"
#include "data/acs_generator.h"
#include "data/acs_schema.h"
#include "hilbert/hilbert_partitioner.h"
#include "metrics/kl_divergence.h"
#include "mondrian/mondrian.h"
#include "test_util.h"

namespace ldv {
namespace {

// ---------------------------------------------------------------------------
// Reference Mondrian: the seed's copy-and-sort recursion.
// ---------------------------------------------------------------------------

class ReferenceMondrianState {
 public:
  ReferenceMondrianState(const Table& table, std::uint32_t l, BoxGeneralization* out,
                         ldv::Partition* partition)
      : table_(table), l_(l), out_(out), partition_(partition) {}

  void Recurse(std::vector<RowId> rows, std::vector<Value> lo, std::vector<Value> hi) {
    const std::size_t d = table_.qi_count();
    std::vector<std::pair<double, AttrId>> spreads;
    spreads.reserve(d);
    for (AttrId a = 0; a < d; ++a) {
      auto [min_it, max_it] = std::minmax_element(
          rows.begin(), rows.end(),
          [&](RowId x, RowId y) { return table_.qi(x, a) < table_.qi(y, a); });
      double spread =
          static_cast<double>(table_.qi(*max_it, a) - table_.qi(*min_it, a)) /
          static_cast<double>(table_.schema().qi(a).domain_size);
      spreads.push_back({spread, a});
    }
    std::sort(spreads.begin(), spreads.end(), [](const auto& x, const auto& y) {
      return x.first != y.first ? x.first > y.first : x.second < y.second;
    });

    for (const auto& [spread, attr] : spreads) {
      if (spread <= 0.0) break;
      Value split = MedianSplitValue(rows, attr);
      if (split == 0) continue;
      std::vector<RowId> left, right;
      SaHistogram left_hist(table_.schema().sa_domain_size());
      SaHistogram right_hist(table_.schema().sa_domain_size());
      for (RowId r : rows) {
        if (table_.qi(r, attr) < split) {
          left.push_back(r);
          left_hist.Add(table_.sa(r));
        } else {
          right.push_back(r);
          right_hist.Add(table_.sa(r));
        }
      }
      if (left.empty() || right.empty()) continue;
      if (!left_hist.IsEligible(l_) || !right_hist.IsEligible(l_)) continue;
      std::vector<Value> left_hi = hi, right_lo = lo;
      left_hi[attr] = split;
      right_lo[attr] = split;
      Recurse(std::move(left), lo, std::move(left_hi));
      Recurse(std::move(right), std::move(right_lo), std::move(hi));
      return;
    }
    partition_->AddGroup(rows);
    out_->AddGroup({lo, hi}, rows);
  }

 private:
  Value MedianSplitValue(const std::vector<RowId>& rows, AttrId attr) const {
    std::vector<Value> values;
    values.reserve(rows.size());
    for (RowId r : rows) values.push_back(table_.qi(r, attr));
    std::sort(values.begin(), values.end());
    if (values.front() == values.back()) return 0;
    Value median = values[values.size() / 2];
    return median > values.front() ? median : median + 1;
  }

  const Table& table_;
  std::uint32_t l_;
  BoxGeneralization* out_;
  ldv::Partition* partition_;
};

MondrianResult ReferenceMondrian(const Table& table, std::uint32_t l) {
  MondrianResult result;
  if (table.empty()) {
    result.feasible = true;
    return result;
  }
  if (!IsTableEligible(table, l)) return result;
  std::vector<RowId> all(table.size());
  for (RowId r = 0; r < table.size(); ++r) all[r] = r;
  std::vector<Value> lo(table.qi_count(), 0), hi(table.qi_count());
  for (AttrId a = 0; a < table.qi_count(); ++a) {
    hi[a] = static_cast<Value>(table.schema().qi(a).domain_size);
  }
  ReferenceMondrianState state(table, l, &result.generalization, &result.partition);
  state.Recurse(std::move(all), std::move(lo), std::move(hi));
  result.feasible = true;
  return result;
}

// ---------------------------------------------------------------------------
// Reference KL estimators: the seed's unordered_map accumulation.
// ---------------------------------------------------------------------------

class ReferencePointPacker {
 public:
  explicit ReferencePointPacker(const Schema& schema) {
    std::uint64_t stride = 1;
    for (std::size_t a = 0; a < schema.qi_count(); ++a) {
      strides_.push_back(stride);
      stride *= schema.qi(static_cast<AttrId>(a)).domain_size;
    }
    sa_stride_ = stride;
  }

  std::uint64_t Pack(std::span<const Value> qi, SaValue sa) const {
    std::uint64_t key = static_cast<std::uint64_t>(sa) * sa_stride_;
    for (std::size_t a = 0; a < qi.size(); ++a) key += strides_[a] * qi[a];
    return key;
  }

 private:
  std::vector<std::uint64_t> strides_;
  std::uint64_t sa_stride_ = 0;
};

struct ReferencePointCount {
  RowId representative = 0;
  std::uint32_t count = 0;
};

std::unordered_map<std::uint64_t, ReferencePointCount> ReferenceDistinctPoints(
    const Table& table, const ReferencePointPacker& packer) {
  std::unordered_map<std::uint64_t, ReferencePointCount> points;
  points.reserve(table.size());
  for (RowId r = 0; r < table.size(); ++r) {
    std::uint64_t key = packer.Pack(table.qi_row(r), table.sa(r));
    auto [it, inserted] = points.try_emplace(key, ReferencePointCount{r, 0});
    ++it->second.count;
  }
  return points;
}

double ReferenceKlSuppression(const Table& table, const GeneralizedTable& generalized) {
  if (table.empty()) return 0.0;
  const Schema& schema = table.schema();
  const std::size_t d = table.qi_count();
  const double n = static_cast<double>(table.size());

  struct MaskBucket {
    std::vector<AttrId> unstarred;
    std::vector<std::uint64_t> strides;
    std::uint64_t sa_stride = 0;
    std::unordered_map<std::uint64_t, double> mass;
  };
  std::unordered_map<std::uint32_t, MaskBucket> buckets;

  auto bucket_for_mask = [&](std::uint32_t mask) -> MaskBucket& {
    auto [it, inserted] = buckets.try_emplace(mask);
    if (inserted) {
      MaskBucket& b = it->second;
      std::uint64_t stride = 1;
      for (AttrId a = 0; a < d; ++a) {
        if ((mask >> a) & 1u) continue;
        b.unstarred.push_back(a);
        b.strides.push_back(stride);
        stride *= schema.qi(a).domain_size;
      }
      b.sa_stride = stride;
    }
    return it->second;
  };

  for (GroupId g = 0; g < generalized.group_count(); ++g) {
    const std::span<const Value> sig = generalized.signature(g);
    std::uint32_t mask = 0;
    double volume = 1.0;
    for (AttrId a = 0; a < d; ++a) {
      if (IsStar(sig[a])) {
        mask |= 1u << a;
        volume *= static_cast<double>(schema.qi(a).domain_size);
      }
    }
    MaskBucket& bucket = bucket_for_mask(mask);
    std::unordered_map<SaValue, std::uint32_t> sa_counts;
    for (RowId r : generalized.rows(g)) ++sa_counts[table.sa(r)];
    std::uint64_t base = 0;
    for (std::size_t i = 0; i < bucket.unstarred.size(); ++i) {
      base += bucket.strides[i] * sig[bucket.unstarred[i]];
    }
    for (const auto& [sa, count] : sa_counts) {
      bucket.mass[base + bucket.sa_stride * sa] += static_cast<double>(count) / volume;
    }
  }

  ReferencePointPacker packer(schema);
  double kl = 0.0;
  for (const auto& [key, pc] : ReferenceDistinctPoints(table, packer)) {
    (void)key;
    auto qi = table.qi_row(pc.representative);
    SaValue sa = table.sa(pc.representative);
    double fstar_n = 0.0;
    for (auto& [mask, bucket] : buckets) {
      (void)mask;
      std::uint64_t probe = static_cast<std::uint64_t>(sa) * bucket.sa_stride;
      for (std::size_t i = 0; i < bucket.unstarred.size(); ++i) {
        probe += bucket.strides[i] * qi[bucket.unstarred[i]];
      }
      auto it = bucket.mass.find(probe);
      if (it != bucket.mass.end()) fstar_n += it->second;
    }
    double f = static_cast<double>(pc.count) / n;
    kl += f * std::log(static_cast<double>(pc.count) / fstar_n);
  }
  return kl;
}

double ReferenceKlMultiDim(const Table& table, const BoxGeneralization& gen) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  const std::size_t m = table.schema().sa_domain_size();

  std::vector<std::vector<double>> mass(gen.group_count());
  for (std::size_t g = 0; g < gen.group_count(); ++g) {
    mass[g].assign(m, 0.0);
    double volume = gen.box(g).Volume();
    for (RowId r : gen.rows(g)) mass[g][table.sa(r)] += 1.0 / volume;
  }

  const std::size_t attr0_domain = table.schema().qi(0).domain_size;
  std::vector<std::vector<std::uint32_t>> candidates(attr0_domain);
  for (std::size_t g = 0; g < gen.group_count(); ++g) {
    for (Value v = gen.box(g).lo[0]; v < gen.box(g).hi[0]; ++v) {
      candidates[v].push_back(static_cast<std::uint32_t>(g));
    }
  }

  ReferencePointPacker packer(table.schema());
  double kl = 0.0;
  for (const auto& [key, pc] : ReferenceDistinctPoints(table, packer)) {
    (void)key;
    auto qi = table.qi_row(pc.representative);
    SaValue sa = table.sa(pc.representative);
    double fstar_n = 0.0;
    for (std::uint32_t g : candidates[qi[0]]) {
      if (gen.box(g).Contains(qi)) fstar_n += mass[g][sa];
    }
    double f = static_cast<double>(pc.count) / n;
    kl += f * std::log(static_cast<double>(pc.count) / fstar_n);
  }
  return kl;
}

// The FlatMap-probe reference of the suppression estimator: the same mask
// buckets (first-occurrence order, FlatMap masses), the same distinct
// points (first-occurrence order), the same 4096-point chunks folded in
// ascending order -- but each point probes every bucket's FlatMap with
// Find, adding only the masses it hits, before the next point starts. The
// estimator (bucket-major, frozen window tables, a branch-free select that
// adds +0.0 on a miss) must match it bit for bit at every SIMD tier.
double PointMajorKlSuppression(const Table& table, const GeneralizedTable& generalized,
                               std::size_t* bucket_count) {
  const Schema& schema = table.schema();
  const std::size_t d = table.qi_count();
  const double n = static_cast<double>(table.size());
  const std::size_t m = schema.sa_domain_size();

  struct MaskBucket {
    std::uint64_t mask = 0;
    std::vector<AttrId> unstarred;
    std::vector<std::uint64_t> strides;
    std::uint64_t sa_stride = 0;
    FlatMap<double> mass;
  };
  std::vector<MaskBucket> buckets;
  FlatMap<std::uint32_t> bucket_index;
  std::vector<std::uint32_t> sa_counts(m, 0);
  std::vector<SaValue> sa_touched;
  for (GroupId g = 0; g < generalized.group_count(); ++g) {
    const std::span<const Value> sig = generalized.signature(g);
    std::uint64_t mask = 0;
    double volume = 1.0;
    for (AttrId a = 0; a < d; ++a) {
      if (IsStar(sig[a])) {
        mask |= std::uint64_t{1} << a;
        volume *= static_cast<double>(schema.qi(a).domain_size);
      }
    }
    auto [slot, inserted] =
        bucket_index.TryEmplace(mask, static_cast<std::uint32_t>(buckets.size()));
    if (inserted) {
      MaskBucket& b = buckets.emplace_back();
      b.mask = mask;
      std::uint64_t stride = 1;
      for (AttrId a = 0; a < d; ++a) {
        if ((mask >> a) & 1u) continue;
        b.unstarred.push_back(a);
        b.strides.push_back(stride);
        stride *= schema.qi(a).domain_size;
      }
      b.sa_stride = stride;
    }
    MaskBucket& bucket = buckets[*slot];
    sa_touched.clear();
    for (RowId r : generalized.rows(g)) {
      SaValue v = table.sa(r);
      if (sa_counts[v]++ == 0) sa_touched.push_back(v);
    }
    std::uint64_t base = 0;
    for (std::size_t i = 0; i < bucket.unstarred.size(); ++i) {
      base += bucket.strides[i] * sig[bucket.unstarred[i]];
    }
    for (SaValue v : sa_touched) {
      bucket.mass[base + bucket.sa_stride * v] += static_cast<double>(sa_counts[v]) / volume;
      sa_counts[v] = 0;
    }
  }
  *bucket_count = buckets.size();

  struct Point {
    std::uint64_t key = 0;
    RowId representative = 0;
    std::uint32_t count = 0;
  };
  ReferencePointPacker packer(schema);
  std::vector<Point> points;
  FlatMap<std::uint32_t> index;
  for (RowId r = 0; r < table.size(); ++r) {
    const std::uint64_t key = packer.Pack(table.qi_row(r), table.sa(r));
    auto [slot, inserted] = index.TryEmplace(key, static_cast<std::uint32_t>(points.size()));
    if (inserted) {
      points.push_back(Point{key, r, 1});
    } else {
      ++points[*slot].count;
    }
  }

  constexpr std::size_t kGrain = 4096;
  double kl = 0.0;
  for (std::size_t begin = 0; begin < points.size(); begin += kGrain) {
    const std::size_t end = std::min(points.size(), begin + kGrain);
    double partial = 0.0;
    for (std::size_t p = begin; p < end; ++p) {
      const Point& pc = points[p];
      const SaValue sa = table.sa(pc.representative);
      double fstar_n = 0.0;
      for (const MaskBucket& bucket : buckets) {
        std::uint64_t probe = pc.key;
        if (bucket.mask != 0) {
          probe = static_cast<std::uint64_t>(sa) * bucket.sa_stride;
          for (std::size_t i = 0; i < bucket.unstarred.size(); ++i) {
            probe += bucket.strides[i] * table.qi(pc.representative, bucket.unstarred[i]);
          }
        }
        const double* mass = bucket.mass.Find(probe);
        if (mass != nullptr) fstar_n += *mass;
      }
      partial += (pc.count / n) * std::log(pc.count / fstar_n);
    }
    kl = kl + partial;
  }
  return kl;
}

// ---------------------------------------------------------------------------
// Equivalence tests
// ---------------------------------------------------------------------------

void ExpectSamePartition(const Partition& a, const Partition& b) {
  ASSERT_EQ(a.group_count(), b.group_count());
  for (GroupId g = 0; g < a.group_count(); ++g) {
    EXPECT_EQ(testutil::Rows(a.group(g)), testutil::Rows(b.group(g))) << "group " << g;
  }
}

void ExpectSameBoxes(const BoxGeneralization& a, const BoxGeneralization& b) {
  ASSERT_EQ(a.group_count(), b.group_count());
  for (std::size_t g = 0; g < a.group_count(); ++g) {
    EXPECT_TRUE(std::ranges::equal(a.box(g).lo, b.box(g).lo)) << "box " << g;
    EXPECT_TRUE(std::ranges::equal(a.box(g).hi, b.box(g).hi)) << "box " << g;
    EXPECT_EQ(testutil::Rows(a.rows(g)), testutil::Rows(b.rows(g))) << "box rows " << g;
  }
}

TEST(MondrianEquivalence, MatchesSeedOnRandomTables) {
  Rng rng(2026);
  struct Shape {
    std::size_t n;
    std::vector<std::size_t> qi_domains;
    std::size_t m;
    std::uint32_t l;
  };
  const Shape shapes[] = {
      {400, {16, 8, 4}, 6, 3},
      {800, {32, 2, 9}, 8, 2},
      {1500, {79, 2, 9, 17}, 10, 6},
      {300, {6, 6}, 5, 2},
      {64, {4}, 2, 2},
  };
  for (const Shape& shape : shapes) {
    Table table = testutil::RandomEligibleTable(rng, shape.n, shape.qi_domains, shape.m, shape.l);
    MondrianResult expected = ReferenceMondrian(table, shape.l);
    Workspace ws;
    MondrianResult actual = MondrianAnonymize(table, shape.l, &ws);
    ASSERT_EQ(expected.feasible, actual.feasible);
    if (!expected.feasible) continue;
    ExpectSamePartition(expected.partition, actual.partition);
    ExpectSameBoxes(expected.generalization, actual.generalization);
  }
}

TEST(MondrianEquivalence, MatchesSeedOnAcsWorkload) {
  Table sal = GenerateSal(3000, 1);
  Table t = sal.ProjectQi({kAge, kGender, kRace, kEducation});
  MondrianResult expected = ReferenceMondrian(t, 6);
  MondrianResult actual = MondrianAnonymize(t, 6);
  ASSERT_TRUE(expected.feasible);
  ASSERT_TRUE(actual.feasible);
  ExpectSamePartition(expected.partition, actual.partition);
  ExpectSameBoxes(expected.generalization, actual.generalization);
}

TEST(KlEquivalence, SuppressionMatchesSeedAcrossAlgorithms) {
  Rng rng(4051);
  for (int trial = 0; trial < 4; ++trial) {
    Table table = testutil::RandomEligibleTable(rng, 300, {8, 6, 4}, 5, 3);
    for (Algorithm algo : {Algorithm::kTp, Algorithm::kTpPlus, Algorithm::kHilbert}) {
      AnonymizationOutcome outcome = Anonymize(table, 3, algo);
      ASSERT_TRUE(outcome.feasible);
      GeneralizedTable gen(table, outcome.partition);
      double expected = ReferenceKlSuppression(table, gen);
      double actual = KlDivergenceSuppression(table, gen);
      // The flat rewrite sums in first-occurrence order instead of hash-
      // bucket order, so agreement is to rounding, not bit-for-bit.
      EXPECT_NEAR(actual, expected, 1e-9) << "trial " << trial;
    }
  }
}

TEST(KlEquivalence, MultiDimMatchesSeedOnMondrianBoxes) {
  Rng rng(4053);
  for (int trial = 0; trial < 4; ++trial) {
    Table table = testutil::RandomEligibleTable(rng, 500, {16, 9, 5}, 6, 2);
    MondrianResult mondrian = MondrianAnonymize(table, 2);
    ASSERT_TRUE(mondrian.feasible);
    double expected = ReferenceKlMultiDim(table, mondrian.generalization);
    double actual = KlDivergenceMultiDim(table, mondrian.generalization);
    EXPECT_NEAR(actual, expected, 1e-9) << "trial " << trial;
  }
}

TEST(KlEquivalence, SuppressionBucketMajorMatchesPointMajorBitForBit) {
  // TP+ and Hilbert releases of the full-width SAL table publish many star
  // masks, so every point probes many buckets and the bucket-major loop's
  // per-point sums are exercised in depth. TP's release of the 4-QI
  // projection has two masks, and its no-star bucket (9k-16k rows) is the
  // biggest window table. Every SIMD tier the host runs must reproduce
  // the FlatMap-probe reference exactly.
  struct LevelRestore {
    simd::Level saved = simd::ActiveLevel();
    ~LevelRestore() { simd::ForceLevel(saved); }
  } restore;
  const Table sal = GenerateSal(20000, 1);
  const Table narrow = sal.ProjectQi({kAge, kGender, kRace, kEducation});
  const std::pair<const Table*, Algorithm> releases[] = {
      {&sal, Algorithm::kTpPlus}, {&sal, Algorithm::kHilbert}, {&narrow, Algorithm::kTp}};
  for (const auto& [table, algo] : releases) {
    const Table& t = *table;
    for (std::uint32_t l : {2u, 4u}) {
      SCOPED_TRACE(std::string(AlgorithmName(algo)) + " l=" + std::to_string(l));
      AnonymizationOutcome outcome = Anonymize(t, l, algo);
      ASSERT_TRUE(outcome.feasible);
      std::size_t buckets = 0;
      const double point_major = PointMajorKlSuppression(t, *outcome.generalized, &buckets);
      ASSERT_GE(buckets, algo == Algorithm::kTp ? 2u : 16u);
      for (simd::Level level : {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
        if (level > simd::DetectedLevel()) continue;
        SCOPED_TRACE(std::string("simd=") + simd::LevelName(level));
        simd::ForceLevel(level);
        EXPECT_EQ(KlDivergenceSuppression(t, *outcome.generalized), point_major);
        Workspace four_threads(4, nullptr);
        EXPECT_EQ(KlDivergenceSuppression(t, *outcome.generalized, &four_threads), point_major);
      }
    }
  }
}

TEST(KlEquivalence, TilingMatchesStabbingBitForBit) {
  // Mondrian marks its boxes as a tiling, so the estimator reads each
  // point's f* from its own group. An unmarked copy of the same boxes goes
  // through the stabbing path, which sums every containing box -- exactly
  // one, since the boxes are disjoint -- so the doubles must agree exactly.
  // The full-width table gives tens of thousands of small boxes; its
  // {Race, Education} projection gives ~20 boxes of ~1000 rows, whose long
  // per-SA sums expose any change in how a group's mass is added up.
  const Table sal = GenerateSal(20000, 1);
  const Table narrow = sal.ProjectQi({kRace, kEducation});
  for (const Table* t : {&sal, &narrow}) {
    for (std::uint32_t l : {2u, 6u}) {
      SCOPED_TRACE("d=" + std::to_string(t->qi_count()) + " l=" + std::to_string(l));
      MondrianResult mondrian = MondrianAnonymize(*t, l);
      ASSERT_TRUE(mondrian.feasible);
      ASSERT_TRUE(mondrian.generalization.tiling());
      BoxGeneralization unmarked;
      for (std::size_t g = 0; g < mondrian.generalization.group_count(); ++g) {
        unmarked.AddGroup(mondrian.generalization.box(g), mondrian.generalization.rows(g));
      }
      ASSERT_FALSE(unmarked.tiling());
      EXPECT_EQ(KlDivergenceMultiDim(*t, mondrian.generalization),
                KlDivergenceMultiDim(*t, unmarked));
    }
  }
}

TEST(KlEquivalence, MultiDimMatchesReferenceOnOverlappingBoxes) {
  // The Section 6.2 relaxation T*' widens each suppression group to the
  // min..max box of its values, and those boxes overlap, so the stabbing
  // path must sum f* over every box containing a point -- the case the
  // disjoint Mondrian boxes above never reach. The 3-QI projection keeps
  // the domains small enough that many rows sit in two or more boxes.
  const Table t = GenerateSal(2000, 1).ProjectQi({kAge, kGender, kRace});
  for (Algorithm algo : {Algorithm::kTpPlus, Algorithm::kHilbert}) {
    for (std::uint32_t l : {2u, 4u}) {
      SCOPED_TRACE(std::string(AlgorithmName(algo)) + " l=" + std::to_string(l));
      AnonymizationOutcome outcome = Anonymize(t, l, algo);
      ASSERT_TRUE(outcome.feasible);
      const BoxGeneralization relaxed = RelaxSuppressionToMultiDim(t, *outcome.generalized);
      ASSERT_FALSE(relaxed.tiling());
      std::size_t overlapped_rows = 0;
      for (RowId r = 0; r < t.size(); ++r) {
        const auto qi = t.qi_row(r);
        std::size_t covering = 0;
        for (std::size_t g = 0; g < relaxed.group_count() && covering < 2; ++g) {
          if (relaxed.box(g).Contains(qi)) ++covering;
        }
        if (covering >= 2) ++overlapped_rows;
      }
      ASSERT_GT(overlapped_rows, 0u) << "no row lies in two boxes";
      const double estimate = KlDivergenceMultiDim(t, relaxed);
      EXPECT_NEAR(estimate, ReferenceKlMultiDim(t, relaxed), 1e-12);
      Workspace four_threads(4, nullptr);
      EXPECT_EQ(KlDivergenceMultiDim(t, relaxed, &four_threads), estimate);
    }
  }
}

TEST(WorkspaceEquivalence, ReusedWorkspaceGivesIdenticalOutcomes) {
  // Run every algorithm three ways -- fresh workspace, first reuse, second
  // reuse -- and require bit-identical outcomes: a workspace must never
  // leak state between solves.
  Rng rng(4055);
  Table table = testutil::RandomEligibleTable(rng, 400, {8, 8, 3}, 6, 3);
  Workspace ws;
  for (Algorithm algo : kAllAlgorithms) {
    AnonymizationOutcome fresh = Anonymize(table, 3, algo, AnonymizerOptions{});
    AnonymizationOutcome reused1 = Anonymize(table, 3, algo, AnonymizerOptions{}, &ws);
    AnonymizationOutcome reused2 = Anonymize(table, 3, algo, AnonymizerOptions{}, &ws);
    ASSERT_TRUE(fresh.feasible) << AlgorithmName(algo);
    for (const AnonymizationOutcome* outcome : {&reused1, &reused2}) {
      ASSERT_TRUE(outcome->feasible) << AlgorithmName(algo);
      EXPECT_EQ(fresh.stars, outcome->stars) << AlgorithmName(algo);
      EXPECT_EQ(fresh.suppressed_tuples, outcome->suppressed_tuples) << AlgorithmName(algo);
      EXPECT_EQ(fresh.kl_divergence, outcome->kl_divergence) << AlgorithmName(algo);
      ExpectSamePartition(fresh.partition, outcome->partition);
    }
  }
}

// ---------------------------------------------------------------------------
// Thread-count equivalence: the intra-run parallel kernels must produce
// byte-identical output at any thread budget. The tables are large enough
// that every parallel path actually engages (multiple ParallelFor chunks,
// a Mondrian frontier, several KL reduction chunks) even though the
// sequential references below run the same code inline at budget 1.
// ---------------------------------------------------------------------------

// Restores the process-wide thread budget however a test exits.
class ThreadCountEquivalence : public ::testing::Test {
 protected:
  void TearDown() override { SetThreadBudget(0); }
};

TEST_F(ThreadCountEquivalence, KernelsAreByteIdenticalAcrossThreadBudgets) {
  Table sal = GenerateSal(20000, 1);
  Table t = sal.ProjectQi({kAge, kGender, kRace, kEducation});
  HilbertOptions dp_options;
  dp_options.splitter = HilbertOptions::Splitter::kWindowDp;

  SetThreadBudget(1);
  Workspace ref_ws;
  HilbertResult greedy_ref = HilbertAnonymize(t, 6, {}, &ref_ws);
  HilbertResult dp_ref = HilbertAnonymize(t, 6, dp_options, &ref_ws);
  MondrianResult mondrian_ref = MondrianAnonymize(t, 6, &ref_ws);
  GroupedTable grouped_ref(t, &ref_ws);
  TpResult tp = RunTp(t, 6);
  GeneralizedTable generalized(t, tp.ToPartition());
  const double kl_suppression_ref = KlDivergenceSuppression(t, generalized);
  const double kl_multidim_ref = KlDivergenceMultiDim(t, mondrian_ref.generalization);

  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetThreadBudget(threads);
    Workspace ws;

    HilbertResult greedy = HilbertAnonymize(t, 6, {}, &ws);
    ExpectSamePartition(greedy_ref.partition, greedy.partition);
    HilbertResult dp = HilbertAnonymize(t, 6, dp_options, &ws);
    ExpectSamePartition(dp_ref.partition, dp.partition);

    MondrianResult mondrian = MondrianAnonymize(t, 6, &ws);
    ExpectSamePartition(mondrian_ref.partition, mondrian.partition);
    ExpectSameBoxes(mondrian_ref.generalization, mondrian.generalization);

    GroupedTable grouped(t, &ws);
    ASSERT_EQ(grouped_ref.group_count(), grouped.group_count());
    for (GroupId g = 0; g < grouped_ref.group_count(); ++g) {
      const QiGroup& ref = grouped_ref.group(g);
      const QiGroup& got = grouped.group(g);
      ASSERT_TRUE(std::ranges::equal(ref.qi_values, got.qi_values)) << "group " << g;
      ASSERT_TRUE(std::ranges::equal(ref.rows, got.rows)) << "group " << g;
      ASSERT_TRUE(std::ranges::equal(ref.sa_runs, got.sa_runs)) << "group " << g;
    }

    // Bit-equality, not near-equality: the estimators' chunk geometry and
    // combine order are fixed, so the doubles cannot drift.
    EXPECT_EQ(KlDivergenceSuppression(t, generalized), kl_suppression_ref);
    EXPECT_EQ(KlDivergenceMultiDim(t, mondrian.generalization), kl_multidim_ref);
  }
}

TEST_F(ThreadCountEquivalence, OutcomesAreBitIdenticalAcrossThreadBudgets) {
  // The full Anonymize path (solve + shared post-processing) for every
  // registered algorithm, budget 1 vs oversubscribed budgets.
  Table sal = GenerateSal(12000, 1);
  Table t = sal.ProjectQi({kAge, kRace, kEducation});

  SetThreadBudget(1);
  std::vector<AnonymizationOutcome> reference;
  for (Algorithm algo : kAllAlgorithms) {
    reference.push_back(Anonymize(t, 4, algo, AnonymizerOptions{}));
    ASSERT_TRUE(reference.back().feasible) << AlgorithmName(algo);
  }

  for (unsigned threads : {2u, 4u}) {
    SetThreadBudget(threads);
    Workspace ws;
    for (std::size_t i = 0; i < kAllAlgorithms.size(); ++i) {
      const Algorithm algo = kAllAlgorithms[i];
      SCOPED_TRACE(std::string(AlgorithmName(algo)) + " threads=" + std::to_string(threads));
      AnonymizationOutcome outcome = Anonymize(t, 4, algo, AnonymizerOptions{}, &ws);
      ASSERT_TRUE(outcome.feasible);
      EXPECT_EQ(reference[i].stars, outcome.stars);
      EXPECT_EQ(reference[i].suppressed_tuples, outcome.suppressed_tuples);
      EXPECT_EQ(reference[i].kl_divergence, outcome.kl_divergence);
      ExpectSamePartition(reference[i].partition, outcome.partition);
    }
  }
}

// Restores both the thread budget and the SIMD dispatch level however a
// test exits.
class SimdEquivalence : public ::testing::Test {
 protected:
  void TearDown() override {
    SetThreadBudget(0);
    simd::ForceLevel(simd::DetectedLevel());
  }
};

TEST_F(SimdEquivalence, OutcomesAreBitIdenticalAcrossSimdLevelsAndThreads) {
  // The full {scalar, sse2, avx2} x {1, 2, 4}-thread matrix (levels above
  // DetectedLevel() are skipped on hosts that lack them). The scalar
  // 1-thread corner is the reference; every other cell must reproduce its
  // releases and KL doubles bit-for-bit -- the determinism contract of the
  // SIMD layer, not just of the thread scheduler.
  Table sal = GenerateSal(12000, 1);
  Table t = sal.ProjectQi({kAge, kRace, kEducation});

  simd::ForceLevel(simd::Level::kScalar);
  SetThreadBudget(1);
  std::vector<AnonymizationOutcome> reference;
  for (Algorithm algo : kAllAlgorithms) {
    reference.push_back(Anonymize(t, 4, algo, AnonymizerOptions{}));
    ASSERT_TRUE(reference.back().feasible) << AlgorithmName(algo);
  }
  Workspace ref_ws;
  GroupedTable grouped_ref(t, &ref_ws);

  for (simd::Level level : {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
    if (level > simd::DetectedLevel()) continue;
    simd::ForceLevel(level);
    ASSERT_EQ(simd::ActiveLevel(), level);
    for (unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string("simd=") + simd::LevelName(level) +
                   " threads=" + std::to_string(threads));
      SetThreadBudget(threads);
      Workspace ws;

      GroupedTable grouped(t, &ws);
      ASSERT_EQ(grouped_ref.group_count(), grouped.group_count());
      for (GroupId g = 0; g < grouped_ref.group_count(); ++g) {
        const QiGroup& ref = grouped_ref.group(g);
        const QiGroup& got = grouped.group(g);
        ASSERT_TRUE(std::ranges::equal(ref.qi_values, got.qi_values)) << "group " << g;
        ASSERT_TRUE(std::ranges::equal(ref.rows, got.rows)) << "group " << g;
        ASSERT_TRUE(std::ranges::equal(ref.sa_runs, got.sa_runs)) << "group " << g;
      }

      for (std::size_t i = 0; i < kAllAlgorithms.size(); ++i) {
        const Algorithm algo = kAllAlgorithms[i];
        AnonymizationOutcome outcome = Anonymize(t, 4, algo, AnonymizerOptions{}, &ws);
        ASSERT_TRUE(outcome.feasible) << AlgorithmName(algo);
        EXPECT_EQ(reference[i].stars, outcome.stars) << AlgorithmName(algo);
        EXPECT_EQ(reference[i].suppressed_tuples, outcome.suppressed_tuples)
            << AlgorithmName(algo);
        EXPECT_EQ(reference[i].kl_divergence, outcome.kl_divergence) << AlgorithmName(algo);
        ExpectSamePartition(reference[i].partition, outcome.partition);
      }
    }
  }
}

TEST(WorkspaceEquivalence, MixedAlgorithmsShareOneWorkspace) {
  // Interleave algorithms on one workspace (the AnonymizeBatch worker
  // regime) and compare against fresh runs.
  Table sal = GenerateSal(2000, 7);
  Table t = sal.ProjectQi({kAge, kRace, kEducation});
  Workspace ws;
  for (int round = 0; round < 2; ++round) {
    for (Algorithm algo : kAllAlgorithms) {
      AnonymizationOutcome fresh = Anonymize(t, 4, algo, AnonymizerOptions{});
      AnonymizationOutcome shared = Anonymize(t, 4, algo, AnonymizerOptions{}, &ws);
      ASSERT_EQ(fresh.feasible, shared.feasible) << AlgorithmName(algo);
      if (!fresh.feasible) continue;
      EXPECT_EQ(fresh.stars, shared.stars) << AlgorithmName(algo);
      EXPECT_EQ(fresh.kl_divergence, shared.kl_divergence) << AlgorithmName(algo);
      ExpectSamePartition(fresh.partition, shared.partition);
    }
  }
}

}  // namespace
}  // namespace ldv
