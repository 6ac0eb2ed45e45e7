#include "metrics/kl_divergence.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/flat_map.h"
#include "common/parallel.h"
#include "common/simd.h"

namespace ldv {

namespace {

// Mixed-radix strides of a packed data point: one per QI attribute, then
// the SA's. False when the product of the domains does not fit in 64 bits.
bool PointStrides(const Schema& schema, std::vector<std::uint64_t>* strides) {
  std::uint64_t stride = 1;
  const auto grow = [&](std::uint64_t radix) {
    strides->push_back(stride);
    if (stride >= std::numeric_limits<std::uint64_t>::max() / (radix + 1)) return false;
    stride *= radix;
    return true;
  };
  for (std::size_t a = 0; a < schema.qi_count(); ++a) {
    if (!grow(schema.qi(static_cast<AttrId>(a)).domain_size)) return false;
  }
  return grow(schema.sa_domain_size());
}

// Mixed-radix packing of a full data point (all QI values plus SA).
class PointPacker {
 public:
  explicit PointPacker(const Schema& schema) {
    const bool fits = PointStrides(schema, &strides_);
    LDIV_CHECK(fits) << "point id space exceeds 64 bits";
    sa_stride_ = strides_.back();
    strides_.pop_back();
  }

  std::uint64_t Pack(std::span<const Value> qi, SaValue sa) const {
    std::uint64_t key = static_cast<std::uint64_t>(sa) * sa_stride_;
    for (std::size_t a = 0; a < qi.size(); ++a) key += strides_[a] * qi[a];
    return key;
  }

  /// Packed ids of every row, accumulated column by column (one pass per
  /// QI attribute over its contiguous column, then the SA column when
  /// `include_sa`) -- the columnar replacement for packing row views. A
  /// pure per-row map: fixed row chunks fan out across threads and the
  /// integer accumulation is identical at any thread count.
  std::vector<std::uint64_t> PackAllRows(const Table& table, bool include_sa,
                                         Workspace& ws) const {
    const std::size_t n = table.size();
    std::vector<std::uint64_t> keys(n, 0);
    std::uint64_t* out = keys.data();
    ParallelFor(n, 16384, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
      for (std::size_t a = 0; a < strides_.size(); ++a) {
        const Value* col = table.column(static_cast<AttrId>(a)).data();
        simd::StrideAccumulate(out + begin, col + begin, strides_[a], end - begin);
      }
      if (include_sa) {
        simd::StrideAccumulate(out + begin, table.sa_column().data() + begin, sa_stride_,
                               end - begin);
      }
    });
    return keys;
  }

 private:
  std::vector<std::uint64_t> strides_;
  std::uint64_t sa_stride_ = 0;
};

// One distinct data point: its packed id, a representative row and its
// multiplicity.
struct PointCount {
  std::uint64_t key = 0;
  RowId representative = 0;
  std::uint32_t count = 0;
};

// The distinct data points of `table` in first-occurrence row order
// (deterministic, unlike the seed's unordered_map bucket order). The
// FlatMap only resolves duplicates; the sums below iterate the flat
// vector.
std::vector<PointCount> DistinctPoints(const Table& table, const PointPacker& packer,
                                       Workspace& ws) {
  std::vector<std::uint64_t> keys = packer.PackAllRows(table, /*include_sa=*/true, ws);
  std::vector<PointCount> points;
  points.reserve(table.size());
  FlatMap<std::uint32_t> index(table.size());
  for (RowId r = 0; r < table.size(); ++r) {
    auto [slot, inserted] = index.TryEmplace(keys[r], static_cast<std::uint32_t>(points.size()));
    if (inserted) {
      points.push_back(PointCount{keys[r], r, 1});
    } else {
      ++points[*slot].count;
    }
  }
  return points;
}

// Chunk sizes of the parallel per-point accumulation in the estimators
// below. The partial sums are combined in ascending chunk order
// (ParallelReduce), so the floating-point result is a function of the
// grain alone, never of the thread count. The two estimators tune
// differently (bench_micro on SAL-7 100k, ~95k distinct points): a
// suppression point costs a handful of flat-map probes, so small chunks
// just add sink churn (grain 1024 measured 8.65 ms vs 8.13 ms at 4096);
// a multi-dim point costs hundreds of box probes, so smaller chunks help
// the parallel split (56.6 ms at 1024 vs 57.6 ms at 4096). Overridable
// per call through KlTuning::point_grain.
constexpr std::size_t kKlSuppressionPointGrain = 4096;
constexpr std::size_t kKlMultiDimPointGrain = 1024;

// Rows per staged KL-accumulation block: (count, n*f*) pairs are staged in
// blocks of this many terms, then folded through simd::KlAccumulate.
// Must be a multiple of 4 so the kernel's virtual-lane assignment (term i
// -> lane i mod 4) never depends on where the blocks break -- the block
// size is then a pure performance knob. The bench_micro kl_block sweep on
// SAL-7 100k (kl_multidim_columnar workload) measured 1024/4096/16384 rows
// at 58.6/59.5/57.6 ms per estimate on a quiet machine -- within run-to-run
// noise of each other, since the stabbing probes dominate the staged fold.
// 1024 is kept as the default because its 16 KiB of staging is the smallest
// footprint that still amortizes the kernel-call overhead, leaving the most
// cache to the probe-heavy remainder on hosts with less L2 than this one.
constexpr std::size_t kKlBlockRows = 1024;

std::size_t ResolvePointGrain(const KlTuning& tuning, std::size_t fallback) {
  return tuning.point_grain != 0 ? tuning.point_grain : fallback;
}

std::size_t ResolveBlockRows(const KlTuning& tuning) {
  const std::size_t rows = tuning.block_rows != 0 ? tuning.block_rows : kKlBlockRows;
  return (rows + 3) & ~std::size_t{3};  // multiple of 4, minimum 4
}

// Per-chunk sink for KL terms: stages (count, n*f*) pairs in fixed-size
// blocks and folds full blocks through the SIMD p*log(p/q) kernel into
// four virtual-lane accumulators. Every block except the final partial
// one has block_rows terms (a multiple of 4), so term i always lands in
// lane i mod 4 of this chunk and the folded result is bit-identical at
// every SIMD level.
class KlTermSink {
 public:
  KlTermSink(double n, std::size_t block_rows, Workspace& ws)
      : n_(n),
        block_rows_(block_rows),
        counts_s_(ws.F64()),
        fstars_s_(ws.F64()),
        counts_(*counts_s_),
        fstars_(*fstars_s_) {
    counts_.resize(block_rows_);
    fstars_.resize(block_rows_);
  }

  void Add(double count, double fstar_n) {
    counts_[fill_] = count;
    fstars_[fill_] = fstar_n;
    if (++fill_ == block_rows_) Flush();
  }

  /// The chunk's partial sum: lanes folded in fixed order.
  double Finish() {
    Flush();
    return ((acc_[0] + acc_[1]) + acc_[2]) + acc_[3];
  }

 private:
  void Flush() {
    simd::KlAccumulate(counts_.data(), fstars_.data(), n_, fill_, acc_);
    fill_ = 0;
  }

  const double n_;
  const std::size_t block_rows_;
  ScratchVec<double> counts_s_, fstars_s_;
  std::vector<double>& counts_;
  std::vector<double>& fstars_;
  std::size_t fill_ = 0;
  double acc_[4] = {0.0, 0.0, 0.0, 0.0};
};

}  // namespace

bool KlPointIdsFit(const Schema& schema) {
  std::vector<std::uint64_t> strides;
  return PointStrides(schema, &strides);
}

double KlDivergenceSuppression(const Table& table, const GeneralizedTable& generalized,
                               const KlTuning& tuning, Workspace* workspace) {
  if (table.empty()) return 0.0;
  const Schema& schema = table.schema();
  const std::size_t d = table.qi_count();
  LDIV_CHECK_LE(d, 20u);
  const double n = static_cast<double>(table.size());
  const std::size_t m = schema.sa_domain_size();

  // Per star-mask aggregation: for each mask, map (projected unstarred
  // values, SA) -> accumulated count / volume over groups with that mask.
  // Masks live in a small flat vector (first-occurrence order); each
  // bucket's mass lives in a FlatMap keyed by the packed projection.
  struct MaskBucket {
    std::uint32_t mask = 0;
    std::vector<AttrId> unstarred;
    std::vector<std::uint64_t> strides;  // one per unstarred attr, then SA
    std::uint64_t sa_stride = 0;
    FlatMap<double> mass;
  };
  std::vector<MaskBucket> buckets;
  FlatMap<std::uint32_t> bucket_index;

  auto bucket_for_mask = [&](std::uint32_t mask) -> MaskBucket& {
    auto [slot, inserted] =
        bucket_index.TryEmplace(mask, static_cast<std::uint32_t>(buckets.size()));
    if (inserted) {
      MaskBucket& b = buckets.emplace_back();
      b.mask = mask;
      std::uint64_t stride = 1;
      for (AttrId a = 0; a < d; ++a) {
        if ((mask >> a) & 1u) continue;  // starred
        b.unstarred.push_back(a);
        b.strides.push_back(stride);
        stride *= schema.qi(a).domain_size;
      }
      b.sa_stride = stride;
    }
    return buckets[*slot];
  };

  // Dense per-group SA counter, reset through the touched list.
  std::vector<std::uint32_t> sa_counts(m, 0);
  std::vector<SaValue> sa_touched;
  for (GroupId g = 0; g < generalized.group_count(); ++g) {
    const std::vector<Value>& sig = generalized.signature(g);
    std::uint32_t mask = 0;
    double volume = 1.0;
    for (AttrId a = 0; a < d; ++a) {
      if (IsStar(sig[a])) {
        mask |= 1u << a;
        volume *= static_cast<double>(schema.qi(a).domain_size);
      }
    }
    MaskBucket& bucket = bucket_for_mask(mask);
    // SA counts of the group.
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
      bucket.mass[base + bucket.sa_stride * v] +=
          static_cast<double>(sa_counts[v]) / volume;
      sa_counts[v] = 0;
    }
  }

  // Per-point probes only read the bucket maps, so the distinct points
  // fan out in fixed chunks with one partial sum each, folded in chunk
  // order. The p*log(p/q) fold stays inline here instead of staging
  // through KlTermSink: a suppression point costs only a handful of
  // flat-map probes, and bench_micro measured the sink's staging pass at
  // ~9 ns/point -- lost out-of-order overlap with the probe loads -- a
  // 21% regression on kl_suppression/10k (527 us inline vs 614 us
  // staged). The multi-dim estimator below, whose points are two orders
  // of magnitude heavier, is where the staged SIMD fold pays.
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  PointPacker packer(schema);
  const std::vector<PointCount> points = DistinctPoints(table, packer, ws);
  return ParallelReduce(
      points.size(), ResolvePointGrain(tuning, kKlSuppressionPointGrain), ws, 0.0,
      [&](std::size_t begin, std::size_t end, Workspace&) {
        double partial = 0.0;
        for (std::size_t p = begin; p < end; ++p) {
          const PointCount& pc = points[p];
          const RowId rep = pc.representative;
          SaValue sa = table.sa(rep);
          double fstar_n = 0.0;  // n * f*(p)
          for (const MaskBucket& bucket : buckets) {
            std::uint64_t probe;
            if (bucket.mask == 0) {
              // No stars: the bucket's packing coincides with the point
              // packing (same strides in the same order), so the point id
              // is the probe.
              probe = pc.key;
            } else {
              probe = static_cast<std::uint64_t>(sa) * bucket.sa_stride;
              for (std::size_t i = 0; i < bucket.unstarred.size(); ++i) {
                probe += bucket.strides[i] * table.qi(rep, bucket.unstarred[i]);
              }
            }
            const double* mass = bucket.mass.Find(probe);
            if (mass != nullptr) fstar_n += *mass;
          }
          LDIV_CHECK_GT(fstar_n, 0.0) << "f* must cover every data point";
          partial += (pc.count / n) * std::log(pc.count / fstar_n);
        }
        return partial;
      },
      std::plus<double>());
}

double KlDivergenceMultiDim(const Table& table, const BoxGeneralization& gen,
                            const KlTuning& tuning, Workspace* workspace) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  const std::size_t m = table.schema().sa_domain_size();
  const std::size_t d = table.qi_count();

  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  const std::size_t group_count = gen.group_count();
  const std::size_t group_grain = std::max<std::size_t>(64, (group_count + 63) / 64);

  // Per-group SA histograms, flattened to one dense (group, SA) array so
  // the stabbing loop below does one indexed load per hit. Each group
  // writes only its own slice, so groups accumulate in parallel chunks
  // with identical per-group arithmetic.
  std::vector<double> mass(group_count * m, 0.0);  // n*f* weight per (group, SA)
  ParallelFor(group_count, group_grain, ws,
              [&](std::size_t gb, std::size_t ge, Workspace&) {
                for (std::size_t g = gb; g < ge; ++g) {
                  double volume = gen.box(g).Volume();
                  for (RowId r : gen.rows(g)) mass[g * m + table.sa(r)] += 1.0 / volume;
                }
              });

  // Flattened box bounds in struct-of-arrays layout: one lo array and one
  // hi array per attribute, each indexed by group, so the stabbing kernel
  // can gather a vector of candidates' bounds per compare. (Domain codes
  // are far below 2^31, the kernel's signed-compare precondition.)
  std::vector<Value> bounds(2 * d * group_count);
  std::vector<const std::uint32_t*> lo_ptr(d), hi_ptr(d);
  for (std::size_t a = 0; a < d; ++a) {
    lo_ptr[a] = bounds.data() + a * group_count;
    hi_ptr[a] = bounds.data() + (d + a) * group_count;
  }
  ParallelFor(group_count, group_grain, ws,
              [&](std::size_t gb, std::size_t ge, Workspace&) {
                for (std::size_t g = gb; g < ge; ++g) {
                  const QiBox& box = gen.box(g);
                  for (std::size_t a = 0; a < d; ++a) {
                    bounds[a * group_count + g] = box.lo[a];
                    bounds[(d + a) * group_count + g] = box.hi[a];
                  }
                }
              });

  // Tiling generalizations (Mondrian: boxes are global cuts, pairwise
  // disjoint by construction) let the stabbing loop below stop at each
  // point's first hit; overlapping box sets (relaxed suppression) sum
  // every containing box, exactly as before.
  const bool disjoint = gen.tiling();

  // Inverted index on attribute 0 in CSR form: candidate groups per
  // attribute-0 value (count pass, then fill pass -- no per-value vectors).
  const std::size_t attr0_domain = table.schema().qi(0).domain_size;
  std::vector<std::uint32_t> offsets(attr0_domain + 1, 0);
  for (std::size_t g = 0; g < gen.group_count(); ++g) {
    for (Value v = gen.box(g).lo[0]; v < gen.box(g).hi[0]; ++v) ++offsets[v + 1];
  }
  for (std::size_t v = 0; v < attr0_domain; ++v) offsets[v + 1] += offsets[v];
  std::vector<std::uint32_t> candidates(offsets[attr0_domain]);
  {
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t g = 0; g < gen.group_count(); ++g) {
      for (Value v = gen.box(g).lo[0]; v < gen.box(g).hi[0]; ++v) {
        candidates[cursor[v]++] = static_cast<std::uint32_t>(g);
      }
    }
  }

  // Per-attribute column base pointers for the representative-row probes.
  std::vector<const Value*> cols(d);
  for (std::size_t a = 0; a < d; ++a) cols[a] = table.column(static_cast<AttrId>(a)).data();

  // Widest candidate list, so each chunk sizes its hit buffer once.
  std::uint32_t max_candidates = 0;
  for (std::size_t v = 0; v < attr0_domain; ++v) {
    max_candidates = std::max(max_candidates, offsets[v + 1] - offsets[v]);
  }

  // The stabbing loop reads only the index structures built above, so the
  // distinct points fan out in fixed chunks, one partial sum per chunk,
  // folded in chunk order. Attribute 0 is pre-filtered by the candidate
  // index; the remaining attributes run through the SIMD stabbing kernel
  // (several candidates' bounds gathered and compared per step; for a
  // tiling the kernel stops at the first hit).
  PointPacker packer(table.schema());
  const std::vector<PointCount> points = DistinctPoints(table, packer, ws);
  const std::size_t block_rows = ResolveBlockRows(tuning);
  return ParallelReduce(
      points.size(), ResolvePointGrain(tuning, kKlMultiDimPointGrain), ws, 0.0,
      [&](std::size_t begin, std::size_t end, Workspace& cws) {
        auto hits_s = cws.U32();
        std::vector<std::uint32_t>& hits = *hits_s;
        hits.resize(max_candidates);
        auto point_s = cws.U32();
        std::vector<std::uint32_t>& point = *point_s;
        point.resize(d);
        KlTermSink sink(n, block_rows, cws);
        for (std::size_t p = begin; p < end; ++p) {
          const PointCount& pc = points[p];
          const RowId rep = pc.representative;
          const Value qi0 = cols[0][rep];
          SaValue sa = table.sa(rep);
          for (std::size_t a = 1; a < d; ++a) point[a] = cols[a][rep];
          const std::size_t hit_count = simd::StabCandidates(
              candidates.data() + offsets[qi0], offsets[qi0 + 1] - offsets[qi0], point.data(),
              lo_ptr.data(), hi_ptr.data(), d, /*first_only=*/disjoint, hits.data());
          double fstar_n = 0.0;
          for (std::size_t k = 0; k < hit_count; ++k) fstar_n += mass[hits[k] * m + sa];
          LDIV_CHECK_GT(fstar_n, 0.0) << "every point lies in its own group's box";
          sink.Add(static_cast<double>(pc.count), fstar_n);
        }
        return sink.Finish();
      },
      std::plus<double>());
}

double KlDivergenceAnatomy(const Table& table, const Partition& buckets, Workspace* workspace) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  const std::size_t m = table.schema().sa_domain_size();

  // Per-bucket SA frequency vectors (count / bucket size).
  std::vector<std::vector<double>> frequency(buckets.group_count());
  std::vector<std::uint32_t> bucket_of(table.size());
  for (GroupId g = 0; g < buckets.group_count(); ++g) {
    frequency[g].assign(m, 0.0);
    for (RowId r : buckets.group(g)) {
      frequency[g][table.sa(r)] += 1.0 / static_cast<double>(buckets.group(g).size());
      bucket_of[r] = g;
    }
  }

  // Rows grouped by exact QI signature (SA excluded), in CSR form: a
  // FlatMap assigns every signature a class id, then a count/fill pass
  // lays the rows out contiguously (ascending row id within a class,
  // matching the seed's push_back order).
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  PointPacker packer(table.schema());
  std::vector<std::uint32_t> class_of(table.size());
  std::uint32_t class_count = 0;
  {
    // QI-only keys (no SA term), packed in one column-major sweep.
    std::vector<std::uint64_t> qi_keys = packer.PackAllRows(table, /*include_sa=*/false, ws);
    FlatMap<std::uint32_t> classes(table.size());
    for (RowId r = 0; r < table.size(); ++r) {
      auto [slot, inserted] = classes.TryEmplace(qi_keys[r], class_count);
      class_of[r] = *slot;
      if (inserted) ++class_count;
    }
  }
  std::vector<std::uint32_t> class_offsets(class_count + 1, 0);
  for (RowId r = 0; r < table.size(); ++r) ++class_offsets[class_of[r] + 1];
  for (std::uint32_t c = 0; c < class_count; ++c) class_offsets[c + 1] += class_offsets[c];
  std::vector<RowId> class_rows(table.size());
  {
    std::vector<std::uint32_t> cursor(class_offsets.begin(), class_offsets.end() - 1);
    for (RowId r = 0; r < table.size(); ++r) class_rows[cursor[class_of[r]]++] = r;
  }

  double kl = 0.0;
  for (const PointCount& pc : DistinctPoints(table, packer, ws)) {
    SaValue sa = table.sa(pc.representative);
    std::uint32_t c = class_of[pc.representative];
    double fstar_n = 0.0;
    for (std::uint32_t i = class_offsets[c]; i < class_offsets[c + 1]; ++i) {
      fstar_n += frequency[bucket_of[class_rows[i]]][sa];
    }
    LDIV_CHECK_GT(fstar_n, 0.0);
    double f = static_cast<double>(pc.count) / n;
    kl += f * std::log(static_cast<double>(pc.count) / fstar_n);
  }
  return kl;
}

double KlDivergenceSingleDim(const Table& table, const SingleDimGeneralization& gen,
                             Workspace* workspace) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  const std::size_t d = table.qi_count();

  // Row gather buffer reused across the scans below: PackedCellId /
  // CellVolume take a row's QI vector, so the columns are gathered into
  // one scratch vector per probe instead of materializing QiRow views.
  std::vector<const Value*> cols(d);
  for (std::size_t a = 0; a < d; ++a) cols[a] = table.column(static_cast<AttrId>(a)).data();
  std::vector<Value> qi(d);
  auto gather = [&cols, &qi, d](RowId r) {
    for (std::size_t a = 0; a < d; ++a) qi[a] = cols[a][r];
  };

  // Per (cell, SA) counts; cells tile the space so each point probes one.
  FlatMap<std::uint32_t> cell_sa_counts(table.size());
  const std::uint64_t m = table.schema().sa_domain_size();
  for (RowId r = 0; r < table.size(); ++r) {
    gather(r);
    std::uint64_t cell = gen.PackedCellId(qi);
    LDIV_CHECK_LT(cell, std::numeric_limits<std::uint64_t>::max() / m);
    ++cell_sa_counts[cell * m + table.sa(r)];
  }

  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  PointPacker packer(table.schema());
  double kl = 0.0;
  for (const PointCount& pc : DistinctPoints(table, packer, ws)) {
    gather(pc.representative);
    SaValue sa = table.sa(pc.representative);
    std::uint64_t cell = gen.PackedCellId(qi);
    double volume = gen.CellVolume(qi);
    const std::uint32_t* count = cell_sa_counts.Find(cell * m + sa);
    LDIV_CHECK(count != nullptr);
    double cell_count = static_cast<double>(*count);
    double fstar_n = cell_count / volume;
    double f = static_cast<double>(pc.count) / n;
    kl += f * std::log(static_cast<double>(pc.count) / fstar_n);
  }
  return kl;
}

}  // namespace ldv
