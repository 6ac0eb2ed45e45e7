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

// The estimate's point set: the caller's when it resolved one, else a
// fresh build kept in `*local`.
const std::vector<KlPoint>& PointsFor(const Table& table, const std::vector<KlPoint>* points,
                                      Workspace& ws, std::vector<KlPoint>* local) {
  if (points != nullptr) return *points;
  *local = KlDistinctPoints(table, &ws);
  return *local;
}

// Chunk sizes of the parallel per-point folds in the estimators below.
// The partial sums are combined in ascending chunk order (ParallelReduce),
// so an estimate is a function of its grain alone, never of the thread
// count; the grains fix where the partial sums break, so changing one
// changes the last-bit rounding of every estimate. (Tuned on bench_micro's
// SAL-7 100k workload: 4096 for the cheap suppression points, 1024 for
// multi-dim points when each stabbed hundreds of boxes.)
constexpr std::size_t kKlSuppressionPointGrain = 4096;
constexpr std::size_t kKlMultiDimPointGrain = 1024;

// n * f*(p) of every row of a tiling box set, indexed by row. Boxes that
// tile the space are pairwise disjoint, so the only box containing a row
// is its own group's, and f* there is the group's mass at the row's SA:
// 1/volume per group row with that SA, summed in row order -- the sum the
// stabbing path reads from its groups x SA matrix. One dense m-sized
// scratch per chunk of groups, reset through the group's own rows.
std::vector<double> TilingFstar(const Table& table, const BoxGeneralization& gen, Workspace& ws) {
  const std::size_t m = table.schema().sa_domain_size();
  const std::size_t d = table.qi_count();
  const std::size_t group_count = gen.group_count();
  std::vector<const Value*> cols(d);
  for (std::size_t a = 0; a < d; ++a) cols[a] = table.column(static_cast<AttrId>(a)).data();
  std::vector<double> fstar(table.size(), 0.0);  // rows of no group keep 0 and fail below
  ParallelFor(group_count, std::max<std::size_t>(64, (group_count + 63) / 64), ws,
              [&](std::size_t gb, std::size_t ge, Workspace& cws) {
                auto mass_s = cws.F64();
                std::vector<double>& mass = *mass_s;
                mass.assign(m, 0.0);
                for (std::size_t g = gb; g < ge; ++g) {
                  const QiBox box = gen.box(g);
                  const double volume = box.Volume();
                  for (RowId r : gen.rows(g)) {
                    for (std::size_t a = 0; a < d; ++a) {
                      const Value v = cols[a][r];
                      LDIV_CHECK(v >= box.lo[a] && v < box.hi[a])
                          << "row " << r << " lies outside its group's box";
                    }
                    mass[table.sa(r)] += 1.0 / volume;
                  }
                  for (RowId r : gen.rows(g)) fstar[r] = mass[table.sa(r)];
                  for (RowId r : gen.rows(g)) mass[table.sa(r)] = 0.0;
                }
              });
  return fstar;
}

// n * f*(p) of every distinct point of an arbitrary (possibly overlapping)
// box set, indexed by the point's first row: the sum over every box
// containing p, in ascending group order. Candidate boxes per point come
// from an inverted index on attribute 0; the containment loop tests the
// remaining attributes.
std::vector<double> StabbingFstar(const Table& table, const BoxGeneralization& gen,
                                  const std::vector<KlPoint>& points, Workspace& ws) {
  const std::size_t m = table.schema().sa_domain_size();
  const std::size_t d = table.qi_count();
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
  // hi array per attribute, each indexed by group.
  std::vector<Value> bounds(2 * d * group_count);
  std::vector<const std::uint32_t*> lo_ptr(d), hi_ptr(d);
  for (std::size_t a = 0; a < d; ++a) {
    lo_ptr[a] = bounds.data() + a * group_count;
    hi_ptr[a] = bounds.data() + (d + a) * group_count;
  }
  ParallelFor(group_count, group_grain, ws,
              [&](std::size_t gb, std::size_t ge, Workspace&) {
                for (std::size_t g = gb; g < ge; ++g) {
                  const QiBox box = gen.box(g);
                  for (std::size_t a = 0; a < d; ++a) {
                    bounds[a * group_count + g] = box.lo[a];
                    bounds[(d + a) * group_count + g] = box.hi[a];
                  }
                }
              });

  // Inverted index on attribute 0 in CSR form: candidate groups per
  // attribute-0 value (count pass, then fill pass -- no per-value vectors).
  const std::size_t attr0_domain = table.schema().qi(0).domain_size;
  std::vector<std::uint32_t> offsets(attr0_domain + 1, 0);
  for (std::size_t g = 0; g < group_count; ++g) {
    for (Value v = gen.box(g).lo[0]; v < gen.box(g).hi[0]; ++v) ++offsets[v + 1];
  }
  for (std::size_t v = 0; v < attr0_domain; ++v) offsets[v + 1] += offsets[v];
  std::vector<std::uint32_t> candidates(offsets[attr0_domain]);
  {
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t g = 0; g < group_count; ++g) {
      for (Value v = gen.box(g).lo[0]; v < gen.box(g).hi[0]; ++v) {
        candidates[cursor[v]++] = static_cast<std::uint32_t>(g);
      }
    }
  }

  // Per-attribute column base pointers for the first-row probes.
  std::vector<const Value*> cols(d);
  for (std::size_t a = 0; a < d; ++a) cols[a] = table.column(static_cast<AttrId>(a)).data();

  // The stabbing loop reads only the index structures built above, so the
  // distinct points fan out in fixed chunks, each point writing its own
  // first row's slot.
  std::vector<double> fstar(table.size(), 0.0);
  ParallelFor(points.size(), kKlMultiDimPointGrain, ws,
              [&](std::size_t begin, std::size_t end, Workspace& cws) {
                auto point_s = cws.U32();
                std::vector<std::uint32_t>& point = *point_s;
                point.resize(d);
                for (std::size_t p = begin; p < end; ++p) {
                  const RowId rep = points[p].first_row;
                  const Value qi0 = cols[0][rep];
                  const SaValue sa = table.sa(rep);
                  for (std::size_t a = 1; a < d; ++a) point[a] = cols[a][rep];
                  double fstar_n = 0.0;
                  for (std::uint32_t c = offsets[qi0]; c < offsets[qi0 + 1]; ++c) {
                    const std::uint32_t g = candidates[c];
                    bool inside = true;
                    for (std::size_t a = 1; a < d; ++a) {
                      if (point[a] < lo_ptr[a][g] || point[a] >= hi_ptr[a][g]) {
                        inside = false;
                        break;
                      }
                    }
                    if (inside) fstar_n += mass[g * m + sa];
                  }
                  fstar[rep] = fstar_n;
                }
              });
  return fstar;
}

}  // namespace

bool KlPointIdsFit(const Schema& schema) {
  if (schema.qi_count() > 64) return false;  // the suppression estimator's star masks
  std::vector<std::uint64_t> strides;
  return PointStrides(schema, &strides);
}

std::vector<KlPoint> KlDistinctPoints(const Table& table, Workspace* workspace) {
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  const PointPacker packer(table.schema());
  std::vector<KlPoint> points;
  {
    // The FlatMap only resolves duplicates: ids in first-occurrence row
    // order (deterministic, unlike the seed's unordered_map bucket order).
    const std::vector<std::uint64_t> keys = packer.PackAllRows(table, /*include_sa=*/true, ws);
    FlatMap<std::uint32_t> index(table.size());
    points.reserve(table.size());
    for (RowId r = 0; r < table.size(); ++r) {
      auto [slot, inserted] = index.TryEmplace(keys[r], static_cast<std::uint32_t>(points.size()));
      if (inserted) {
        points.push_back(KlPoint{r, 1});
      } else {
        ++points[*slot].count;
      }
    }
  }
  points.shrink_to_fit();  // a resolved set lives as long as its table's artifacts
  return points;
}

bool KlSingleDimKeysFit(const Schema& schema) {
  std::uint64_t keys = schema.sa_domain_size();
  for (AttrId a = 0; a < schema.qi_count(); ++a) {
    const std::uint64_t radix = 2 * static_cast<std::uint64_t>(schema.qi(a).domain_size);
    if (keys > std::numeric_limits<std::uint64_t>::max() / radix) return false;
    keys *= radix;
  }
  return true;
}

double KlDivergenceSuppression(const Table& table, const GeneralizedTable& generalized,
                               Workspace* workspace, const std::vector<KlPoint>* points) {
  if (table.empty()) return 0.0;
  const Schema& schema = table.schema();
  const std::size_t d = table.qi_count();
  LDIV_CHECK_LE(d, 64u);
  const double n = static_cast<double>(table.size());
  const std::size_t m = schema.sa_domain_size();

  // Per star-mask aggregation: for each mask, map (projected unstarred
  // values, SA) -> accumulated count / volume over groups with that mask.
  // Masks live in a small flat vector (first-occurrence order); each
  // bucket's mass accumulates in a FlatMap keyed by the packed projection,
  // in group order, and is then frozen into a window table for the probes.
  struct MaskBucket {
    std::uint64_t mask = 0;
    std::vector<AttrId> unstarred;
    std::vector<std::uint64_t> strides;  // one per unstarred attr
    std::uint64_t sa_stride = 0;
    FlatMap<double> mass;
    WindowTable table;
  };
  std::vector<MaskBucket> buckets;
  FlatMap<std::uint32_t> bucket_index;

  auto bucket_for_mask = [&](std::uint64_t mask) -> MaskBucket& {
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
    const std::span<const Value> sig = generalized.signature(g);
    std::uint64_t mask = 0;
    double volume = 1.0;
    for (AttrId a = 0; a < d; ++a) {
      if (IsStar(sig[a])) {
        mask |= std::uint64_t{1} << a;
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

  // Freeze each bucket's masses, freeing its map as it goes. A packed
  // projection is below the point-id space, which KlPointIdsFit keeps
  // under 2^64 - 1, so no key is the table's empty-slot key (the table
  // CHECKs it).
  for (MaskBucket& bucket : buckets) {
    bucket.table = WindowTable(bucket.mass);
    bucket.mass = FlatMap<double>();
  }

  // The probes only read the bucket tables, so the distinct points fan out
  // in fixed chunks with one partial sum each, folded in chunk order.
  // Within a chunk the loop runs bucket-major: the chunk's points are
  // gathered into columns once, each bucket's projections are packed
  // column-wise and probed back to back by one window-select kernel call
  // (independent, branch-free lookups the core can overlap). Every point
  // adds one term per bucket into its f*, in bucket order: the mass it
  // hits, or +0.0 on a miss, which leaves the sum's bits unchanged -- so
  // f* is the point-major loop's sum of hits, bit for bit. Only the
  // columns some bucket projects are gathered; the no-star bucket packs
  // them exactly like the point ids.
  std::vector<AttrId> projected;
  for (AttrId a = 0; a < d; ++a) {
    for (const MaskBucket& bucket : buckets) {
      if (((bucket.mask >> a) & 1u) == 0) {
        projected.push_back(a);
        break;
      }
    }
  }
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  std::vector<KlPoint> local_points;
  const std::vector<KlPoint>& kl_points = PointsFor(table, points, ws, &local_points);
  return ParallelReduce(
      kl_points.size(), kKlSuppressionPointGrain, ws, 0.0,
      [&](std::size_t begin, std::size_t end, Workspace& cws) {
        const std::size_t len = end - begin;
        auto reps_s = cws.U32();
        std::vector<std::uint32_t>& reps = *reps_s;
        reps.resize(len);
        for (std::size_t i = 0; i < len; ++i) reps[i] = kl_points[begin + i].first_row;
        // Column a: the chunk's QI values of attribute a; column d: SA.
        auto columns_s = cws.U32();
        std::vector<std::uint32_t>& columns = *columns_s;
        columns.resize((d + 1) * len);
        const auto gather = [&](const std::uint32_t* values, std::uint32_t* out) {
          for (std::size_t i = 0; i < len; ++i) out[i] = values[reps[i]];
        };
        for (AttrId a : projected) gather(table.column(a).data(), columns.data() + a * len);
        gather(table.sa_column().data(), columns.data() + d * len);
        auto probes_s = cws.U64();
        std::vector<std::uint64_t>& probes = *probes_s;
        probes.resize(len);
        auto fstar_s = cws.F64();
        std::vector<double>& fstar = *fstar_s;  // n * f*(p)
        fstar.assign(len, 0.0);
        for (const MaskBucket& bucket : buckets) {
          std::fill(probes.begin(), probes.end(), 0);
          simd::StrideAccumulate(probes.data(), columns.data() + d * len, bucket.sa_stride, len);
          for (std::size_t i = 0; i < bucket.unstarred.size(); ++i) {
            simd::StrideAccumulate(probes.data(), columns.data() + bucket.unstarred[i] * len,
                                   bucket.strides[i], len);
          }
          simd::WindowProbeAdd(bucket.table.keys(), bucket.table.bits(),
                               bucket.table.slot_mask(), probes.data(), len, fstar.data());
        }
        double partial = 0.0;
        for (std::size_t i = 0; i < len; ++i) {
          LDIV_CHECK_GT(fstar[i], 0.0) << "f* must cover every data point";
          const double count = kl_points[begin + i].count;
          partial += (count / n) * std::log(count / fstar[i]);
        }
        return partial;
      },
      std::plus<double>());
}

double KlDivergenceMultiDim(const Table& table, const BoxGeneralization& gen,
                            Workspace* workspace, const std::vector<KlPoint>* points) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  std::vector<KlPoint> local_points;
  const std::vector<KlPoint>& kl_points = PointsFor(table, points, ws, &local_points);
  const std::vector<double> fstar =
      gen.tiling() ? TilingFstar(table, gen, ws) : StabbingFstar(table, gen, kl_points, ws);
  // Term i of a chunk adds into lane i mod 4 and the lanes fold as
  // ((a0 + a1) + a2) + a3. The four lanes exist only to keep the
  // estimate's bits: this is the summation order the pinned KL values
  // (kl_divergence_test's KlGolden) were computed in, and one running sum
  // would round differently.
  return ParallelReduce(
      kl_points.size(), kKlMultiDimPointGrain, ws, 0.0,
      [&](std::size_t begin, std::size_t end, Workspace&) {
        double acc[4] = {0.0, 0.0, 0.0, 0.0};
        for (std::size_t p = begin; p < end; ++p) {
          const double fstar_n = fstar[kl_points[p].first_row];
          LDIV_CHECK_GT(fstar_n, 0.0) << "f* must cover every data point";
          const double count = kl_points[p].count;
          acc[(p - begin) & 3] += (count / n) * std::log(count / fstar_n);
        }
        return ((acc[0] + acc[1]) + acc[2]) + acc[3];
      },
      std::plus<double>());
}

double KlDivergenceAnatomy(const Table& table, const Partition& buckets, Workspace* workspace,
                           const std::vector<KlPoint>* points) {
  if (table.empty()) return 0.0;
  const double n = static_cast<double>(table.size());
  const std::size_t m = table.schema().sa_domain_size();

  // Per-bucket SA frequencies (count / bucket size), sparse and flat: the
  // entries of bucket g are its distinct SA values in first-occurrence
  // order, entries [entry_offsets[g], entry_offsets[g + 1]). A bucket has
  // at most |bucket| of them, so all buckets hold at most n. `entry_of`
  // maps an SA value to its entry in the bucket being filled, reset
  // through that bucket's entries.
  constexpr std::uint32_t kNoEntry = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> entry_offsets(buckets.group_count() + 1, 0);
  std::vector<SaValue> entry_value;
  std::vector<double> entry_frequency;
  entry_value.reserve(buckets.row_count());
  entry_frequency.reserve(buckets.row_count());
  std::vector<std::uint32_t> bucket_of(table.size());
  {
    std::vector<std::uint32_t> entry_of(m, kNoEntry);
    for (GroupId g = 0; g < buckets.group_count(); ++g) {
      const double size = static_cast<double>(buckets.group(g).size());
      for (RowId r : buckets.group(g)) {
        const SaValue v = table.sa(r);
        if (entry_of[v] == kNoEntry) {
          entry_of[v] = static_cast<std::uint32_t>(entry_value.size());
          entry_value.push_back(v);
          entry_frequency.push_back(0.0);
        }
        entry_frequency[entry_of[v]] += 1.0 / size;
        bucket_of[r] = g;
      }
      entry_offsets[g + 1] = static_cast<std::uint32_t>(entry_value.size());
      for (std::uint32_t e = entry_offsets[g]; e < entry_offsets[g + 1]; ++e) {
        entry_of[entry_value[e]] = kNoEntry;
      }
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

  // n * f*(p) of every row, summed once per QI class: f*(p) sums, over the
  // rows t of p's class in ascending row order, t's bucket frequency at
  // SA(p). Each row of the class adds its bucket's entries into one dense
  // scratch, in that order, so every SA value's sum adds its nonzero terms
  // in the order a per-point walk over the class adds them; the zero terms
  // such a walk also adds leave a non-negative sum's bits unchanged. The
  // scratch is reset through the same entries, as TilingFstar resets its
  // scratch through the group's own rows.
  std::vector<double> fstar(table.size());
  {
    std::vector<double> mass(m, 0.0);
    for (std::uint32_t c = 0; c < class_count; ++c) {
      const std::span<const RowId> rows(class_rows.data() + class_offsets[c],
                                        class_rows.data() + class_offsets[c + 1]);
      for (RowId r : rows) {
        const std::uint32_t g = bucket_of[r];
        for (std::uint32_t e = entry_offsets[g]; e < entry_offsets[g + 1]; ++e) {
          mass[entry_value[e]] += entry_frequency[e];
        }
      }
      for (RowId r : rows) fstar[r] = mass[table.sa(r)];
      for (RowId r : rows) {
        const std::uint32_t g = bucket_of[r];
        for (std::uint32_t e = entry_offsets[g]; e < entry_offsets[g + 1]; ++e) {
          mass[entry_value[e]] = 0.0;
        }
      }
    }
  }

  std::vector<KlPoint> local_points;
  double kl = 0.0;
  for (const KlPoint& pc : PointsFor(table, points, ws, &local_points)) {
    const double fstar_n = fstar[pc.first_row];
    LDIV_CHECK_GT(fstar_n, 0.0);
    double f = static_cast<double>(pc.count) / n;
    kl += f * std::log(static_cast<double>(pc.count) / fstar_n);
  }
  return kl;
}

double KlDivergenceSingleDim(const Table& table, const SingleDimGeneralization& gen,
                             Workspace* workspace, const std::vector<KlPoint>* points) {
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
  std::vector<KlPoint> local_points;
  double kl = 0.0;
  for (const KlPoint& pc : PointsFor(table, points, ws, &local_points)) {
    gather(pc.first_row);
    SaValue sa = table.sa(pc.first_row);
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
