#ifndef LDIV_ANONYMITY_MULTIDIM_H_
#define LDIV_ANONYMITY_MULTIDIM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "anonymity/generalization.h"
#include "anonymity/partition.h"
#include "common/table.h"

namespace ldv {

/// An axis-aligned box of QI sub-domains: attribute a is published as the
/// half-open code interval [lo[a], hi[a]). Multi-dimensional generalization
/// (Section 2, Table 5) publishes one box per QI-group; boxes from
/// different groups may overlap. A view: the bounds belong to whoever
/// holds them (a BoxGeneralization, or a solver's working box).
struct QiBox {
  std::span<const Value> lo;
  std::span<const Value> hi;

  /// Product of interval widths.
  double Volume() const;

  /// True iff the QI vector lies inside the box.
  bool Contains(std::span<const Value> qi) const;
};

/// A multi-dimensional generalization: one (box, rows) pair per QI-group,
/// stored flat: the groups' rows as a Partition and every box's bounds in
/// one group-major array (lo then hi, d values each).
class BoxGeneralization {
 public:
  BoxGeneralization() = default;

  /// Appends one group; `rows` must be non-empty and every box must have
  /// the same dimension.
  void AddGroup(QiBox box, std::span<const RowId> rows);

  /// Appends every (box, rows) pair of `other`, in order. `other`'s
  /// tiling flag is ignored.
  void Append(const BoxGeneralization& other);

  /// Reserves room for `rows` more rows across the groups to come.
  void ReserveRows(std::size_t rows) { rows_.Reserve(0, rows); }

  /// Frees the bounds array's growth slack; for a producer that has
  /// added its last group.
  void ShrinkToFit() { bounds_.shrink_to_fit(); }

  std::size_t group_count() const { return rows_.group_count(); }
  QiBox box(std::size_t g) const {
    const Value* lo = bounds_.data() + 2 * d_ * g;
    return {{lo, d_}, {lo + d_, d_}};
  }
  std::span<const RowId> rows(std::size_t g) const { return rows_.group(static_cast<GroupId>(g)); }
  const Partition& partition() const { return rows_; }

  /// Declares that the boxes are pairwise disjoint (they tile the QI
  /// space), so every point lies in at most one box. Set by producers
  /// whose construction guarantees it -- Mondrian's boxes are global cuts
  /// of the parent box -- and exploited by KlDivergenceMultiDim, which
  /// then reads each row's f* from its own group's box instead of
  /// stabbing the whole box set.
  void MarkTiling() { tiling_ = true; }
  bool tiling() const { return tiling_; }

 private:
  Partition rows_;
  std::vector<Value> bounds_;  // group g: lo at [2dg, 2dg + d), hi at [2dg + d, 2dg + 2d)
  std::size_t d_ = 0;
  bool tiling_ = false;
};

/// The transformation described at the start of Section 6.2: any suppression
/// generalization T* can be relaxed into a multi-dimensional generalization
/// T*' by replacing each star on attribute A with the smallest sub-domain of
/// A covering the group's values (its min..max code range), and each
/// retained value with the singleton interval. T*' is never less accurate
/// than T*, which is why the paper concludes multi-dimensional
/// generalization dominates suppression on utility.
BoxGeneralization RelaxSuppressionToMultiDim(const Table& table,
                                             const GeneralizedTable& generalized);

}  // namespace ldv

#endif  // LDIV_ANONYMITY_MULTIDIM_H_
