#ifndef LDIV_ANONYMITY_MULTIDIM_H_
#define LDIV_ANONYMITY_MULTIDIM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "anonymity/generalization.h"
#include "common/table.h"

namespace ldv {

/// An axis-aligned box of QI sub-domains: attribute a is published as the
/// half-open code interval [lo[a], hi[a]). Multi-dimensional generalization
/// (Section 2, Table 5) publishes one box per QI-group; boxes from
/// different groups may overlap.
struct QiBox {
  std::vector<Value> lo;
  std::vector<Value> hi;

  /// Product of interval widths.
  double Volume() const;

  /// True iff the QI vector lies inside the box.
  bool Contains(std::span<const Value> qi) const;
};

/// A multi-dimensional generalization: one (box, rows) pair per QI-group.
class BoxGeneralization {
 public:
  BoxGeneralization() = default;

  void AddGroup(QiBox box, std::vector<RowId> rows);

  /// Moves every (box, rows) pair of `other` to the end, in order.
  /// `other` is left empty; its tiling flag is ignored.
  void Append(BoxGeneralization&& other);

  std::size_t group_count() const { return boxes_.size(); }
  const QiBox& box(std::size_t g) const { return boxes_[g]; }
  const std::vector<RowId>& rows(std::size_t g) const { return rows_[g]; }

  /// Declares that the boxes are pairwise disjoint (they tile the QI
  /// space), so every point lies in at most one box. Set by producers
  /// whose construction guarantees it -- Mondrian's boxes are global cuts
  /// of the parent box -- and exploited by KlDivergenceMultiDim, which
  /// then reads each row's f* from its own group's box instead of
  /// stabbing the whole box set.
  void MarkTiling() { tiling_ = true; }
  bool tiling() const { return tiling_; }

 private:
  std::vector<QiBox> boxes_;
  std::vector<std::vector<RowId>> rows_;
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
