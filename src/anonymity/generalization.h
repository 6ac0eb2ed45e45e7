#ifndef LDIV_ANONYMITY_GENERALIZATION_H_
#define LDIV_ANONYMITY_GENERALIZATION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "anonymity/partition.h"
#include "common/table.h"
#include "common/types.h"

namespace ldv {

/// The generalization T* of a table determined by a partition
/// (Definition 1): in each QI-group, an attribute keeps its value if all
/// member tuples agree on it and becomes a star otherwise; SA values are
/// always retained. Stored flat: a copy of the partition and one
/// group-major array of groups x d signature values.
class GeneralizedTable {
 public:
  /// Applies Definition 1 to `table` under `partition`.
  GeneralizedTable(const Table& table, const Partition& partition);

  std::size_t group_count() const { return partition_.group_count(); }

  /// The generalized QI signature of group `g`; entries are either a
  /// concrete value or kStar.
  std::span<const Value> signature(GroupId g) const {
    return {signatures_.data() + g * qi_count_, qi_count_};
  }

  /// Rows belonging to group `g` (same indices as the input partition).
  std::span<const RowId> rows(GroupId g) const { return partition_.group(g); }

  const Partition& partition() const { return partition_; }

  /// Total number of stars in T*: for each group, d_starred * |group|.
  /// This is the objective of Problem 1 (star minimization).
  std::uint64_t StarCount() const;

  /// Number of suppressed tuples, i.e. tuples with at least one star
  /// (the objective of Problem 2, tuple minimization).
  std::uint64_t SuppressedTupleCount() const;

  /// Number of starred attributes in group `g`.
  std::uint32_t StarredAttributeCount(GroupId g) const;

  /// Renders the generalized table (codes and '*'), mainly for examples
  /// and debugging. `max_rows` caps the output.
  std::string ToString(const Table& table, std::size_t max_rows = 32) const;

 private:
  Partition partition_;
  std::vector<Value> signatures_;  // group g at [g * qi_count_, (g + 1) * qi_count_)
  std::size_t qi_count_ = 0;
};

/// Number of stars that Definition 1 assigns to `rows` as a single QI-group:
/// |rows| times the number of attributes on which the rows disagree.
std::uint64_t GroupStarCount(const Table& table, std::span<const RowId> rows);

/// Total stars of the generalization induced by `partition` without
/// materializing a GeneralizedTable.
std::uint64_t PartitionStarCount(const Table& table, const Partition& partition);

}  // namespace ldv

#endif  // LDIV_ANONYMITY_GENERALIZATION_H_
