#ifndef LDIV_ANONYMITY_PARTITION_H_
#define LDIV_ANONYMITY_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/table.h"
#include "common/types.h"

namespace ldv {

/// A partition P of a table into disjoint QI-groups whose union is the whole
/// table (Section 3), stored flat: every group's row ids back to back in
/// one array, in group order, plus one offset per group boundary, so group
/// g is rows_[offsets_[g], offsets_[g + 1]). Producers append groups in
/// their output order; no group is empty.
class Partition {
 public:
  /// The partition with a single group containing all rows of `table`
  /// (always l-diverse when the table itself is l-eligible, by Lemma 1).
  static Partition SingleGroup(const Table& table);

  // offsets_ stays empty until the first group, so a default-constructed
  // and a moved-from partition (whose vectors are empty) both hold zero
  // groups.
  std::size_t group_count() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::span<const RowId> group(GroupId g) const {
    return {rows_.data() + offsets_[g], rows_.data() + offsets_[g + 1]};
  }

  /// Total number of rows covered.
  std::size_t row_count() const { return rows_.size(); }

  /// Appends one group (ignored if empty).
  void AddGroup(std::span<const RowId> rows);

  /// Appends every group of `other` to the end of this partition, in order.
  void Append(const Partition& other);

  /// Reserves storage for `groups` more groups holding `rows` more rows.
  void Reserve(std::size_t groups, std::size_t rows);

  /// Verifies that the groups are disjoint and exactly cover rows
  /// [0, table.size()). Used by tests and by debug-mode validation.
  bool CoversExactly(const Table& table) const;

 private:
  std::vector<std::uint32_t> offsets_;  // group_count() + 1 entries, or none
  std::vector<RowId> rows_;
};

}  // namespace ldv

#endif  // LDIV_ANONYMITY_PARTITION_H_
