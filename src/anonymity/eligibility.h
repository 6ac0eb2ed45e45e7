#ifndef LDIV_ANONYMITY_ELIGIBILITY_H_
#define LDIV_ANONYMITY_ELIGIBILITY_H_

#include <cstdint>
#include <span>

#include "anonymity/partition.h"
#include "common/table.h"

namespace ldv {

/// Definition 2 for a subset S of the rows of `table`: S is l-eligible if
/// at most |S|/l of its tuples share an identical SA value, i.e.
/// |S| >= l * h(S).
bool IsEligible(const Table& table, std::span<const RowId> rows, std::uint32_t l);

/// l-eligibility of the whole table; by Lemma 1 the star-minimization
/// problem has a solution iff this holds.
bool IsTableEligible(const Table& table, std::uint32_t l);

/// A generalization is l-diverse iff every QI-group is l-eligible
/// (Definition 2 applied to a partition).
bool IsLDiverse(const Table& table, const Partition& partition, std::uint32_t l);

/// The largest l for which `table` is l-eligible: floor(n / h(T)).
/// Returns 0 for an empty table.
std::uint32_t MaxFeasibleL(const Table& table);

}  // namespace ldv

#endif  // LDIV_ANONYMITY_ELIGIBILITY_H_
