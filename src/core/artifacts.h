#ifndef LDIV_CORE_ARTIFACTS_H_
#define LDIV_CORE_ARTIFACTS_H_

#include <memory>
#include <vector>

#include "common/grouped_table.h"
#include "common/types.h"

namespace ldv {

/// Dataset-derived solver inputs that depend only on the table (and its QI
/// schema), never on `l` or the algorithm: the exact-signature QI grouping
/// and the sorted Hilbert row order. Resolving them once lets every job of
/// an algorithms x l sweep -- and, through the engine's ContentCache,
/// every repeat daemon submission of the same dataset -- share one build.
/// Shared ownership keeps an artifact alive for concurrent consumers even
/// while a cache eviction is in flight.
struct TableArtifacts {
  /// Exact-signature QI grouping, consumed by TP and TP+. Immutable once
  /// built; safe to read from any number of threads.
  std::shared_ptr<const GroupedTable> grouped;
  /// Full-table Hilbert row order, consumed by the Hilbert baseline only.
  /// TP+'s residue refinement Hilbert-sorts a SelectRows sub-table whose
  /// row ids are local, so it must never consume this full-table order.
  std::shared_ptr<const std::vector<RowId>> hilbert_order;

  bool empty() const { return grouped == nullptr && hilbert_order == nullptr; }
};

}  // namespace ldv

#endif  // LDIV_CORE_ARTIFACTS_H_
