#ifndef LDIV_MONDRIAN_MONDRIAN_H_
#define LDIV_MONDRIAN_MONDRIAN_H_

#include <cstdint>

#include "anonymity/multidim.h"
#include "anonymity/partition.h"
#include "common/table.h"
#include "common/workspace.h"

namespace ldv {

/// Result of the Mondrian partitioner.
struct MondrianResult {
  /// False iff the table is not l-eligible.
  bool feasible = false;
  /// The kd-style partition of the rows.
  Partition partition;
  /// The published boxes (one per group). The boxes tile the whole QI
  /// space (splits are global cuts of the parent box), so they never
  /// overlap -- the property that makes the Equation-2 pdf well-defined
  /// with one cell per point.
  BoxGeneralization generalization;
  double seconds = 0.0;
};

/// Mondrian multi-dimensional generalization (LeFevre, DeWitt,
/// Ramakrishnan [27]) adapted from k-anonymity to l-diversity, the paper's
/// Section 2 / 6.2 representative of the multi-dimensional category:
/// recursively bisect the QI space at the median of the attribute with the
/// widest normalized spread, as long as both halves remain l-eligible.
///
/// The recursion runs in place over one shared RowId buffer (medians by
/// selection, partitions by stable in-range swaps); when a Workspace is
/// supplied all scratch memory is drawn from (and returned to) its pools,
/// so repeated solves allocate only the published groups. Independent
/// subtrees fan out to the workspace's threads(), and the O(n) buffers
/// are charged to its budget().
MondrianResult MondrianAnonymize(const Table& table, std::uint32_t l,
                                 Workspace* workspace = nullptr);

}  // namespace ldv

#endif  // LDIV_MONDRIAN_MONDRIAN_H_
