#ifndef LDIV_HILBERT_HILBERT_PARTITIONER_H_
#define LDIV_HILBERT_HILBERT_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "anonymity/diversity.h"
#include "anonymity/partition.h"
#include "common/table.h"
#include "common/types.h"
#include "common/workspace.h"

namespace ldv {

/// Options for the Hilbert baseline.
struct HilbertOptions {
  enum class Splitter {
    /// Linear greedy scan: close each QI-group as soon as it becomes
    /// l-eligible; an ineligible tail is merged backwards until eligible.
    /// This is the near-linear strategy of [16].
    kGreedy,
    /// Sliding-window dynamic program that picks the contiguous split with
    /// the fewest stars among groups of bounded size. Slower, usually a
    /// little better; kept as an ablation of the splitting rule.
    kWindowDp,
  };
  Splitter splitter = Splitter::kGreedy;
  /// Maximum group size considered by the kWindowDp splitter, as a multiple
  /// of l (window = dp_window_factor * l).
  std::uint32_t dp_window_factor = 4;
};

/// Result of the Hilbert baseline.
struct HilbertResult {
  /// False iff the table is not l-eligible.
  bool feasible = false;
  Partition partition;
  double seconds = 0.0;
};

/// The suppression-adapted Hilbert baseline of Section 6.1 (Ghinita et
/// al. [16]): sort tuples by their position along a d-dimensional Hilbert
/// curve over the QI space, then cut the 1-D sequence into consecutive
/// l-eligible QI-groups. Locality of the curve keeps tuples with similar QI
/// values in the same group, which keeps the Definition-1 star count low.
/// The code, order and split-offset buffers come from `workspace` when one
/// is supplied, so repeated solves reuse their scratch memory. When
/// `precomputed_order` is non-null it must be the exact row order
/// HilbertComputeOrder produces for `table`; the encode + sort step is
/// skipped and the splitter consumes the given order (the engine's
/// artifact cache uses this to amortize the sort across a sweep).
HilbertResult HilbertAnonymize(const Table& table, std::uint32_t l,
                               const HilbertOptions& options = {},
                               Workspace* workspace = nullptr,
                               const std::vector<RowId>* precomputed_order = nullptr);

/// The sorted Hilbert row order of `table` -- the dataset-dependent,
/// l-independent half of HilbertAnonymize, exposed so callers can compute
/// it once per dataset and replay it across solves. Byte-identical to the
/// order HilbertAnonymize derives internally (including the external-sort
/// path under a memory budget).
void HilbertComputeOrder(const Table& table, Workspace* workspace, std::vector<RowId>* order);

/// Generic-predicate variant for the alternative l-diversity
/// instantiations of [31] (entropy, recursive (c,l)): same Hilbert sort and
/// greedy consecutive grouping, closing a group as soon as it satisfies
/// `spec` and merging an unsatisfiable tail backwards. Sound because all
/// three diversity variants are monotone under union. Returns infeasible
/// when the whole table violates `spec`. Scratch and the run context come
/// from `workspace` when one is supplied.
HilbertResult HilbertAnonymizeWithSpec(const Table& table, const DiversitySpec& spec,
                                       Workspace* workspace = nullptr);

}  // namespace ldv

#endif  // LDIV_HILBERT_HILBERT_PARTITIONER_H_
