#ifndef LDIV_METRICS_KL_DIVERGENCE_H_
#define LDIV_METRICS_KL_DIVERGENCE_H_

#include "anonymity/generalization.h"
#include "anonymity/multidim.h"
#include "common/table.h"
#include "common/workspace.h"
#include "tds/tds.h"

namespace ldv {

/// Tuning knobs of the parallel KL estimators. Every field is a pure
/// performance parameter: the estimators' chunk geometry and combine order
/// are functions of these values alone, so two runs with the same tuning
/// produce bit-identical doubles at every thread count and SIMD level --
/// but changing a value changes where the partial sums break and therefore
/// the last-bit rounding. Callers that compare KL values across runs must
/// compare runs with the same tuning (the defaults, for every production
/// call site).
struct KlTuning {
  /// Distinct points per parallel chunk; 0 = the tuned default. The
  /// default ParallelReduce grain heuristic targets cheap per-item work,
  /// but a multi-dim KL point costs hundreds of box probes, so the right
  /// grain here is much smaller than for the scan-like kernels.
  std::size_t point_grain = 0;
  /// Rows per KL accumulation block (term staging for the SIMD
  /// p*log(p/q) kernel, used by the multi-dimensional estimator; the
  /// suppression estimator folds inline -- its points are too cheap for
  /// staging to pay); 0 = the tuned default. Rounded up to a multiple of
  /// 4 so the virtual-lane assignment never depends on the block size.
  std::size_t block_rows = 0;
};

/// Whether the estimators' packed data-point ids -- a mixed radix over
/// every QI domain and then the SA domain -- fit in 64 bits for `schema`.
/// Every estimator CHECKs it; front-ends test it first, so a schema past
/// the limit is a usage error (skipping the KL estimate lifts the limit).
bool KlPointIdsFit(const Schema& schema);

/// KL-divergence KL(f, f*) of Section 6.2 (Equation 2) between the pdf f of
/// the microdata over the (d+1)-dimensional space Omega and the pdf f*
/// induced by a suppression generalization: a starred attribute value is
/// treated as uniform over the whole attribute domain, a retained value as a
/// point mass; SA values are never generalized.
///
/// Exact computation in O(n * 2^d): the groups of T* are bucketed by their
/// star mask (at most 2^d masks), and f*(p) is assembled per distinct data
/// point by one lookup per mask.
///
/// Every estimator draws its scratch from `workspace` and fans out to its
/// threads() when one is supplied (a solve passes its own, so a one-thread
/// job's KL stays on its thread); null means a default workspace.
double KlDivergenceSuppression(const Table& table, const GeneralizedTable& generalized,
                               const KlTuning& tuning = {}, Workspace* workspace = nullptr);

/// KL-divergence for a single-dimensional generalization: each tuple is
/// uniform over its cell (the product of its published sub-domains). Cells
/// tile the space, so f*(p) comes from exactly one cell. O(n).
double KlDivergenceSingleDim(const Table& table, const SingleDimGeneralization& gen,
                             Workspace* workspace = nullptr);

/// KL-divergence for a multi-dimensional generalization: each tuple is
/// uniform over its group's box; boxes may overlap (Section 2), so f*(p)
/// sums contributions from every box containing p. Candidate boxes per
/// point are pruned through an inverted index on the first QI attribute.
double KlDivergenceMultiDim(const Table& table, const BoxGeneralization& gen,
                            const KlTuning& tuning = {}, Workspace* workspace = nullptr);

/// KL-divergence for an Anatomy release (QI table published exactly, SA
/// linked only through l-diverse buckets): the adversary's density at point
/// p is (1/n) * sum over tuples t with QI(t) = QI(p) of
/// count_{bucket(t)}(SA(p)) / |bucket(t)|.
double KlDivergenceAnatomy(const Table& table, const Partition& buckets,
                           Workspace* workspace = nullptr);

}  // namespace ldv

#endif  // LDIV_METRICS_KL_DIVERGENCE_H_
