#ifndef LDIV_METRICS_KL_DIVERGENCE_H_
#define LDIV_METRICS_KL_DIVERGENCE_H_

#include <cstdint>
#include <vector>

#include "anonymity/generalization.h"
#include "anonymity/multidim.h"
#include "common/table.h"
#include "common/types.h"
#include "common/workspace.h"
#include "tds/tds.h"

namespace ldv {

/// Whether the estimators' packed data-point ids -- a mixed radix over
/// every QI domain and then the SA domain -- fit in 64 bits for `schema`,
/// and its QIs fit the suppression estimator's 64-bit star masks. The
/// point-set build CHECKs it (KlDistinctPoints), so every estimate does;
/// front-ends test it first, so a schema past the limit is a usage error
/// (skipping the KL estimate lifts the limit).
bool KlPointIdsFit(const Schema& schema);

/// Whether KlDivergenceSingleDim's count keys, cell * m + sa, fit in 64
/// bits for `schema`: the TDS cell ids (a mixed radix of 2 * |dom_a| per
/// QI) times the SA domain m. The estimator CHECKs it; front-ends test it
/// first, like KlPointIdsFit.
bool KlSingleDimKeysFit(const Schema& schema);

/// One distinct (QI, SA) data point of a table: the first row holding it
/// and the number of rows that do. 8 bytes a point.
struct KlPoint {
  RowId first_row = 0;
  std::uint32_t count = 0;
};

/// The distinct data points of `table` in first-occurrence row order: the
/// support of the pdf f that every estimator below sums over. They depend
/// on the table alone, so one set serves every estimate over it -- the
/// engine resolves it once per table (TableArtifacts::kl_points). Draws its
/// scratch from `workspace` (null = a default one); CHECKs KlPointIdsFit.
std::vector<KlPoint> KlDistinctPoints(const Table& table, Workspace* workspace = nullptr);

/// KL-divergence KL(f, f*) of Section 6.2 (Equation 2) between the pdf f of
/// the microdata over the (d+1)-dimensional space Omega and the pdf f*
/// induced by a suppression generalization: a starred attribute value is
/// treated as uniform over the whole attribute domain, a retained value as a
/// point mass; SA values are never generalized.
///
/// Exact computation in O(n * B) for B distinct star masks (B <= 2^d and
/// B <= the group count): the groups of T* are bucketed by their star
/// mask, and f*(p) sums one lookup per mask bucket for each distinct data
/// point, probed bucket by bucket. Each bucket's masses are frozen into a
/// WindowTable (common/flat_map.h), so every probe reads one fixed 8-slot
/// window with no data-dependent branch (simd::WindowProbeAdd): its cost
/// depends on which cache level holds the table, not on hits or probe-run
/// lengths. The tables take 16 bytes per slot at load <= 1/2, 1.4-2x the
/// bytes of the FlatMaps they are frozen from; each map is freed as its
/// table is built.
///
/// Every estimator draws its scratch from `workspace` and fans out to its
/// threads() when one is supplied (a solve passes its own, so a one-thread
/// job's KL stays on its thread); null means a default workspace. Each
/// sums over `points`, which must be KlDistinctPoints(table); null builds
/// them for this one estimate. The estimate is the same either way.
double KlDivergenceSuppression(const Table& table, const GeneralizedTable& generalized,
                               Workspace* workspace = nullptr,
                               const std::vector<KlPoint>* points = nullptr);

/// KL-divergence for a single-dimensional generalization: each tuple is
/// uniform over its cell (the product of its published sub-domains). Cells
/// tile the space, so f*(p) comes from exactly one cell. O(n).
double KlDivergenceSingleDim(const Table& table, const SingleDimGeneralization& gen,
                             Workspace* workspace = nullptr,
                             const std::vector<KlPoint>* points = nullptr);

/// KL-divergence for a multi-dimensional generalization: each tuple is
/// uniform over its group's box. When the boxes tile the space
/// (gen.tiling(), as Mondrian's do) the only box containing p is the box
/// of its own rows' group, so f*(p) is read from that group in one pass
/// over the release: O(n * d) time, O(n + m) memory. Otherwise boxes may
/// overlap (Section 2) and f*(p) sums every box containing p, found by
/// stabbing an inverted index on the first QI attribute: O(groups * m)
/// memory and up to O(points * groups) box probes.
double KlDivergenceMultiDim(const Table& table, const BoxGeneralization& gen,
                            Workspace* workspace = nullptr,
                            const std::vector<KlPoint>* points = nullptr);

/// KL-divergence for an Anatomy release (QI table published exactly, SA
/// linked only through l-diverse buckets): the adversary's density at point
/// p is (1/n) * sum over tuples t with QI(t) = QI(p) of
/// count_{bucket(t)}(SA(p)) / |bucket(t)|.
///
/// Each bucket keeps only the SA values it holds, with their frequencies,
/// in one flat array of at most n entries. The sum is taken once per QI
/// class: every row of the class, in ascending row order, adds its bucket's
/// entries into one dense SA-domain scratch, and each point reads its SA's
/// total. O(sum over rows of the distinct SA values in the row's bucket)
/// time, O(n + m) memory.
double KlDivergenceAnatomy(const Table& table, const Partition& buckets,
                           Workspace* workspace = nullptr,
                           const std::vector<KlPoint>* points = nullptr);

}  // namespace ldv

#endif  // LDIV_METRICS_KL_DIVERGENCE_H_
