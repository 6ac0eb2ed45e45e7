#ifndef LDIV_METRICS_KL_DIVERGENCE_H_
#define LDIV_METRICS_KL_DIVERGENCE_H_

#include "anonymity/generalization.h"
#include "anonymity/multidim.h"
#include "common/table.h"
#include "common/workspace.h"
#include "tds/tds.h"

namespace ldv {

/// Whether the estimators' packed data-point ids -- a mixed radix over
/// every QI domain and then the SA domain -- fit in 64 bits for `schema`,
/// and its QIs fit the suppression estimator's 64-bit star masks. Every
/// estimator CHECKs it; front-ends test it first, so a schema past the
/// limit is a usage error (skipping the KL estimate lifts the limit).
bool KlPointIdsFit(const Schema& schema);

/// Whether KlDivergenceSingleDim's count keys, cell * m + sa, fit in 64
/// bits for `schema`: the TDS cell ids (a mixed radix of 2 * |dom_a| per
/// QI) times the SA domain m. The estimator CHECKs it; front-ends test it
/// first, like KlPointIdsFit.
bool KlSingleDimKeysFit(const Schema& schema);

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
/// job's KL stays on its thread); null means a default workspace.
double KlDivergenceSuppression(const Table& table, const GeneralizedTable& generalized,
                               Workspace* workspace = nullptr);

/// KL-divergence for a single-dimensional generalization: each tuple is
/// uniform over its cell (the product of its published sub-domains). Cells
/// tile the space, so f*(p) comes from exactly one cell. O(n).
double KlDivergenceSingleDim(const Table& table, const SingleDimGeneralization& gen,
                             Workspace* workspace = nullptr);

/// KL-divergence for a multi-dimensional generalization: each tuple is
/// uniform over its group's box. When the boxes tile the space
/// (gen.tiling(), as Mondrian's do) the only box containing p is the box
/// of its own rows' group, so f*(p) is read from that group in one pass
/// over the release: O(n * d) time, O(n + m) memory. Otherwise boxes may
/// overlap (Section 2) and f*(p) sums every box containing p, found by
/// stabbing an inverted index on the first QI attribute: O(groups * m)
/// memory and up to O(points * groups) box probes.
double KlDivergenceMultiDim(const Table& table, const BoxGeneralization& gen,
                            Workspace* workspace = nullptr);

/// KL-divergence for an Anatomy release (QI table published exactly, SA
/// linked only through l-diverse buckets): the adversary's density at point
/// p is (1/n) * sum over tuples t with QI(t) = QI(p) of
/// count_{bucket(t)}(SA(p)) / |bucket(t)|.
double KlDivergenceAnatomy(const Table& table, const Partition& buckets,
                           Workspace* workspace = nullptr);

}  // namespace ldv

#endif  // LDIV_METRICS_KL_DIVERGENCE_H_
