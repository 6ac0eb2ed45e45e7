#ifndef LDIV_TDS_TDS_H_
#define LDIV_TDS_TDS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "anonymity/partition.h"
#include "common/table.h"
#include "tds/taxonomy.h"

namespace ldv {

/// A single-dimensional generalization: for every QI attribute, a "cut"
/// through its taxonomy, i.e. a mapping from each domain value to the
/// taxonomy node (sub-domain) it is published as. Cuts are global per
/// attribute, so the induced cells tile the QI space without overlap --
/// exactly the property Section 2 credits single-dimensional schemes with.
class SingleDimGeneralization {
 public:
  SingleDimGeneralization(std::vector<Taxonomy> taxonomies,
                          std::vector<std::vector<std::int32_t>> value_to_node);

  std::size_t attribute_count() const { return taxonomies_.size(); }
  const Taxonomy& taxonomy(AttrId a) const { return taxonomies_[a]; }

  /// The taxonomy node value `v` of attribute `a` is published as.
  std::int32_t NodeFor(AttrId a, Value v) const { return value_to_node_[a][v]; }

  /// Width |sub-domain| of the published node for (a, v).
  std::uint32_t CellWidth(AttrId a, Value v) const {
    return taxonomies_[a].node(value_to_node_[a][v]).width();
  }

  /// Volume (product of widths) of the cell containing the QI vector.
  double CellVolume(std::span<const Value> qi) const;

  /// Packs the cell signature of a QI vector into one integer (mixed radix
  /// over per-attribute node ids). The constructor CHECKs that the ids
  /// fit in 64 bits (TdsCellIdsFit).
  std::uint64_t PackedCellId(std::span<const Value> qi) const;

 private:
  std::vector<Taxonomy> taxonomies_;
  std::vector<std::vector<std::int32_t>> value_to_node_;
  std::vector<std::uint64_t> strides_;
};

/// Whether the packed cell ids of a generalization over `schema`'s QI
/// attributes fit in 64 bits (a mixed radix over each taxonomy's node
/// count + 1). SingleDimGeneralization CHECKs it, so RunTds aborts past
/// it; front-ends test it first and refuse such a schema.
bool TdsCellIdsFit(const Schema& schema);

/// Result of the TDS run.
struct TdsResult {
  /// False iff the table is not l-eligible.
  bool feasible = false;
  std::shared_ptr<SingleDimGeneralization> generalization;
  /// The row partition induced by the final cut (one group per occupied
  /// cell); useful for privacy checks and statistics.
  Partition partition;
  /// Number of specializations applied.
  std::uint32_t specializations = 0;
  double seconds = 0.0;
};

/// Top-Down Specialization (Fung, Wang, Yu [15]) adapted to l-diversity as
/// in Section 6.2 of the paper: starting from the fully generalized table
/// (every attribute at its taxonomy root), repeatedly apply the
/// highest-scoring specialization whose induced refinement keeps every
/// cell l-eligible. The score of specializing a node is the total
/// information gain of its tuples, Sum_t log2(width(node)/width(child(t)));
/// validity is anti-monotone (an invalid specialization can never become
/// valid after further refinement, by Lemma 1), so rejected candidates are
/// discarded permanently.
TdsResult RunTds(const Table& table, std::uint32_t l);

}  // namespace ldv

#endif  // LDIV_TDS_TDS_H_
