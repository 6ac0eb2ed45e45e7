#ifndef LDIV_TDS_TAXONOMY_H_
#define LDIV_TDS_TAXONOMY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace ldv {

/// One node of a domain taxonomy: the half-open code interval [lo, hi).
struct TaxonomyNode {
  Value lo = 0;
  Value hi = 0;
  std::int32_t parent = -1;
  std::int32_t left = -1;   ///< -1 for leaves
  std::int32_t right = -1;  ///< -1 for leaves

  std::uint32_t width() const { return hi - lo; }
  bool is_leaf() const { return left < 0; }
};

/// Balanced binary interval taxonomy over a categorical domain [0, size).
///
/// TDS [15] requires a generalization hierarchy per QI attribute. Real
/// deployments use hand-curated semantic hierarchies; as the substitution
/// for those (see DESIGN.md) we build balanced binary hierarchies over the
/// coded domains, which is what synthetic evaluations of single-dimensional
/// schemes conventionally use. The root covers the whole domain; each
/// internal node splits its interval into two halves.
class Taxonomy {
 public:
  explicit Taxonomy(std::size_t domain_size);

  /// Nodes of the hierarchy over a domain of `domain_size` values: a
  /// binary tree with one leaf per value.
  static std::size_t NodeCount(std::size_t domain_size) { return 2 * domain_size - 1; }

  std::int32_t root() const { return 0; }
  std::size_t node_count() const { return nodes_.size(); }
  const TaxonomyNode& node(std::int32_t id) const { return nodes_[id]; }

  std::size_t domain_size() const { return domain_size_; }

  /// The leaf node whose interval is {v}.
  std::int32_t LeafFor(Value v) const { return leaf_of_value_[v]; }

  /// Depth of node `id` (root = 0).
  std::uint32_t Depth(std::int32_t id) const;

  /// Renders node `id` as "[lo,hi)".
  std::string NodeLabel(std::int32_t id) const;

 private:
  std::int32_t Build(Value lo, Value hi, std::int32_t parent);

  std::size_t domain_size_;
  std::vector<TaxonomyNode> nodes_;
  std::vector<std::int32_t> leaf_of_value_;
};

}  // namespace ldv

#endif  // LDIV_TDS_TAXONOMY_H_
