#include "tds/taxonomy.h"

#include <sstream>

#include "common/check.h"

namespace ldv {

Taxonomy::Taxonomy(std::size_t domain_size) : domain_size_(domain_size) {
  LDIV_CHECK_GT(domain_size, 0u);
  leaf_of_value_.assign(domain_size, -1);
  nodes_.reserve(NodeCount(domain_size));
  Build(0, static_cast<Value>(domain_size), -1);
}

std::int32_t Taxonomy::Build(Value lo, Value hi, std::int32_t parent) {
  std::int32_t id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(TaxonomyNode{lo, hi, parent, -1, -1});
  if (hi - lo == 1) {
    leaf_of_value_[lo] = id;
    return id;
  }
  Value mid = lo + (hi - lo + 1) / 2;
  std::int32_t left = Build(lo, mid, id);
  std::int32_t right = Build(mid, hi, id);
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

std::uint32_t Taxonomy::Depth(std::int32_t id) const {
  std::uint32_t depth = 0;
  while (nodes_[id].parent >= 0) {
    id = nodes_[id].parent;
    ++depth;
  }
  return depth;
}

std::string Taxonomy::NodeLabel(std::int32_t id) const {
  std::ostringstream out;
  out << "[" << nodes_[id].lo << "," << nodes_[id].hi << ")";
  return out.str();
}

}  // namespace ldv
