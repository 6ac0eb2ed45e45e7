#include "tds/tds.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>

#include "anonymity/eligibility.h"
#include "common/check.h"
#include "common/histogram.h"

namespace ldv {

// ---------------------------------------------------------------------------
// SingleDimGeneralization
// ---------------------------------------------------------------------------

namespace {

// Mixed-radix strides of packed cell ids: attribute a's radix is its
// taxonomy's node count + 1. False when the product does not fit in 64
// bits.
bool CellStrides(std::span<const std::uint64_t> node_counts,
                 std::vector<std::uint64_t>* strides) {
  std::uint64_t stride = 1;
  for (std::uint64_t count : node_counts) {
    strides->push_back(stride);
    if (stride >= std::numeric_limits<std::uint64_t>::max() / (count + 1)) return false;
    stride *= count + 1;
  }
  return true;
}

}  // namespace

bool TdsCellIdsFit(const Schema& schema) {
  std::vector<std::uint64_t> node_counts;
  for (AttrId a = 0; a < schema.qi_count(); ++a) {
    node_counts.push_back(Taxonomy::NodeCount(schema.qi(a).domain_size));
  }
  std::vector<std::uint64_t> strides;
  return CellStrides(node_counts, &strides);
}

SingleDimGeneralization::SingleDimGeneralization(
    std::vector<Taxonomy> taxonomies, std::vector<std::vector<std::int32_t>> value_to_node)
    : taxonomies_(std::move(taxonomies)), value_to_node_(std::move(value_to_node)) {
  LDIV_CHECK_EQ(taxonomies_.size(), value_to_node_.size());
  std::vector<std::uint64_t> node_counts;
  for (const Taxonomy& taxonomy : taxonomies_) node_counts.push_back(taxonomy.node_count());
  const bool fits = CellStrides(node_counts, &strides_);
  LDIV_CHECK(fits) << "cell id space exceeds 64 bits";
}

double SingleDimGeneralization::CellVolume(std::span<const Value> qi) const {
  LDIV_CHECK_EQ(qi.size(), taxonomies_.size());
  double volume = 1.0;
  for (std::size_t a = 0; a < qi.size(); ++a) {
    volume *= CellWidth(static_cast<AttrId>(a), qi[a]);
  }
  return volume;
}

std::uint64_t SingleDimGeneralization::PackedCellId(std::span<const Value> qi) const {
  LDIV_CHECK_EQ(qi.size(), taxonomies_.size());
  std::uint64_t id = 0;
  for (std::size_t a = 0; a < qi.size(); ++a) {
    id += strides_[a] * static_cast<std::uint64_t>(value_to_node_[a][qi[a]] + 1);
  }
  return id;
}

// ---------------------------------------------------------------------------
// RunTds
// ---------------------------------------------------------------------------

namespace {

struct TdsGroup {
  std::vector<RowId> rows;
  SaHistogram histogram;
  std::vector<std::int32_t> node_ids;  // current taxonomy node per attribute
  bool alive = true;
};

struct Candidate {
  double score = 0.0;
  AttrId attr = 0;
  std::int32_t node = -1;

  bool operator<(const Candidate& other) const {
    // max-heap by score; deterministic tie-break on (attr, node)
    if (score != other.score) return score < other.score;
    if (attr != other.attr) return attr > other.attr;
    return node > other.node;
  }
};

class TdsState {
 public:
  TdsState(const Table& table, std::uint32_t l) : table_(table), l_(l) {
    const Schema& schema = table.schema();
    std::size_t d = schema.qi_count();
    for (AttrId a = 0; a < d; ++a) {
      taxonomies_.emplace_back(schema.qi(a).domain_size);
      value_to_node_.emplace_back(schema.qi(a).domain_size, taxonomies_[a].root());
      value_counts_.emplace_back(schema.qi(a).domain_size, 0);
    }
    for (RowId r = 0; r < table.size(); ++r) {
      for (AttrId a = 0; a < d; ++a) ++value_counts_[a][table.qi(r, a)];
    }
    node_groups_.resize(d);

    // Initial state: one group holding everything, every attribute at root.
    TdsGroup root_group;
    root_group.rows.resize(table.size());
    for (RowId r = 0; r < table.size(); ++r) root_group.rows[r] = r;
    root_group.histogram = SaHistogram(std::vector<std::uint32_t>(table.SaHistogramCounts()));
    root_group.node_ids.assign(d, 0);
    for (AttrId a = 0; a < d; ++a) {
      root_group.node_ids[a] = taxonomies_[a].root();
      node_groups_[a][taxonomies_[a].root()].push_back(0);
    }
    groups_.push_back(std::move(root_group));

    for (AttrId a = 0; a < d; ++a) PushCandidate(a, taxonomies_[a].root());
  }

  std::uint32_t RunToCompletion() {
    std::uint32_t applied = 0;
    while (!candidates_.empty()) {
      Candidate c = candidates_.top();
      candidates_.pop();
      if (TrySpecialize(c.attr, c.node)) {
        ++applied;
        const TaxonomyNode& node = taxonomies_[c.attr].node(c.node);
        PushCandidate(c.attr, node.left);
        PushCandidate(c.attr, node.right);
      }
      // Invalid candidates are discarded permanently: by Lemma 1 an
      // ineligible refinement piece stays ineligible under any further
      // refinement.
    }
    return applied;
  }

  TdsResult BuildResult() {
    TdsResult result;
    result.feasible = true;
    result.generalization = std::make_shared<SingleDimGeneralization>(std::move(taxonomies_),
                                                                      std::move(value_to_node_));
    std::size_t alive = 0;
    for (const TdsGroup& g : groups_) alive += g.alive ? 1 : 0;
    result.partition.Reserve(alive, table_.size());
    for (const TdsGroup& g : groups_) {
      if (g.alive) result.partition.AddGroup(g.rows);
    }
    return result;
  }

 private:
  void PushCandidate(AttrId a, std::int32_t node_id) {
    const TaxonomyNode& node = taxonomies_[a].node(node_id);
    if (node.is_leaf()) return;
    const TaxonomyNode& left = taxonomies_[a].node(node.left);
    const TaxonomyNode& right = taxonomies_[a].node(node.right);
    double gain = 0.0;
    double log_w = std::log2(static_cast<double>(node.width()));
    for (Value v = node.lo; v < node.hi; ++v) {
      double child_w = (v < left.hi) ? left.width() : right.width();
      gain += static_cast<double>(value_counts_[a][v]) *
              (log_w - std::log2(static_cast<double>(child_w)));
    }
    candidates_.push(Candidate{gain, a, node_id});
  }

  // Validates and, when valid, applies the specialization of `node_id` on
  // attribute `a`: every group currently published at that node splits into
  // its left/right pieces; all pieces must stay l-eligible.
  bool TrySpecialize(AttrId a, std::int32_t node_id) {
    auto it = node_groups_[a].find(node_id);
    std::vector<GroupId> affected;
    if (it != node_groups_[a].end()) {
      for (GroupId g : it->second) {
        if (groups_[g].alive && groups_[g].node_ids[a] == node_id) affected.push_back(g);
      }
    }
    const TaxonomyNode& node = taxonomies_[a].node(node_id);
    const Value mid = taxonomies_[a].node(node.left).hi;

    // Validation pass (no mutation).
    SaHistogram left_hist(table_.schema().sa_domain_size());
    SaHistogram right_hist(table_.schema().sa_domain_size());
    for (GroupId g : affected) {
      left_hist = SaHistogram(table_.schema().sa_domain_size());
      right_hist = SaHistogram(table_.schema().sa_domain_size());
      for (RowId r : groups_[g].rows) {
        (table_.qi(r, a) < mid ? left_hist : right_hist).Add(table_.sa(r));
      }
      if (!left_hist.IsEligible(l_) || !right_hist.IsEligible(l_)) return false;
    }

    // Apply: update the cut ...
    for (Value v = node.lo; v < node.hi; ++v) {
      value_to_node_[a][v] = (v < mid) ? node.left : node.right;
    }
    // ... and split the affected groups.
    for (GroupId g : affected) {
      SplitGroup(g, a, mid, node.left, node.right);
    }
    if (it != node_groups_[a].end()) node_groups_[a].erase(it);
    return true;
  }

  void SplitGroup(GroupId g, AttrId a, Value mid, std::int32_t left_node,
                  std::int32_t right_node) {
    std::vector<RowId> left_rows, right_rows;
    for (RowId r : groups_[g].rows) {
      (table_.qi(r, a) < mid ? left_rows : right_rows).push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) {
      // The group sits entirely inside one child: only its label refines.
      std::int32_t child = left_rows.empty() ? right_node : left_node;
      groups_[g].node_ids[a] = child;
      node_groups_[a][child].push_back(g);
      return;
    }
    groups_[g].alive = false;
    AddChildGroup(g, a, left_node, std::move(left_rows));
    AddChildGroup(g, a, right_node, std::move(right_rows));
  }

  void AddChildGroup(GroupId parent, AttrId a, std::int32_t node_id, std::vector<RowId> rows) {
    TdsGroup child;
    child.histogram = SaHistogram(table_.schema().sa_domain_size());
    for (RowId r : rows) child.histogram.Add(table_.sa(r));
    child.rows = std::move(rows);
    child.node_ids = groups_[parent].node_ids;
    child.node_ids[a] = node_id;
    GroupId id = static_cast<GroupId>(groups_.size());
    groups_.push_back(std::move(child));
    for (AttrId attr = 0; attr < table_.qi_count(); ++attr) {
      node_groups_[attr][groups_[id].node_ids[attr]].push_back(id);
    }
  }

  const Table& table_;
  std::uint32_t l_;
  std::vector<Taxonomy> taxonomies_;
  std::vector<std::vector<std::int32_t>> value_to_node_;
  std::vector<std::vector<std::uint64_t>> value_counts_;
  std::vector<TdsGroup> groups_;
  // Per attribute: taxonomy node id -> group ids published at that node
  // (entries are validated lazily against the group's current node).
  std::vector<std::unordered_map<std::int32_t, std::vector<GroupId>>> node_groups_;
  std::priority_queue<Candidate> candidates_;
};

}  // namespace

TdsResult RunTds(const Table& table, std::uint32_t l) {
  TdsResult result;
  if (table.empty() || !IsTableEligible(table, l)) {
    result.feasible = table.empty();
    return result;
  }
  auto start = std::chrono::steady_clock::now();
  TdsState state(table, l);
  std::uint32_t applied = state.RunToCompletion();
  result = state.BuildResult();
  result.specializations = applied;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

}  // namespace ldv
