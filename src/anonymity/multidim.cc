#include "anonymity/multidim.h"

#include <algorithm>

#include "common/check.h"

namespace ldv {

double QiBox::Volume() const {
  double volume = 1.0;
  for (std::size_t a = 0; a < lo.size(); ++a) {
    volume *= static_cast<double>(hi[a] - lo[a]);
  }
  return volume;
}

bool QiBox::Contains(std::span<const Value> qi) const {
  for (std::size_t a = 0; a < lo.size(); ++a) {
    if (qi[a] < lo[a] || qi[a] >= hi[a]) return false;
  }
  return true;
}

void BoxGeneralization::AddGroup(QiBox box, std::span<const RowId> rows) {
  LDIV_CHECK_EQ(box.lo.size(), box.hi.size());
  LDIV_CHECK(!rows.empty());
  if (group_count() == 0) d_ = box.lo.size();
  LDIV_CHECK_EQ(box.lo.size(), d_);
  bounds_.insert(bounds_.end(), box.lo.begin(), box.lo.end());
  bounds_.insert(bounds_.end(), box.hi.begin(), box.hi.end());
  rows_.AddGroup(rows);
}

void BoxGeneralization::Append(const BoxGeneralization& other) {
  for (std::size_t g = 0; g < other.group_count(); ++g) AddGroup(other.box(g), other.rows(g));
}

BoxGeneralization RelaxSuppressionToMultiDim(const Table& table,
                                             const GeneralizedTable& generalized) {
  BoxGeneralization out;
  const std::size_t d = table.qi_count();
  std::vector<Value> lo(d), hi(d);
  for (GroupId g = 0; g < generalized.group_count(); ++g) {
    const std::span<const Value> sig = generalized.signature(g);
    const std::span<const RowId> rows = generalized.rows(g);
    for (AttrId a = 0; a < d; ++a) {
      if (!IsStar(sig[a])) {
        lo[a] = sig[a];
        hi[a] = sig[a] + 1;
        continue;
      }
      Value min_v = table.qi(rows[0], a), max_v = min_v;
      for (RowId r : rows) {
        min_v = std::min(min_v, table.qi(r, a));
        max_v = std::max(max_v, table.qi(r, a));
      }
      lo[a] = min_v;
      hi[a] = max_v + 1;
    }
    out.AddGroup({lo, hi}, rows);
  }
  return out;
}

}  // namespace ldv
