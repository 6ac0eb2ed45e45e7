#include "anonymity/partition.h"

#include <limits>
#include <numeric>

#include "common/check.h"

namespace ldv {

Partition Partition::SingleGroup(const Table& table) {
  std::vector<RowId> all(table.size());
  std::iota(all.begin(), all.end(), 0u);
  Partition p;
  p.AddGroup(all);
  return p;
}

void Partition::AddGroup(std::span<const RowId> rows) {
  if (rows.empty()) return;
  LDIV_CHECK_LE(rows_.size() + rows.size(), std::numeric_limits<std::uint32_t>::max());
  if (offsets_.empty()) offsets_.push_back(0);
  rows_.insert(rows_.end(), rows.begin(), rows.end());
  offsets_.push_back(static_cast<std::uint32_t>(rows_.size()));
}

void Partition::Append(const Partition& other) {
  for (GroupId g = 0; g < other.group_count(); ++g) AddGroup(other.group(g));
}

void Partition::Reserve(std::size_t groups, std::size_t rows) {
  offsets_.reserve(group_count() + groups + 1);
  rows_.reserve(rows_.size() + rows);
}

bool Partition::CoversExactly(const Table& table) const {
  std::vector<bool> seen(table.size(), false);
  for (RowId r : rows_) {
    if (r >= table.size() || seen[r]) return false;
    seen[r] = true;
  }
  return rows_.size() == table.size();
}

}  // namespace ldv
