#include "anonymity/generalization.h"

#include <sstream>

namespace ldv {

GeneralizedTable::GeneralizedTable(const Table& table, const Partition& partition)
    : partition_(partition), qi_count_(table.qi_count()) {
  // Per group, column-major: one gathered scan per attribute with a
  // first-disagreement early exit.
  signatures_.resize(group_count() * qi_count_);
  for (GroupId g = 0; g < group_count(); ++g) {
    const std::span<const RowId> rows = partition_.group(g);
    Value* sig = signatures_.data() + g * qi_count_;
    for (AttrId a = 0; a < qi_count_; ++a) {
      const Value* col = table.column(a).data();
      const Value first = col[rows[0]];
      sig[a] = first;
      for (std::size_t i = 1; i < rows.size(); ++i) {
        if (col[rows[i]] != first) {
          sig[a] = kStar;
          break;
        }
      }
    }
  }
}

std::uint64_t GeneralizedTable::StarCount() const {
  std::uint64_t stars = 0;
  for (GroupId g = 0; g < group_count(); ++g) {
    stars += static_cast<std::uint64_t>(StarredAttributeCount(g)) * rows(g).size();
  }
  return stars;
}

std::uint64_t GeneralizedTable::SuppressedTupleCount() const {
  std::uint64_t suppressed = 0;
  for (GroupId g = 0; g < group_count(); ++g) {
    if (StarredAttributeCount(g) > 0) suppressed += rows(g).size();
  }
  return suppressed;
}

std::uint32_t GeneralizedTable::StarredAttributeCount(GroupId g) const {
  std::uint32_t count = 0;
  for (Value v : signature(g)) {
    if (IsStar(v)) ++count;
  }
  return count;
}

std::string GeneralizedTable::ToString(const Table& table, std::size_t max_rows) const {
  std::ostringstream out;
  std::size_t printed = 0;
  for (GroupId g = 0; g < group_count(); ++g) {
    out << "group " << g << ":\n";
    for (RowId r : rows(g)) {
      if (printed++ >= max_rows) {
        out << "  ...\n";
        return out.str();
      }
      out << "  ";
      for (Value v : signature(g)) {
        if (IsStar(v)) {
          out << "* ";
        } else {
          out << v << " ";
        }
      }
      out << "| " << table.sa(r) << "\n";
    }
  }
  return out.str();
}

std::uint64_t GroupStarCount(const Table& table, std::span<const RowId> rows) {
  if (rows.empty()) return 0;
  std::uint32_t starred = 0;
  for (AttrId a = 0; a < table.qi_count(); ++a) {
    const Value* col = table.column(a).data();
    const Value first = col[rows[0]];
    for (std::size_t i = 1; i < rows.size(); ++i) {
      if (col[rows[i]] != first) {
        ++starred;
        break;
      }
    }
  }
  return static_cast<std::uint64_t>(starred) * rows.size();
}

std::uint64_t PartitionStarCount(const Table& table, const Partition& partition) {
  std::uint64_t stars = 0;
  for (GroupId g = 0; g < partition.group_count(); ++g) {
    stars += GroupStarCount(table, partition.group(g));
  }
  return stars;
}

}  // namespace ldv
