#include "anonymity/eligibility.h"

#include "common/histogram.h"

namespace ldv {

bool IsEligible(const Table& table, std::span<const RowId> rows, std::uint32_t l) {
  SaHistogram h(table.schema().sa_domain_size());
  for (RowId r : rows) h.Add(table.sa(r));
  return h.IsEligible(l);
}

bool IsTableEligible(const Table& table, std::uint32_t l) {
  SaHistogram h(std::vector<std::uint32_t>(table.SaHistogramCounts()));
  return h.IsEligible(l);
}

bool IsLDiverse(const Table& table, const Partition& partition, std::uint32_t l) {
  for (GroupId g = 0; g < partition.group_count(); ++g) {
    if (!IsEligible(table, partition.group(g), l)) return false;
  }
  return true;
}

std::uint32_t MaxFeasibleL(const Table& table) {
  if (table.empty()) return 0;
  SaHistogram h(std::vector<std::uint32_t>(table.SaHistogramCounts()));
  std::uint32_t pillar = h.PillarHeight();
  if (pillar == 0) return 0;
  return static_cast<std::uint32_t>(table.size() / pillar);
}

}  // namespace ldv
